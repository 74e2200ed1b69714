"""The two-step pair-distribution protocol.

One run proceeds in strict order:

1. The sender prepares N entangled pairs, choosing one of the four pair
   states per pair; the two bits naming the choice are her raw key.
2. She transmits the sequence of second halves.
3. The receiver Z-measures a random subset of what arrived.
4. Both publish those bits and compare the observed correlation against the
   one each prepared state dictates (the first check). Checked pairs are
   dropped.
5. If the first check passed, the sender transmits the remaining first
   halves.
6. The receiver joins each arriving half with its stored partner and
   measures in the pair-state basis, recovering two bits per pair.
7. A random subset of those results is published and compared against the
   preparation choices (the second check); the rest is the raw key.

A transmission whose delivered fraction falls below 1 - loss_tolerance
aborts the run, which is what defeats an adversary who selectively destroys
particles. Each operation below enforces its place in the order and raises
ProtocolOrderError when called early or late. A run records a transcript
exactly when its caller hands one in (or, through ``runner.run`` and
``run_multiparty``, asks with ``collect_transcripts=True``). Every
operation logs its public events to the ledger's transcript, and logs
nothing, building no payload, when the ledger keeps none (the default,
``ledger.transcript is None``); recording makes no draw. A step
that depends on a setting (a check's fraction, threshold and minimum size,
the check basis, continuation) reads it from the ``RunConfig`` it is
handed, the one place each setting is stated.

A step that draws per pair takes its draws as one ``RandomSource.quarters``
block. The first check of k sampled pairs takes 2k: the receiver's k, then
the sender's k. With random check bases it takes 3k: its first 2k alternate
a pair's basis draw and the receiver's draw for that pair, and the sender's
k follow. The sender and the receiver of a hop draw from one stream, the
sender's ``pairs`` quarters first; the adversary draws from her own.

No step takes the parties' names: they matter only as the actors of
logged events, so a hop's ``Transcript`` carries them, and a step logs its
sender's and receiver's events by the transcript's ``sender`` and
``receiver``.

``run_protocol`` is one such run, a hop. ``run_multiparty`` runs a trial
as a chain of hops along ``ledger.PARTIES``, alice -> bob for two parties
and on to clare for three, where the relay re-encodes his raw key into the
next hop's pairs. It is the one entry point of a trial:
``run_multiparty(config, t)`` derives trial t's streams and runs it.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .adversary import AdversaryChannel, AttackStrategy
from .config import RunConfig
from .errors import ConfigurationError, InsufficientPairsError, ProtocolOrderError
from .ledger import DIGITS, PARTIES, CheckReport, Disposition, PairLedger, Phase
from .ledger import Transcript, code_string, gather
from .quantum import BASES, BELL_LABELS, CODES, KEYS, OPS, PAIR_BASIS, BellState, measure_column
# Unused here; the benchmark's traced run (bench/workloads.py) wraps these bindings.
from .quantum import measure_bell_basis, measure_qubit  # noqa: F401
from .rng import RandomSource

# The pair-state codes as bytes, which deleting from a code sequence leaves empty.
_CODE_BYTES = bytes(BELL_LABELS)

# The first check's translate tables, indexed by ``b << 2 | x`` for the
# quarter b of a pair's basis draw, whose basis is BASES[b >> 1] (the draw's
# top bit), and a byte x in 0-3: for x a quarter, the keys of the
# receiver's and of the sender's measurements; for x a prepared code, 1 where
# the halves of that pair state differ in that basis. _LETTERS maps b to its
# basis letter.
_CHECK_CASES = [(BASES[b >> 1], x) for b in range(4) for x in range(4)]
_RECEIVER_KEYS = bytes(KEYS[OPS["second"][basis]][x] for basis, x in _CHECK_CASES).ljust(256)
_SENDER_KEYS = bytes(KEYS[OPS["first"][basis]][x] for basis, x in _CHECK_CASES).ljust(256)
_DIFFER = bytes(not BELL_LABELS[x].correlated_in(basis) for basis, x in _CHECK_CASES).ljust(256)
_LETTERS = b"zzxx".ljust(256)


def alice_prepare(n: int, rng: RandomSource, transcript: Transcript | None = None) -> PairLedger:
    """Prepare N pairs with uniformly random state choices (step 1)."""
    if n < 1:
        raise ConfigurationError(f"cannot prepare {n} pairs")
    # One 2-bit draw per pair, a uniform code 0-3 by construction, so the
    # codes skip prepare_from_labels' checks.
    return _prepare(rng.quarters(n), transcript)


def prepare_from_labels(
    labels: bytes | list[BellState | int], transcript: Transcript | None = None
) -> PairLedger:
    """Prepare pairs in the given states (labels or their codes), in order
    (re-encoding path).

    The ledger logs to ``transcript``, and nowhere when it is None.
    Anything but a pair state or an int code 0-3 (a bool is none) raises
    ConfigurationError.
    """
    # bytes() takes each list item through its __index__, rejecting a
    # non-integer or a negative value, but reads an int as a length and a
    # buffer (an array, say) as raw bytes, so anything but bytes (the relay's
    # key codes, taken as they are) is listed first; and it reads a bool as
    # 0 or 1, which is no label.
    try:
        items = labels if isinstance(labels, bytes) else list(labels)
        codes = bytes(items) if items is labels or bool not in map(type, items) else None
    except (TypeError, ValueError):
        codes = None
    if codes is None or codes.translate(None, _CODE_BYTES):  # a byte above 3 is left
        raise ConfigurationError("preparation labels must be pair states or their codes 0-3")
    if not codes:
        raise ConfigurationError("cannot prepare an empty pair sequence")
    return _prepare(codes, transcript)


def _prepare(codes: bytes, transcript: Transcript | None) -> PairLedger:
    """The ledger of pairs prepared in the states ``codes``, each 0-3."""
    if transcript is not None:
        payload = {"pairs": len(codes), "codes": code_string(codes)}
        transcript.log(1, transcript.sender, "prepare", payload)
    return PairLedger(codes, transcript)


def transmit_first_sequence(ledger: PairLedger, channel: AdversaryChannel) -> PairLedger:
    """Send every pair's second half through the channel (step 2).

    The receiver gets a particle, genuine or planted, for every pair the
    channel did not drop.
    """
    if ledger.phase is not Phase.CREATED:
        raise ProtocolOrderError(f"first transmission in phase {ledger.phase.name}")
    ledger.phase = Phase.SENT_1
    ledger.receipt_1 = _transmit(ledger, channel, 1, 2)
    return ledger


def _transmit(ledger: PairLedger, channel: AdversaryChannel, sequence: int, step: int) -> float:
    """Pass the live pairs' particles of ``sequence`` through the channel,
    log the send, the adversary's interference if any, and the receipt, and
    return the fraction received (1.0 when nothing was sent)."""
    sent = ledger.live
    interference = channel.interpose(sequence, ledger)
    received = ledger.live
    transcript = ledger.transcript
    if transcript is not None:
        transcript.log(step, transcript.sender, "send", {"sequence": sequence, "count": sent})
        if interference:
            transcript.log(step, "eve", "interpose", interference)
        receipt = {"sequence": sequence, "received": received, "expected": sent}
        transcript.log(step, transcript.receiver, "receive", receipt)
    return received / sent if sent else 1.0


def _draw_sample(
    ledger: PairLedger, fraction: float, min_size: int, rng: RandomSource
) -> bytearray:
    """A check's uniformly random sample of the live pairs, as a mask of a
    byte per live pair, 1 where the pair is sampled: a ``fraction`` of them,
    and at least ``min_size`` when that many exist."""
    m = ledger.live
    if not m:
        raise InsufficientPairsError("no pairs available to check")
    return rng.sample_mask(m, min(m, max(min_size, math.ceil(fraction * m))))


def first_check(ledger: PairLedger, config: RunConfig, rng: RandomSource) -> CheckReport:
    """Correlation test on a random subset of delivered pairs (steps 3-4),
    under the config's ``check_fraction_1``, ``threshold_1``,
    ``min_check_size`` and ``randomize_check_basis``.

    The receiver measures his particle of each sampled pair, announces the
    pair ordinals (and bases), the sender measures hers the same way, and
    both publish the bits. A pair mismatches when the observed
    equal/opposite relation contradicts the prepared state's. Sampled pairs
    are consumed and never reach the second transmission.

    With ``randomize_check_basis`` (an extension) the receiver draws Z or X
    per pair instead of always measuring Z; the honest correlation is
    deterministic either way.
    """
    if ledger.phase is not Phase.SENT_1:
        raise ProtocolOrderError(f"first check in phase {ledger.phase.name}")
    sample = _draw_sample(ledger, config.check_fraction_1, config.min_check_size, rng)

    # One block of draws: the receiver's k, then the sender's k; with random
    # bases, 2k alternating a pair's basis draw and its receiver draw, then
    # the sender's k. On the Z basis (basis quarter 0) a table's first four
    # bytes are its Z entries, so the quarters and codes index them directly.
    k = sample.count(1)
    if config.randomize_check_basis:
        drawn = rng.quarters(3 * k)
        basis_q, receiver_q, sender_q = drawn[0 : 2 * k : 2], drawn[1 : 2 * k : 2], drawn[2 * k :]
        basis_key = int.from_bytes(basis_q) << 2
        bases = basis_q.translate(_LETTERS).decode()

        def by_basis(column: bytes, table: bytes) -> bytes:
            return (basis_key | int.from_bytes(column)).to_bytes(k).translate(table)

    else:
        drawn = rng.quarters(2 * k)
        receiver_q, sender_q = drawn[:k], drawn[k:]
        bases = "z" * k
        by_basis = bytes.translate

    # The sampled pairs are consumed: no post state is written back, and
    # when the receiver measured the genuine pairs the sender measures
    # their post states. The sample's mask gathers its bytes from each
    # column, all before the settle cuts the columns.
    receiver_keys = by_basis(receiver_q, _RECEIVER_KEYS)
    receiver_bits, states = measure_column(gather(ledger.receiver_state, sample), receiver_keys)
    states = gather(ledger.column("state"), sample) if ledger.filled("planted") else states
    sender_bits, _ = measure_column(states, by_basis(sender_q, _SENDER_KEYS))
    prepared = gather(ledger.column("prepared"), sample)
    # Only a transcript reads the sample's ordinals, which the settle returns.
    indices = ledger.settle(sample, Disposition.CHECKED_1)
    # A pair mismatches when its bits differ where its prepared state's
    # halves agree, or agree where they differ: one bit per byte of the xor.
    differ = int.from_bytes(by_basis(prepared, _DIFFER))
    mismatches = (int.from_bytes(receiver_bits) ^ int.from_bytes(sender_bits) ^ differ).bit_count()
    report = CheckReport(k, mismatches, config.threshold_1)
    if (transcript := ledger.transcript) is not None:
        bits = receiver_bits.translate(DIGITS).decode()
        payload = {"indices": indices, "bases": bases, "bits": bits}
        transcript.log(3, transcript.receiver, "measure_check_sample", payload)
        payload = {"message": "sequence-1-received", "check_indices": indices}
        transcript.log(4, transcript.receiver, "notify", payload)
        payload = {"indices": indices, "bits": sender_bits.translate(DIGITS).decode()}
        transcript.log(4, transcript.sender, "measure_partner_sample", payload)
        transcript.log(4, "public", "check", {"check": "first", **report.to_dict()})
    ledger.check1 = report
    ledger.phase = Phase.CHECKED_1
    return report


def transmit_second_sequence(
    ledger: PairLedger, channel: AdversaryChannel, config: RunConfig
) -> PairLedger:
    """Send the surviving pairs' first halves through the channel (step 5).

    The receiver then holds every pair still in flight whole: the genuine
    pair, or the planted one where the adversary substituted it. Refuses
    to run after a failed first check unless the config's
    ``continuation_mode`` is set (a study mode that lets the doomed run be
    observed to the end).
    """
    if ledger.phase is not Phase.CHECKED_1:
        raise ProtocolOrderError(f"second transmission in phase {ledger.phase.name}")
    if ledger.check1 is not None and not ledger.check1.passed and not config.continuation_mode:
        raise ProtocolOrderError("second transmission after a failed first check")
    ledger.phase = Phase.SENT_2
    ledger.receipt_2 = _transmit(ledger, channel, 2, 5)
    return ledger


def bob_decode(ledger: PairLedger, rng: RandomSource) -> PairLedger:
    """Pair-state measurement of every surviving pair, in order (step 6)."""
    if ledger.phase is not Phase.SENT_2:
        raise ProtocolOrderError(f"decode in phase {ledger.phase.name}")
    keys = rng.quarters(ledger.live).translate(KEYS[PAIR_BASIS])
    # The decoded pairs are consumed: their post states are not kept.
    decoded, _ = measure_column(ledger.receiver_state, keys)
    ledger.fill("outcome", decoded, CODES)
    if (transcript := ledger.transcript) is not None:
        payload = {"pairs": len(decoded), "codes": code_string(decoded)}
        transcript.log(6, transcript.receiver, "decode", payload)
    ledger.phase = Phase.DECODED
    return ledger


def second_check(ledger: PairLedger, config: RunConfig, rng: RandomSource) -> CheckReport:
    """Compare a random subset of decode results against the preparation
    choices (step 7), under the config's ``check_fraction_2``,
    ``threshold_2`` and ``min_check_size``. Compared pairs are excluded
    from the key."""
    if ledger.phase is not Phase.DECODED:
        raise ProtocolOrderError(f"second check in phase {ledger.phase.name}")
    sample = _draw_sample(ledger, config.check_fraction_2, config.min_check_size, rng)
    # The xor of the two codes is a zero byte exactly where they match.
    outcomes = gather(ledger.column("outcome"), sample)
    prepared = gather(ledger.column("prepared"), sample)
    ledger.settle(sample, Disposition.CHECKED_2)
    xor = int.from_bytes(outcomes) ^ int.from_bytes(prepared)
    mismatches = len(outcomes) - xor.to_bytes(len(outcomes)).count(0)
    report = CheckReport(len(outcomes), mismatches, config.threshold_2)
    if ledger.transcript is not None:
        ledger.transcript.log(7, "public", "check", {"check": "second", **report.to_dict()})
    ledger.check2 = report
    ledger.phase = Phase.CHECKED_2
    return report


def extract_key(ledger: PairLedger) -> bytes:
    """Take the unchecked decode results as the receiver's raw key (step 7):
    the bytes of their pair codes, one 0-3 per key pair, in order."""
    if ledger.phase is not Phase.CHECKED_2:
        raise ProtocolOrderError(f"key extraction in phase {ledger.phase.name}")
    if not (ledger.check1 and ledger.check1.passed and ledger.check2 and ledger.check2.passed):
        raise ProtocolOrderError("key extraction after a failed check")
    key = ledger.column("outcome")
    ledger.settle(None, Disposition.KEY)
    ledger.phase = Phase.DONE
    if ledger.transcript is not None:
        ledger.transcript.log(7, "public", "commit", {"key_bits": 2 * len(key)})
    return key


def sender_key_material(ledger: PairLedger) -> bytes:
    """The sender's key of a completed hop: her preparation codes cut by
    every check of the hop (``PairLedger.cut``), so at its key pairs, one
    byte 0-3 per key pair."""
    return ledger.cut(ledger.prepared)


class ProtocolOutcome(NamedTuple):
    """Everything a single run produced, including the final ledger: the
    receiver's key when the run completed, the bytes of its pair codes
    (``extract_key``). The sender's key is her prepared codes at the same
    pairs, cut out by the ledger (``sender_key_material``)."""

    ledger: PairLedger
    abort_reason: str | None
    receiver_key: bytes | None

    @property
    def check1(self) -> CheckReport | None:
        return self.ledger.check1

    @property
    def check2(self) -> CheckReport | None:
        return self.ledger.check2


def run_protocol(
    config: RunConfig,
    rng: RandomSource,
    prepared_labels: bytes | list[BellState | int] | None = None,
    transcript: Transcript | None = None,
) -> ProtocolOutcome:
    """Execute steps 1-7 for one run, under ``config`` and against its
    ``config.attack``, and report what happened.

    Every failure mode is an abort with a reason, never an exception:
    a failed check, a transmission whose delivered fraction fell below
    1 - loss_tolerance, or no pairs left for a check or for the key
    (``insufficient_pairs``). With ``continuation_mode`` the run keeps
    going past a failed first check (for studying the attack's downstream
    statistics) but still aborts at the end with that reason and emits no
    key.

    The sender and the receiver draw from ``rng`` itself, the adversary
    from its ``eve`` substream. The run logs its events to ``transcript``,
    and records none when it is None; the draws are the same either way.
    The transcript's ``sender`` and ``receiver`` are the actors of the
    parties' events, alice and bob unless it names others.
    """
    channel = AdversaryChannel(config.attack, rng.substream("eve"))

    if prepared_labels is None:
        ledger = alice_prepare(config.pairs, rng, transcript)
    else:
        ledger = prepare_from_labels(prepared_labels, transcript)

    def abort(reason: str, step: int) -> ProtocolOutcome:
        # Whatever had no terminal fate yet is discarded, so that every pair
        # ends as checked, key, or dropped.
        if ledger.transcript is not None:
            ledger.transcript.log(step, "public", "abort", {"reason": reason})
        ledger.settle(None, Disposition.DROPPED)
        return ProtocolOutcome(ledger, reason, None)

    transmit_first_sequence(ledger, channel)
    if ledger.receipt_1 < 1.0 - config.loss_tolerance:
        return abort("stall_transmission_1", 2)
    try:
        check1 = first_check(ledger, config, rng)
    except InsufficientPairsError:
        return abort("insufficient_pairs", 3)
    failed = None if check1.passed else "check1_failed"
    if failed and not config.continuation_mode:
        return abort(failed, 4)

    transmit_second_sequence(ledger, channel, config)
    if ledger.receipt_2 < 1.0 - config.loss_tolerance:
        return abort(failed or "stall_transmission_2", 5)
    bob_decode(ledger, rng)
    try:
        check2 = second_check(ledger, config, rng)
    except InsufficientPairsError:
        return abort(failed or "insufficient_pairs", 7)
    if not check2.passed:
        return abort(failed or "check2_failed", 7)
    if failed or not ledger.live:  # no pair left for the key
        return abort(failed or "insufficient_pairs", 7)
    return ProtocolOutcome(ledger, None, extract_key(ledger))


class TrialOutcome(NamedTuple):
    """One trial: its index, the hops of the chain that ran, in order, and
    every party's key (sender first) when the last hop completed, each the
    bytes of its pair codes."""

    trial: int
    hops: list[ProtocolOutcome]
    abort_reason: str | None
    keys: list[bytes] | None

    @property
    def keys_agree(self) -> bool | None:
        if self.keys is None:
            return None
        return all(key == self.keys[0] for key in self.keys)


@lru_cache(maxsize=8)
def _unattacked(config: RunConfig) -> RunConfig:
    """``config`` with no attack, for a hop the adversary does not sit on:
    built once per config, not once per trial."""
    return config.replace(attack=AttackStrategy())


def run_multiparty(
    config: RunConfig, trial: int = 0, collect_transcripts: bool = False
) -> TrialOutcome:
    """Run trial ``trial`` of ``config``: distribute one common key along
    the chain alice -> bob (-> clare).

    Each hop runs the full protocol. A relay re-encodes his raw key (his
    decode results at the kept pairs) into fresh pairs, one per key code in
    order, and runs the next hop with them. The common key is whatever
    survives the last hop's checks: each party's key codes cut by the
    checks of every later hop, as that hop's ledger cuts its prepared
    codes (``PairLedger.cut``). In a three-party chain hop k draws from the
    ``hop<k>`` substream, tags its events ``{"hop": k}``, and a later hop's
    abort reason is prefixed ``hop<k>_``. With ``collect_transcripts`` each
    hop logs to its own ``Transcript``, its ``ledger.transcript``, which
    names the hop's sender and receiver, the k-th and (k+1)-th of
    ``ledger.PARTIES``; without it no hop records one. A hop the adversary
    does not sit on (see ``attack_hop``) runs under a copy of the config
    with no attack.

    Trial t draws from the stream ``RandomSource(config.seed,
    f"trial/{t}")``, named by both the root seed and the trial, so no two
    (seed, trial) pairs share a stream, and any trial can be reproduced
    alone.
    """
    rng = RandomSource(config.seed, f"trial/{trial}")
    names = PARTIES[: config.parties]
    chain = config.parties > 2
    hops: list[ProtocolOutcome] = []
    labels = None
    for k, (sender, receiver) in enumerate(zip(names, names[1:]), 1):
        tags = {"hop": k} if chain else None
        transcript = Transcript(trial, tags, sender, receiver) if collect_transcripts else None
        hop = run_protocol(
            config if config.attacks_hop(k) else _unattacked(config),
            rng.substream(f"hop{k}") if chain else rng,
            prepared_labels=labels,
            transcript=transcript,
        )
        hops.append(hop)
        if hop.abort_reason is not None:
            reason = hop.abort_reason if k == 1 else f"hop{k}_{hop.abort_reason}"
            return TrialOutcome(trial, hops, reason, None)
        # The relay prepares the next hop's pairs in the states his key's codes name.
        labels = hop.receiver_key

    # Each key once: the first hop's two; then at each later hop every key
    # so far cut by its checks (the relay's becomes his prepared codes at
    # its key pairs), and its receiver's.
    keys = [sender_key_material(hops[0].ledger), hops[0].receiver_key]
    for hop in hops[1:]:
        keys = [hop.ledger.cut(key) for key in keys]
        keys.append(hop.receiver_key)
    return TrialOutcome(trial, hops, None, keys)
