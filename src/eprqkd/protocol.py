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
k follow. A block split at any point makes the same draws as the two blocks
either side of the split, so these layouts are the draws the check once
made block by block.

``run_protocol`` is one such run, a hop. ``run_multiparty`` runs a trial
as a chain of hops, alice -> bob for two parties and on to clare for
three, where the relay re-encodes his raw key into the next hop's pairs.
It is the one entry point of a trial: ``run_multiparty(config, t)``
derives trial t's streams and runs it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .adversary import AdversaryChannel, AttackStrategy
from .config import RunConfig
from .errors import ConfigurationError, InsufficientPairsError, ProtocolOrderError
from .ledger import DIGITS, CheckReport, Disposition, KeyMaterial, PairLedger, Phase, Transcript
from .ledger import code_string, gather
from .quantum import BELL_LABELS, KEYS, OPS, PAIR_BASIS, BellState, measure_column
# Unused here; the benchmark's traced run (bench/workloads.py) wraps these bindings.
from .quantum import measure_bell_basis, measure_qubit  # noqa: F401
from .rng import RandomSource

_BASES = ("z", "x")
# The pair-state codes as bytes, which deleting from a code sequence leaves empty.
_CODE_BYTES = bytes(BELL_LABELS)

# The first check's translate tables, indexed by ``b << 2 | x`` for the
# quarter b of a pair's basis draw, whose basis is _BASES[b >> 1] (int(r * 2)
# of the draw), and a byte x in 0-3: for x a quarter, the keys of the
# receiver's and of the sender's measurements; for x a prepared code, 1 where
# the halves of that pair state differ in that basis. _LETTERS maps b to its
# basis letter.
_CHECK_CASES = [(_BASES[b >> 1], x) for b in range(4) for x in range(4)]
_RECEIVER_KEYS = bytes(KEYS[OPS["second"][basis]][x] for basis, x in _CHECK_CASES).ljust(256)
_SENDER_KEYS = bytes(KEYS[OPS["first"][basis]][x] for basis, x in _CHECK_CASES).ljust(256)
_DIFFER = bytes(not BELL_LABELS[x].correlated_in(basis) for basis, x in _CHECK_CASES).ljust(256)
_LETTERS = b"zzxx".ljust(256)


def alice_prepare(
    n: int,
    rng: RandomSource,
    sender: str = "alice",
    receiver: str = "bob",
    transcript: Transcript | None = None,
) -> PairLedger:
    """Prepare N pairs with uniformly random state choices (step 1)."""
    if n < 1:
        raise ConfigurationError(f"cannot prepare {n} pairs")
    # rng.uniform_index(4) per pair, which is int(r * 4) of one draw: codes
    # 0-3 by construction, so they skip prepare_from_labels' checks.
    return _prepare(rng.quarters(n), sender, receiver, transcript)


def prepare_from_labels(
    labels: bytes | list[BellState | int],
    sender: str = "alice",
    receiver: str = "bob",
    transcript: Transcript | None = None,
) -> PairLedger:
    """Prepare pairs in the given states (labels or their codes), in order
    (re-encoding path).

    The ledger logs to ``transcript``, and nowhere when it is None.
    Anything but a pair state or a code 0-3 raises ConfigurationError.
    """
    # bytes() takes each list item through its __index__, rejecting a
    # non-integer or a negative value, but reads an int as a length and a
    # buffer (an array, say) as raw bytes, so anything else is listed first.
    try:
        codes = bytes(labels if isinstance(labels, (bytes, list)) else list(labels))
    except (TypeError, ValueError):
        codes = None
    if codes is None or codes.translate(None, _CODE_BYTES):  # a byte above 3 is left
        raise ConfigurationError("preparation labels must be pair states or their codes 0-3")
    if not codes:
        raise ConfigurationError("cannot prepare an empty pair sequence")
    return _prepare(codes, sender, receiver, transcript)


def _prepare(
    codes: bytes, sender: str, receiver: str, transcript: Transcript | None
) -> PairLedger:
    """The ledger of pairs prepared in the states ``codes``, each 0-3."""
    ledger = PairLedger(codes, sender=sender, receiver=receiver, transcript=transcript)
    if transcript is not None:
        transcript.log(
            1,
            sender,
            "prepare",
            {"pairs": len(codes), "codes": code_string(codes)},
        )
    return ledger


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
    sent = len(ledger.live)
    interference = channel.interpose(sequence, ledger)
    received = len(ledger.live)
    transcript = ledger.transcript
    if transcript is not None:
        transcript.log(step, ledger.sender, "send", {"sequence": sequence, "count": sent})
        if interference:
            transcript.log(step, "eve", "interpose", interference)
        receipt = {"sequence": sequence, "received": received, "expected": sent}
        transcript.log(step, ledger.receiver, "receive", receipt)
    return received / sent if sent else 1.0


def _draw_sample(
    candidates: list[int], fraction: float, min_size: int, rng: RandomSource
) -> list[int]:
    """A check's random sample of pair indices, in pair order: a ``fraction``
    of the candidates, and at least ``min_size`` of them when that many
    exist."""
    if not candidates:
        raise InsufficientPairsError("no pairs available to check")
    size = min(len(candidates), max(min_size, math.ceil(fraction * len(candidates))))
    return sorted(rng.sample_without_replacement(candidates, size))


def _publish_check(
    ledger: PairLedger,
    report: CheckReport,
    sample: list[int],
    disposition: Disposition,
    step: int,
) -> CheckReport:
    """Consume the sampled pairs and publish the check's summary."""
    ledger.settle(sample, disposition)
    if ledger.transcript is not None:
        ledger.transcript.log(
            step, "public", "check", {"check": report.check_id, **report.to_dict()}
        )
    return report


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
    sample = _draw_sample(ledger.live, config.check_fraction_1, config.min_check_size, rng)

    # One block of draws: the receiver's k, then the sender's k; with random
    # bases, 2k alternating a pair's basis draw and its receiver draw, then
    # the sender's k. On the Z basis (basis quarter 0) a table's first four
    # bytes are its Z entries, so the quarters and codes index them directly.
    k = len(sample)
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
    # their post states.
    receiver_keys = by_basis(receiver_q, _RECEIVER_KEYS)
    receiver_bits, states = measure_column(gather(ledger.receiver_state, sample), receiver_keys)
    states = gather(ledger.state, sample) if ledger.planted else states
    sender_bits, _ = measure_column(states, by_basis(sender_q, _SENDER_KEYS))
    # A pair mismatches when its bits differ where its prepared state's
    # halves agree, or agree where they differ: one bit per byte of the xor.
    differ = int.from_bytes(by_basis(gather(ledger.prepared, sample), _DIFFER))
    mismatches = (int.from_bytes(receiver_bits) ^ int.from_bytes(sender_bits) ^ differ).bit_count()
    transcript = ledger.transcript
    if transcript is not None:
        bits = receiver_bits.translate(DIGITS).decode()
        payload = {"indices": sample, "bases": bases, "bits": bits}
        transcript.log(3, ledger.receiver, "measure_check_sample", payload)
        payload = {"message": "sequence-1-received", "check_indices": sample}
        transcript.log(4, ledger.receiver, "notify", payload)
        payload = {"indices": sample, "bits": sender_bits.translate(DIGITS).decode()}
        transcript.log(4, ledger.sender, "measure_partner_sample", payload)

    report = CheckReport("first", tuple(sample), mismatches, config.threshold_1, bases)
    ledger.check1 = report
    ledger.phase = Phase.CHECKED_1
    return _publish_check(ledger, report, sample, Disposition.CHECKED_1, 4)


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
    live = ledger.live
    keys = rng.quarters(len(live)).translate(KEYS[PAIR_BASIS])
    # The decoded pairs are consumed: their post states are not kept.
    decoded, _ = measure_column(gather(ledger.receiver_state, live), keys)
    ledger.outcome = ledger.spread(decoded)
    if ledger.transcript is not None:
        payload = {"pairs": len(live), "codes": code_string(decoded)}
        ledger.transcript.log(6, ledger.receiver, "decode", payload)
    ledger.phase = Phase.DECODED
    return ledger


def second_check(ledger: PairLedger, config: RunConfig, rng: RandomSource) -> CheckReport:
    """Compare a random subset of decode results against the preparation
    choices (step 7), under the config's ``check_fraction_2``,
    ``threshold_2`` and ``min_check_size``. Compared pairs are excluded
    from the key."""
    if ledger.phase is not Phase.DECODED:
        raise ProtocolOrderError(f"second check in phase {ledger.phase.name}")
    sample = _draw_sample(ledger.live, config.check_fraction_2, config.min_check_size, rng)
    # The xor of the two codes is a zero byte exactly where they match.
    outcomes, codes = gather(ledger.outcome, sample), gather(ledger.prepared, sample)
    xor = int.from_bytes(outcomes) ^ int.from_bytes(codes)
    mismatches = len(sample) - xor.to_bytes(len(sample)).count(0)
    report = CheckReport("second", tuple(sample), mismatches, config.threshold_2)
    ledger.check2 = report
    ledger.phase = Phase.CHECKED_2
    return _publish_check(ledger, report, sample, Disposition.CHECKED_2, 7)


def extract_key(ledger: PairLedger) -> KeyMaterial:
    """Take the unchecked decode results as the receiver's raw key (step 7)."""
    if ledger.phase is not Phase.CHECKED_2:
        raise ProtocolOrderError(f"key extraction in phase {ledger.phase.name}")
    if not (ledger.check1 and ledger.check1.passed and ledger.check2 and ledger.check2.passed):
        raise ProtocolOrderError("key extraction after a failed check")
    kept = ledger.live
    key = KeyMaterial(code_string(gather(ledger.outcome, kept)), tuple(kept))
    ledger.settle(kept, Disposition.KEY)
    ledger.phase = Phase.DONE
    if ledger.transcript is not None:
        ledger.transcript.log(7, "public", "commit", {"key_bits": len(key.bits)})
    return key


def sender_key_material(ledger: PairLedger, source_indices) -> KeyMaterial:
    """The sender's key: her preparation codes at the kept pair ordinals."""
    codes = gather(ledger.prepared, source_indices)
    return KeyMaterial(code_string(codes), tuple(source_indices))


@dataclass
class ProtocolOutcome:
    """Everything a single run produced, including the final ledger."""

    ledger: PairLedger
    abort_reason: str | None
    receiver_key: KeyMaterial | None
    sender_key: KeyMaterial | None

    @property
    def check1(self) -> CheckReport | None:
        return self.ledger.check1

    @property
    def check2(self) -> CheckReport | None:
        return self.ledger.check2

    @property
    def completed(self) -> bool:
        return self.abort_reason is None

    @property
    def keys_agree(self) -> bool | None:
        if self.receiver_key is None or self.sender_key is None:
            return None
        return self.receiver_key.bits == self.sender_key.bits


def run_protocol(
    config: RunConfig,
    rng: RandomSource,
    sender: str = "alice",
    receiver: str = "bob",
    prepared_labels: list[BellState | int] | None = None,
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

    The run logs its events to ``transcript``, and records none when it is
    None; the draws are the same either way.
    """
    sender_rng = rng.substream(sender)
    receiver_rng = rng.substream(receiver)
    channel = AdversaryChannel(config.attack, rng.substream("eve"))

    if prepared_labels is None:
        ledger = alice_prepare(config.pairs, sender_rng, sender, receiver, transcript)
    else:
        ledger = prepare_from_labels(prepared_labels, sender, receiver, transcript)

    def abort(reason: str, step: int) -> ProtocolOutcome:
        # Whatever had no terminal fate yet is discarded, so that every pair
        # ends as checked, key, or dropped.
        if ledger.transcript is not None:
            ledger.transcript.log(step, "public", "abort", {"reason": reason})
        ledger.settle(ledger.live, Disposition.DROPPED)
        return ProtocolOutcome(ledger, reason, None, None)

    transmit_first_sequence(ledger, channel)
    if ledger.receipt_1 < 1.0 - config.loss_tolerance:
        return abort("stall_transmission_1", 2)
    try:
        check1 = first_check(ledger, config, receiver_rng)
    except InsufficientPairsError:
        return abort("insufficient_pairs", 3)
    failed = None if check1.passed else "check1_failed"
    if failed and not config.continuation_mode:
        return abort(failed, 4)

    transmit_second_sequence(ledger, channel, config)
    if ledger.receipt_2 < 1.0 - config.loss_tolerance:
        return abort(failed or "stall_transmission_2", 5)
    bob_decode(ledger, receiver_rng)
    try:
        check2 = second_check(ledger, config, receiver_rng)
    except InsufficientPairsError:
        return abort(failed or "insufficient_pairs", 7)
    if not check2.passed:
        return abort(failed or "check2_failed", 7)
    if failed or not ledger.live:  # no pair left for the key
        return abort(failed or "insufficient_pairs", 7)
    receiver_key = extract_key(ledger)
    sender_key = sender_key_material(ledger, receiver_key.source_indices)
    return ProtocolOutcome(ledger, None, receiver_key, sender_key)


@dataclass
class TrialOutcome:
    """One trial: its index, the hops of the chain that ran, in order, and
    every party's key (sender first) when the last hop completed."""

    trial: int
    hops: list[ProtocolOutcome]
    abort_reason: str | None
    keys: list[KeyMaterial] | None

    @property
    def completed(self) -> bool:
        return self.abort_reason is None

    @property
    def keys_agree(self) -> bool | None:
        if self.keys is None:
            return None
        return all(key.bits == self.keys[0].bits for key in self.keys)


def run_multiparty(
    config: RunConfig, trial: int = 0, collect_transcripts: bool = False
) -> TrialOutcome:
    """Run trial ``trial`` of ``config``: distribute one common key along
    the chain alice -> bob (-> clare).

    Each hop runs the full protocol. A relay re-encodes his raw key (his
    decode results at the kept pairs) into fresh pairs and runs the next
    hop with it. The common key is whatever survives the last hop's checks,
    identified across parties by first-hop pair ordinals announced on the
    classical channel. In a three-party chain hop k draws from the
    ``hop<k>`` substream, tags its events ``{"hop": k}``, and a later hop's
    abort reason is prefixed ``hop<k>_``. With ``collect_transcripts`` each
    hop logs to its own ``Transcript(trial)``, its ``ledger.transcript``;
    without it no hop records one. A hop the adversary does not sit on (see
    ``attack_hop``) runs under a copy of the config with no attack.

    Trial t draws from the root seed XOR t. Within one batch the trials are
    independent and any trial can be reproduced alone, but the streams
    collide across root seeds: seed 0's trial 1 is seed 1's trial 0, and in
    general (seed a, trial t) equals (seed b, trial u) whenever
    a ^ t == b ^ u. Report schema 2 is to seed each trial from its own
    named substream instead; that changes every draw, so it waits for the
    schema bump.
    """
    rng = RandomSource(config.seed ^ trial)
    names = ("alice", "bob", "clare")[: config.parties]
    chain = config.parties > 2
    hops: list[ProtocolOutcome] = []
    labels = positions = None
    for k, (sender, receiver) in enumerate(zip(names, names[1:]), 1):
        tags = {"hop": k} if chain else None
        transcript = Transcript(trial, tags) if collect_transcripts else None
        hop = run_protocol(
            config if config.attacks_hop(k) else replace(config, attack=AttackStrategy()),
            rng.substream(f"hop{k}") if chain else rng,
            sender=sender,
            receiver=receiver,
            prepared_labels=labels,
            transcript=transcript,
        )
        hops.append(hop)
        if not hop.completed:
            reason = hop.abort_reason if k == 1 else f"hop{k}_{hop.abort_reason}"
            return TrialOutcome(trial, hops, reason, None)
        kept = hop.receiver_key.source_indices
        labels = gather(hop.ledger.outcome, kept)
        # The kept ordinals, mapped back to first-hop pairs.
        positions = kept if positions is None else tuple(positions[j] for j in kept)

    keys = [sender_key_material(hops[0].ledger, positions)]
    keys += [KeyMaterial(hop.sender_key.bits, positions) for hop in hops[1:]]
    keys.append(KeyMaterial(hops[-1].receiver_key.bits, positions))
    return TrialOutcome(trial, hops, None, keys)
