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
ProtocolOrderError when called early or late. No step logs an event: a run
records a transcript exactly when its caller hands one in (or, through
``runner.run`` and ``run_multiparty``, asks with
``collect_transcripts=True``), and ``run_protocol`` then renders each hop's
public events into it from the hop's ledger once the hop ended
(``ledger.render_transcript``), so recording makes no draw. A step
that depends on a setting (a check's fraction, threshold and minimum size,
the check basis, continuation) reads it from the ``RunConfig`` it is
handed, the one place each setting is stated.

A step that draws per pair takes each trial's draws as one block of
``RandomSource.quarters_of``. The first check of k sampled pairs takes 2k:
the receiver's k, then the sender's k. With random check bases it takes
3k: its first 2k alternate a pair's basis draw and the receiver's draw for
that pair, and the sender's k follow. The sender and the receiver of a hop
draw from one stream, the sender's ``pairs`` quarters first; the adversary
draws from her own.

No step takes the parties' names: they matter only as the actors of
logged events, so a hop's ``Transcript`` carries them, and its sender's and
receiver's events are rendered by the transcript's ``sender`` and
``receiver``.

``run_protocol`` is one such run, a hop. ``run_multiparty`` runs a trial
as a chain of hops along ``ledger.PARTIES``, alice -> bob for two parties
and on to clare for three, where the relay re-encodes his raw key into the
next hop's pairs. It is the one entry point of a trial:
``run_multiparty(config, t)`` derives trial t's streams and runs it.

Every step has one calling convention: it takes a batch of trials
(``ledger.Batch``) and a list of their streams, one per trial, in order.
Each trial makes its own draws from its own stream, in the order above,
and the byte work after the draws (the measurements, gathers, check counts
and settle cuts) runs once over the batch's joined columns. The two
preparations and the transmissions and the decode return the batch; the
checks and ``extract_key`` return a list with one item per trial. A lone
trial is a batch of one. ``run_protocol`` and ``run_multiparty`` also take
a lone trial, which they run as a batch of one; ``run_multiparty`` of a
range of trials runs them as one batch, and a trial that aborts leaves
its batch.
"""
from __future__ import annotations

import math
from itertools import compress
from typing import NamedTuple

from .adversary import AdversaryChannel, AttackStrategy
from .config import RunConfig
from .errors import ConfigurationError, InsufficientPairsError, ProtocolOrderError
from .ledger import PARTIES, Batch, CheckReport, Disposition, PairLedger, Phase, Transcript
from .ledger import gather, parts, render_transcript, stack
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
# the halves of that pair state differ in that basis.
_CHECK_CASES = [(BASES[b >> 1], x) for b in range(4) for x in range(4)]
_RECEIVER_KEYS = bytes(KEYS[OPS["second"][basis]][x] for basis, x in _CHECK_CASES).ljust(256)
_SENDER_KEYS = bytes(KEYS[OPS["first"][basis]][x] for basis, x in _CHECK_CASES).ljust(256)
_DIFFER = bytes(not BELL_LABELS[x].correlated_in(basis) for basis, x in _CHECK_CASES).ljust(256)
# The first check's stacked sample splits into its receiver's state codes, the
# low five bits, and its prepared codes, the two bits above them.
_LOW_STATE = bytes(c & 31 for c in range(256))
_HIGH_CODE = bytes(c >> 5 & 3 for c in range(256))


def alice_prepare(n: int, rngs: list[RandomSource]) -> Batch:
    """Prepare N pairs with uniformly random state choices (step 1) for
    each stream of ``rngs``, a batch of one trial per stream."""
    if n < 1:
        raise ConfigurationError(f"cannot prepare {n} pairs")
    # One 2-bit draw per pair, a uniform code 0-3 by construction, so the
    # codes skip prepare_from_labels' checks.
    sizes = [n] * len(rngs)
    return _prepare(parts(RandomSource.quarters_of(rngs, sizes), sizes))


def prepare_from_labels(labels: list) -> Batch:
    """Prepare a batch of one trial per item of ``labels``, each a sequence
    of pair states (labels or their codes), in order (re-encoding path).

    An item that is bytes (a relay's key codes) is taken as it is; any other
    is listed, and refused if it holds a bool, which is no label. Anything
    but a pair state or an int code 0-3 raises ConfigurationError, and so
    does an empty sequence.
    """
    # bytes() takes each listed item through its __index__, rejecting a
    # non-integer or a negative value, but reads an int as a length and a
    # buffer (an array, say) as raw bytes, so the sequence is listed first.
    # A refused item is None, which fails the join.
    items = []
    try:
        for item in labels:
            if type(item) is not bytes:
                item = list(item)
                item = None if bool in map(type, item) else bytes(item)
            items.append(item)
        codes = b"".join(items)
    except (TypeError, ValueError):
        codes = None
    if codes is None or codes.translate(None, _CODE_BYTES):  # a byte above 3 is left
        raise ConfigurationError("preparation labels must be pair states or their codes 0-3")
    if not all(items):
        raise ConfigurationError("cannot prepare an empty pair sequence")
    return _prepare(items)


def _prepare(codes: list[bytes]) -> Batch:
    """The batch of one ledger per trial, prepared in that trial's item of
    ``codes``, each code 0-3. A batch of no trial raises
    ConfigurationError."""
    if not codes:
        raise ConfigurationError("cannot prepare a batch of no trials")
    return Batch(list(map(PairLedger, codes)))


def transmit_first_sequence(batch: Batch, channel: AdversaryChannel) -> Batch:
    """Send every pair's second half through the channel (step 2).

    The receiver gets a particle, genuine or planted, for every pair the
    channel did not drop.
    """
    if batch.phase is not Phase.CREATED:
        raise ProtocolOrderError(f"first transmission in phase {batch.phase.name}")
    batch.phase = Phase.SENT_1
    _transmit(batch, channel, 1)
    return batch


def _transmit(batch: Batch, channel: AdversaryChannel, sequence: int):
    """Pass the live pairs' particles of ``sequence`` through the channel,
    and set each trial's ``receipt_<sequence>``, the fraction received (1.0
    when nothing was sent), from its sent and received counts, which a
    transcribed trial keeps in its ``transmitted``."""
    sent, transcribed = batch.sizes, batch.transcribed
    channel.interpose(sequence, batch)
    slot = f"receipt_{sequence}"
    for trial, count, got in zip(batch.ledgers, sent, batch.sizes):
        setattr(trial, slot, got / count if count else 1.0)
        if transcribed:
            trial.transmitted += ((count, got),)


def _draw_sample(
    batch: Batch, fraction: float, min_size: int, rngs: list[RandomSource]
) -> tuple[bytes, list[int]]:
    """A check's uniformly random sample of each trial's live pairs, as a
    mask of a byte per live pair, 1 where the pair is sampled: a
    ``fraction`` of them, and at least ``min_size`` when that many exist;
    and each trial's sample size."""
    masks, sizes = [], []
    for m, rng in zip(batch.sizes, rngs, strict=True):
        if not m:
            raise InsufficientPairsError("no pairs available to check")
        k = min(m, max(min_size, math.ceil(fraction * m)))
        masks.append(rng.sample_mask(m, k))
        sizes.append(k)
    return b"".join(masks), sizes


def _reports(
    batch: Batch, differs: bytes, sizes: list[int], threshold: float, slot: str
) -> list[CheckReport]:
    """Each trial's report of a check that sampled its ``sizes`` pairs, whose
    mismatches are the 1 bytes of its part of ``differs``, set as the
    trial's ``slot`` (``check1`` or ``check2``)."""
    reports, start = [], 0
    for trial, n in zip(batch.ledgers, sizes):
        report = CheckReport(n, differs.count(1, start, start + n), threshold)
        setattr(trial, slot, report)
        reports.append(report)
        start += n
    return reports


def first_check(batch: Batch, config: RunConfig, rngs: list[RandomSource]) -> list[CheckReport]:
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
    if batch.phase is not Phase.SENT_1:
        raise ProtocolOrderError(f"first check in phase {batch.phase.name}")
    sample, sizes = _draw_sample(batch, config.check_fraction_1, config.min_check_size, rngs)

    # One block of draws per trial: the receiver's k, then the sender's k;
    # with random bases, 2k alternating a pair's basis draw and its receiver
    # draw, then the sender's k. On the Z basis (basis quarter 0) a table's
    # first four bytes are its Z entries, so the quarters and codes index
    # them directly.
    k = sum(sizes)
    per_pair = 3 if config.randomize_check_basis else 2
    drawn = RandomSource.quarters_of(rngs, [per_pair * n for n in sizes])
    basis, receiver, sender, start = [], [], [], 0
    for n in sizes:
        if per_pair == 3:
            basis.append(drawn[start : start + 2 * n : 2])
            receiver.append(drawn[start + 1 : start + 2 * n : 2])
        else:
            receiver.append(drawn[start : start + n])
        start += per_pair * n
        sender.append(drawn[start - n : start])
    receiver_q, sender_q = b"".join(receiver), b"".join(sender)
    if basis:
        basis_key = int.from_bytes(b"".join(basis)) << 2

        def by_basis(column: bytes, table: bytes | None) -> bytes:
            return (basis_key | int.from_bytes(column)).to_bytes(k).translate(table)

    else:
        by_basis = bytes.translate

    # The sampled pairs are consumed: no post state is written back, and
    # when the receiver measured the genuine pairs the sender measures
    # their post states. The sample's mask gathers its bytes from each
    # column, all before the settle cuts the columns: the receiver's states
    # (below 32) and the prepared codes in one, stacked as one byte.
    sampled = gather(stack(batch.column("prepared"), batch.receiver_state, 5), sample)
    prepared = sampled.translate(_HIGH_CODE)
    receiver_keys = by_basis(receiver_q, _RECEIVER_KEYS)
    receiver_bits, states = measure_column(sampled.translate(_LOW_STATE), receiver_keys)
    states = gather(batch.column("state"), sample) if batch.filled("planted") else states
    sender_bits, _ = measure_column(states, by_basis(sender_q, _SENDER_KEYS))
    batch.settle(sample, Disposition.CHECKED_1)
    # A pair mismatches when its bits differ where its prepared state's
    # halves agree, or agree where they differ: a 1 byte of the xor.
    differ = int.from_bytes(by_basis(prepared, _DIFFER))
    xor = int.from_bytes(receiver_bits) ^ int.from_bytes(sender_bits) ^ differ
    reports = _reports(batch, xor.to_bytes(k), sizes, config.threshold_1, "check1")
    if batch.transcribed:
        # What the check published, a byte per sampled pair: the basis draw
        # (by_basis with no table) over the receiver's bit over the sender's.
        published = by_basis(stack(receiver_bits, sender_bits, 1), None)
        for trial, part in zip(batch.ledgers, parts(published, sizes)):
            trial.published = part
    batch.phase = Phase.CHECKED_1
    return reports


def transmit_second_sequence(batch: Batch, channel: AdversaryChannel, config: RunConfig) -> Batch:
    """Send the surviving pairs' first halves through the channel (step 5).

    The receiver then holds every pair still in flight whole: the genuine
    pair, or the planted one where the adversary substituted it. Refuses
    to run after a failed first check unless the config's
    ``continuation_mode`` is set (a study mode that lets the doomed run be
    observed to the end).
    """
    if batch.phase is not Phase.CHECKED_1:
        raise ProtocolOrderError(f"second transmission in phase {batch.phase.name}")
    if not config.continuation_mode:
        for trial in batch.ledgers:
            if trial.check1 is not None and not trial.check1.passed:
                raise ProtocolOrderError("second transmission after a failed first check")
    batch.phase = Phase.SENT_2
    _transmit(batch, channel, 2)
    return batch


def bob_decode(batch: Batch, rngs: list[RandomSource]) -> Batch:
    """Pair-state measurement of every surviving pair, in order (step 6)."""
    if batch.phase is not Phase.SENT_2:
        raise ProtocolOrderError(f"decode in phase {batch.phase.name}")
    keys = RandomSource.quarters_of(rngs, batch.sizes).translate(KEYS[PAIR_BASIS])
    # The decoded pairs are consumed: their post states are not kept.
    decoded, _ = measure_column(batch.receiver_state, keys)
    batch.fill("outcome", decoded, CODES)
    batch.phase = Phase.DECODED
    return batch


def second_check(batch: Batch, config: RunConfig, rngs: list[RandomSource]) -> list[CheckReport]:
    """Compare a random subset of decode results against the preparation
    choices (step 7), under the config's ``check_fraction_2``,
    ``threshold_2`` and ``min_check_size``. Compared pairs are excluded
    from the key."""
    if batch.phase is not Phase.DECODED:
        raise ProtocolOrderError(f"second check in phase {batch.phase.name}")
    sample, sizes = _draw_sample(batch, config.check_fraction_2, config.min_check_size, rngs)
    # The prepared codes stacked over the outcomes, gathered as one column:
    # the translate makes a byte 1 where its two codes differ, else 0.
    sampled = gather(stack(batch.column("prepared"), batch.column("outcome"), 2), sample)
    batch.settle(sample, Disposition.CHECKED_2)
    reports = _reports(batch, sampled.translate(_DIFFERENT), sizes, config.threshold_2, "check2")
    batch.phase = Phase.CHECKED_2
    return reports


# A translate table from a byte c << 2 | o of two codes to 1 where they
# differ, else 0.
_DIFFERENT = bytes(b >> 2 != b & 3 for b in range(256))


def extract_key(batch: Batch) -> list[bytes]:
    """Take each trial's unchecked decode results as its receiver's raw key
    (step 7): the bytes of their pair codes, one 0-3 per key pair, in
    order."""
    if batch.phase is not Phase.CHECKED_2:
        raise ProtocolOrderError(f"key extraction in phase {batch.phase.name}")
    for trial in batch.ledgers:
        if not (trial.check1 and trial.check1.passed and trial.check2 and trial.check2.passed):
            raise ProtocolOrderError("key extraction after a failed check")
    keys = parts(batch.column("outcome"), batch.sizes)
    batch.settle(None, Disposition.KEY)
    batch.phase = Phase.DONE
    return keys


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
    from its ``eve`` substream. Once the run ended its events are rendered
    into ``transcript`` (``ledger.render_transcript``), which becomes the
    ledger's ``transcript``; it records none when ``transcript`` is None,
    and the draws are the same either way. The transcript's ``sender`` and
    ``receiver`` are the actors of the parties' events, alice and bob
    unless it names others.

    Handed a list of streams, it runs a batch, one trial per stream, with
    ``prepared_labels`` a list of each trial's labels (or None) and
    ``transcript`` a list of transcripts (or None), and returns the list of
    their outcomes, in order. A trial that aborts leaves the batch.
    """
    if not isinstance(rng, list):
        labels = None if prepared_labels is None else [prepared_labels]
        return run_protocol(config, [rng], labels, transcript and [transcript])[0]
    if prepared_labels is None:
        batch = alice_prepare(config.pairs, rng)
    else:
        batch = prepare_from_labels(prepared_labels)
    batch.transcribed = transcript is not None
    outcomes: list = [None] * len(rng)
    lanes_ = list(range(len(rng)))  # each trial of the batch, by its place in rng
    channel = AdversaryChannel(config.attack, [stream.substream("eve") for stream in rng])

    def go_on(step: int) -> bool:
        """End each trial of the batch that ``_ending`` ends at ``step``,
        which then leaves the batch with its streams; True while a trial is
        left. Whatever had no terminal fate yet is discarded, so that every
        pair ends as checked, key, or dropped."""
        nonlocal lanes_, rng
        ends = [_ending(trial, step, floor) for trial in batch.ledgers]
        if not any(ends):
            return True
        for lane, ledger, reason in zip(lanes_, batch.ledgers, ends):
            if reason is not None:
                ledger.abort_step = step
                ledger.settle(None, Disposition.DROPPED)
                outcomes[lane] = ProtocolOutcome(ledger, reason, None)
        kept = [reason is None for reason in ends]
        lanes_, rng, channel.rngs = (list(compress(x, kept)) for x in (lanes_, rng, channel.rngs))
        if lanes_:
            batch.keep(kept)
        return bool(lanes_)

    floor = 1.0 - config.loss_tolerance
    transmit_first_sequence(batch, channel)
    going = go_on(2) and go_on(3)
    if going:
        first_check(batch, config, rng)
        going = config.continuation_mode or go_on(4)
    if going:
        transmit_second_sequence(batch, channel, config)
        going = go_on(5)
    if going:
        bob_decode(batch, rng)
        going = go_on(7)
    if going:
        second_check(batch, config, rng)
        going = go_on(7)
    if going:
        for lane, trial, key in zip(lanes_, batch.ledgers, extract_key(batch)):
            outcomes[lane] = ProtocolOutcome(trial, None, key)
    for outcome, log in zip(outcomes, transcript or ()):
        render_transcript(outcome.ledger, log, config.attack, outcome.abort_reason)
    return outcomes


def _ending(ledger: PairLedger, step: int, floor: float) -> str | None:
    """Why a trial ends at ``step``, or None when it goes on: a transmission
    that delivered less than ``floor`` (steps 2 and 5), no live pair left
    for a check (3, and 7 before the second check) or for the key (7 after
    it), or a failed check (4 and 7). With ``continuation_mode`` a trial
    goes on past a failed first check, which is then the reason it ends
    with."""
    live = ledger.live
    failed = None if ledger.check1 is None or ledger.check1.passed else "check1_failed"
    if step == 2:
        return None if ledger.receipt_1 >= floor else "stall_transmission_1"
    if step == 3:
        return None if live else "insufficient_pairs"
    if step == 4:
        return failed
    if step == 5:
        return None if ledger.receipt_2 >= floor else failed or "stall_transmission_2"
    if ledger.check2 is None:
        return None if live else failed or "insufficient_pairs"
    if ledger.check2.passed:
        return failed or (None if live else "insufficient_pairs")
    return failed or "check2_failed"


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
    hop is rendered into its own ``Transcript``, its ``ledger.transcript``,
    which names the hop's sender and receiver, the k-th and (k+1)-th of
    ``ledger.PARTIES``; without it no hop records one. A hop the adversary
    does not sit on (see ``attack_hop``) runs under a copy of the config
    with no attack.

    Trial t draws from the stream ``RandomSource(config.seed,
    f"trial/{t}")``, named by both the root seed and the trial, so no two
    (seed, trial) pairs share a stream, and any trial can be reproduced
    alone.

    Handed a range of trials, it runs them as one batch and returns the
    list of their outcomes, in order; each is what that trial gives alone,
    its transcripts included.
    """
    if not isinstance(trial, range):
        return run_multiparty(config, range(trial, trial + 1), collect_transcripts)[0]
    trials = trial
    rngs = [RandomSource(config.seed, f"trial/{t}") for t in trials]
    names = PARTIES[: config.parties]
    chain = config.parties > 2
    hops: list[list[ProtocolOutcome]] = [[] for _ in trials]
    results: list = [None] * len(trials)
    going, labels = list(range(len(trials))), None
    for k, (sender, receiver) in enumerate(zip(names, names[1:]), 1):
        tags = {"hop": k} if chain else None
        transcripts = None
        if collect_transcripts:
            transcripts = [Transcript(trials[i], tags, sender, receiver) for i in going]
        outcomes = run_protocol(
            config if config.attacks_hop(k) else config.replace(attack=AttackStrategy()),
            [rngs[i].substream(f"hop{k}") if chain else rngs[i] for i in going],
            prepared_labels=labels,
            transcript=transcripts,
        )
        # The relay prepares the next hop's pairs in the states his key's codes name.
        labels, completed = [], []
        for i, hop in zip(going, outcomes):
            hops[i].append(hop)
            if hop.abort_reason is None:
                labels.append(hop.receiver_key)
                completed.append(i)
            else:
                reason = hop.abort_reason if k == 1 else f"hop{k}_{hop.abort_reason}"
                results[i] = TrialOutcome(trials[i], hops[i], reason, None)
        going = completed
        if not going:
            return results

    # Each key once: the first hop's two; then at each later hop every key
    # so far cut by its checks (the relay's becomes his prepared codes at
    # its key pairs), and its receiver's.
    for i in going:
        first, *later = hops[i]
        keys = [sender_key_material(first.ledger), first.receiver_key]
        for hop in later:
            keys = [hop.ledger.cut(key) for key in keys]
            keys.append(hop.receiver_key)
        results[i] = TrialOutcome(trials[i], hops[i], None, keys)
    return results
