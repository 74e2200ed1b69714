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
ProtocolOrderError when called early or late. Every operation logs its
public events to the ledger's transcript.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .adversary import AdversaryChannel, AttackStrategy, EveState
from .config import RunConfig
from .errors import ConfigurationError, InsufficientPairsError, ProtocolOrderError
from .ledger import (
    CheckReport,
    Disposition,
    KeyMaterial,
    PairLedger,
    PairRecord,
    Phase,
    Transcript,
)
from .quantum import (
    BELL_LABELS,
    BellState,
    make_bell_state,
    measure_bell_basis,
    measure_qubit,
)
from .rng import RandomSource

_TERMINAL = {
    Disposition.CHECKED_1,
    Disposition.CHECKED_2,
    Disposition.KEY,
    Disposition.DROPPED,
}


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
    labels = [BELL_LABELS[rng.uniform_index(4)] for _ in range(n)]
    return prepare_from_labels(labels, sender, receiver, transcript)


def prepare_from_labels(
    labels: list[BellState],
    sender: str = "alice",
    receiver: str = "bob",
    transcript: Transcript | None = None,
) -> PairLedger:
    """Prepare pairs in the given states, in order (re-encoding path).

    The ledger logs to ``transcript`` when one is given, else to a fresh one.
    """
    if not labels:
        raise ConfigurationError("cannot prepare an empty pair sequence")
    records = [
        PairRecord(index=i, prepared=label, carrier=make_bell_state(label))
        for i, label in enumerate(labels)
    ]
    ledger = PairLedger(
        records, sender=sender, receiver=receiver, transcript=transcript or Transcript()
    )
    ledger.transcript.log(
        1,
        sender,
        "prepare",
        {"pairs": len(records), "codes": "".join(label.code for label in labels)},
    )
    return ledger


def transmit_first_sequence(ledger: PairLedger, channel: AdversaryChannel) -> PairLedger:
    """Send every pair's second half through the channel (step 2).

    The receiver gets a particle, genuine or planted, for every pair the
    channel did not drop.
    """
    if ledger.phase is not Phase.CREATED:
        raise ProtocolOrderError(f"first transmission in phase {ledger.phase.name}")
    for rec in ledger.records:
        rec.disposition = Disposition.IN_FLIGHT_1
    ledger.transcript.log(2, ledger.sender, "send", {"sequence": 1, "count": ledger.n_total})
    interference = channel.interpose(1, ledger)
    if interference:
        ledger.transcript.log(2, "eve", "interpose", interference)
    received = len(ledger.with_disposition(Disposition.IN_FLIGHT_1))
    ledger.receipt_1 = received / ledger.n_total
    ledger.transcript.log(
        2,
        ledger.receiver,
        "receive",
        {"sequence": 1, "received": received, "expected": ledger.n_total},
    )
    ledger.phase = Phase.SENT_1
    return ledger


def _draw_sample(
    candidates: list[PairRecord], fraction: float, min_size: int, rng: RandomSource
) -> list[PairRecord]:
    """A check's random sample, in pair order: a ``fraction`` of the
    candidates, and at least ``min_size`` of them when that many exist."""
    if not candidates:
        raise InsufficientPairsError("no pairs available to check")
    size = min(len(candidates), max(min_size, math.ceil(fraction * len(candidates))))
    return sorted(rng.sample_without_replacement(candidates, size), key=lambda rec: rec.index)


def _publish_check(
    ledger: PairLedger,
    report: CheckReport,
    sample: list[PairRecord],
    disposition: Disposition,
    step: int,
) -> CheckReport:
    """Consume the sampled pairs and publish the check's summary."""
    for rec in sample:
        rec.disposition = disposition
    ledger.transcript.log(step, "public", "check", {"check": report.check_id, **report.to_dict()})
    return report


def first_check(
    ledger: PairLedger,
    fraction: float,
    threshold: float,
    rng: RandomSource,
    min_size: int = 16,
    randomize_basis: bool = False,
) -> CheckReport:
    """Correlation test on a random subset of delivered pairs (steps 3-4).

    The receiver measures his particle of each sampled pair, announces the
    pair ordinals (and bases), the sender measures hers the same way, and
    both publish the bits. A pair mismatches when the observed
    equal/opposite relation contradicts the prepared state's. Sampled pairs
    are consumed and never reach the second transmission.

    With ``randomize_basis`` (an extension) the receiver draws Z or X per
    pair instead of always measuring Z; the honest correlation is
    deterministic either way.
    """
    if ledger.phase is not Phase.SENT_1:
        raise ProtocolOrderError(f"first check in phase {ledger.phase.name}")
    available = ledger.with_disposition(Disposition.IN_FLIGHT_1)
    sample = _draw_sample(available, fraction, min_size, rng)

    bases = []
    receiver_bits = []
    for rec in sample:
        basis = ("z", "x")[rng.uniform_index(2)] if randomize_basis else "z"
        bases.append(basis)
        if rec.fake_carrier is not None:
            bit, post = measure_qubit(rec.fake_carrier, "second", basis, rng)
            rec.fake_carrier = post
        else:
            bit, post = measure_qubit(rec.carrier, "second", basis, rng)
            rec.carrier = post
        receiver_bits.append(bit)
    indices = [rec.index for rec in sample]
    ledger.transcript.log(
        3,
        ledger.receiver,
        "measure_check_sample",
        {
            "indices": indices,
            "bases": "".join(bases),
            "bits": "".join(map(str, receiver_bits)),
        },
    )
    ledger.transcript.log(
        4,
        ledger.receiver,
        "notify",
        {"message": "sequence-1-received", "check_indices": indices},
    )

    sender_bits = []
    for rec, basis in zip(sample, bases):
        bit, post = measure_qubit(rec.carrier, "first", basis, rng)
        rec.carrier = post
        sender_bits.append(bit)
    ledger.transcript.log(
        4,
        ledger.sender,
        "measure_partner_sample",
        {"indices": indices, "bits": "".join(map(str, sender_bits))},
    )

    mismatches = sum(
        (s_bit == r_bit) != rec.prepared.correlated_in(basis)
        for rec, basis, s_bit, r_bit in zip(sample, bases, sender_bits, receiver_bits)
    )
    report = CheckReport(
        check_id="first",
        sample_indices=tuple(indices),
        mismatches=mismatches,
        threshold=threshold,
        bases=tuple(bases),
    )
    ledger.check1 = report
    ledger.phase = Phase.CHECKED_1
    return _publish_check(ledger, report, sample, Disposition.CHECKED_1, 4)


def transmit_second_sequence(
    ledger: PairLedger,
    channel: AdversaryChannel,
    continuation: bool = False,
) -> PairLedger:
    """Send the surviving pairs' first halves through the channel (step 5).

    The receiver then holds every pair still in flight whole: the genuine
    pair, or the planted one where the adversary substituted it. Refuses
    to run after a failed first check unless ``continuation`` is set (a
    study mode that lets the doomed run be observed to the end).
    """
    if ledger.phase is not Phase.CHECKED_1:
        raise ProtocolOrderError(f"second transmission in phase {ledger.phase.name}")
    if ledger.check1 is not None and not ledger.check1.passed and not continuation:
        raise ProtocolOrderError("second transmission after a failed first check")
    survivors = ledger.with_disposition(Disposition.IN_FLIGHT_1)
    for rec in survivors:
        rec.disposition = Disposition.IN_FLIGHT_2
    ledger.transcript.log(5, ledger.sender, "send", {"sequence": 2, "count": len(survivors)})
    interference = channel.interpose(2, ledger)
    if interference:
        ledger.transcript.log(5, "eve", "interpose", interference)
    received = len(ledger.with_disposition(Disposition.IN_FLIGHT_2))
    ledger.receipt_2 = received / len(survivors) if survivors else 1.0
    ledger.transcript.log(
        5,
        ledger.receiver,
        "receive",
        {"sequence": 2, "received": received, "expected": len(survivors)},
    )
    ledger.phase = Phase.SENT_2
    return ledger


def bob_decode(ledger: PairLedger, rng: RandomSource) -> PairLedger:
    """Pair-state measurement of every surviving pair, in order (step 6)."""
    if ledger.phase is not Phase.SENT_2:
        raise ProtocolOrderError(f"decode in phase {ledger.phase.name}")
    codes = []
    for rec in ledger.with_disposition(Disposition.IN_FLIGHT_2):
        if rec.fake_carrier is not None:
            outcome, post = measure_bell_basis(rec.fake_carrier, rng)
            rec.fake_carrier = post
        else:
            outcome, post = measure_bell_basis(rec.carrier, rng)
            rec.carrier = post
        rec.outcome = outcome
        rec.disposition = Disposition.DECODED
        codes.append(outcome.code)
    ledger.transcript.log(
        6, ledger.receiver, "decode", {"pairs": len(codes), "codes": "".join(codes)}
    )
    ledger.phase = Phase.DECODED
    return ledger


def second_check(
    ledger: PairLedger,
    fraction: float,
    threshold: float,
    rng: RandomSource,
    min_size: int = 16,
) -> CheckReport:
    """Compare a random subset of decode results against the preparation
    choices (step 7). Compared pairs are excluded from the key."""
    if ledger.phase is not Phase.DECODED:
        raise ProtocolOrderError(f"second check in phase {ledger.phase.name}")
    sample = _draw_sample(ledger.with_disposition(Disposition.DECODED), fraction, min_size, rng)
    report = CheckReport(
        check_id="second",
        sample_indices=tuple(rec.index for rec in sample),
        mismatches=sum(rec.outcome is not rec.prepared for rec in sample),
        threshold=threshold,
    )
    ledger.check2 = report
    ledger.phase = Phase.CHECKED_2
    return _publish_check(ledger, report, sample, Disposition.CHECKED_2, 7)


def extract_key(ledger: PairLedger) -> KeyMaterial:
    """Take the unchecked decode results as the receiver's raw key (step 7)."""
    if ledger.phase is not Phase.CHECKED_2:
        raise ProtocolOrderError(f"key extraction in phase {ledger.phase.name}")
    if not (ledger.check1 and ledger.check1.passed and ledger.check2 and ledger.check2.passed):
        raise ProtocolOrderError("key extraction after a failed check")
    kept = ledger.with_disposition(Disposition.DECODED)
    for rec in kept:
        rec.disposition = Disposition.KEY
    key = KeyMaterial(
        bits="".join(rec.outcome.code for rec in kept),
        source_indices=tuple(rec.index for rec in kept),
    )
    ledger.phase = Phase.DONE
    ledger.transcript.log(7, "public", "commit", {"key_bits": len(key.bits)})
    return key


def sender_key_material(ledger: PairLedger, source_indices) -> KeyMaterial:
    """The sender's key: her preparation codes at the kept pair ordinals."""
    return KeyMaterial(
        bits="".join(ledger.records[i].prepared.code for i in source_indices),
        source_indices=tuple(source_indices),
    )


@dataclass
class ProtocolOutcome:
    """Everything a single run produced, including the final ledger."""

    ledger: PairLedger
    abort_reason: str | None
    receiver_key: KeyMaterial | None
    sender_key: KeyMaterial | None
    eve: EveState

    @property
    def transcript(self) -> Transcript:
        return self.ledger.transcript

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

    def decode_joint_counts(self) -> dict[str, dict[str, int]]:
        """Counts of (prepared code, decoded code) over pairs with outcomes."""
        counts: dict[str, dict[str, int]] = {}
        for rec in self.ledger.records:
            if rec.outcome is None:
                continue
            row = counts.setdefault(rec.prepared.code, {})
            row[rec.outcome.code] = row.get(rec.outcome.code, 0) + 1
        return counts


def _drop_unfinished(ledger: PairLedger):
    # An aborted run discards whatever had no terminal fate yet, so that
    # every pair ends as checked, key, or dropped.
    for rec in ledger.records:
        if rec.disposition not in _TERMINAL:
            rec.disposition = Disposition.DROPPED


def run_protocol(
    config: RunConfig,
    rng: RandomSource,
    sender: str = "alice",
    receiver: str = "bob",
    trial: int = 0,
    prepared_labels: list[BellState] | None = None,
    strategy: AttackStrategy | None = None,
    transcript_extra: dict | None = None,
) -> ProtocolOutcome:
    """Execute steps 1-7 for one run and report what happened.

    Every failure mode is an abort with a reason, never an exception:
    a failed check, a transmission whose delivered fraction fell below
    1 - loss_tolerance, or no pairs left for a check or for the key
    (``insufficient_pairs``). With ``continuation_mode`` the run keeps
    going past a failed first check (for studying the attack's downstream
    statistics) but still aborts at the end and emits no key.
    """
    strategy = config.attack if strategy is None else strategy
    sender_rng = rng.substream(sender)
    receiver_rng = rng.substream(receiver)
    transcript = Transcript(trial, extra=transcript_extra)
    channel = AdversaryChannel(strategy, rng.substream("eve"))

    if prepared_labels is None:
        ledger = alice_prepare(config.pairs, sender_rng, sender, receiver, transcript)
    else:
        ledger = prepare_from_labels(prepared_labels, sender, receiver, transcript)

    abort: str | None = None
    check1 = None
    receiver_key = sender_key = None

    transmit_first_sequence(ledger, channel)
    if ledger.receipt_1 < 1.0 - config.loss_tolerance:
        abort = "stall_transmission_1"
        transcript.log(2, "public", "abort", {"reason": abort})
    else:
        try:
            check1 = first_check(
                ledger,
                config.check_fraction_1,
                config.threshold_1,
                receiver_rng,
                min_size=config.min_check_size,
                randomize_basis=config.randomize_check_basis,
            )
        except InsufficientPairsError:
            abort = "insufficient_pairs"
            transcript.log(3, "public", "abort", {"reason": abort})
        else:
            if not check1.passed:
                abort = "check1_failed"
                if not config.continuation_mode:
                    transcript.log(4, "public", "abort", {"reason": abort})

    if check1 is not None and (check1.passed or config.continuation_mode):
        transmit_second_sequence(ledger, channel, config.continuation_mode)
        if ledger.receipt_2 < 1.0 - config.loss_tolerance:
            abort = abort or "stall_transmission_2"
            transcript.log(5, "public", "abort", {"reason": abort})
        else:
            bob_decode(ledger, receiver_rng)
            try:
                check2 = second_check(
                    ledger,
                    config.check_fraction_2,
                    config.threshold_2,
                    receiver_rng,
                    min_size=config.min_check_size,
                )
            except InsufficientPairsError:
                abort = abort or "insufficient_pairs"
            else:
                if not check2.passed:
                    abort = abort or "check2_failed"
                elif not ledger.with_disposition(Disposition.DECODED):
                    abort = abort or "insufficient_pairs"  # no pair left for the key
            if abort is None:
                receiver_key = extract_key(ledger)
                sender_key = sender_key_material(ledger, receiver_key.source_indices)
            else:
                transcript.log(7, "public", "abort", {"reason": abort})

    if abort is not None:
        _drop_unfinished(ledger)

    return ProtocolOutcome(
        ledger=ledger,
        abort_reason=abort,
        receiver_key=receiver_key,
        sender_key=sender_key,
        eve=channel.eve,
    )


@dataclass
class MultipartyOutcome:
    """A two-hop chain run: sender -> relay -> third party."""

    hop1: ProtocolOutcome
    hop2: ProtocolOutcome | None
    abort_reason: str | None
    alice_key: KeyMaterial | None
    bob_key: KeyMaterial | None
    clare_key: KeyMaterial | None
    transcript: Transcript

    @property
    def completed(self) -> bool:
        return self.abort_reason is None

    @property
    def keys_agree(self) -> bool | None:
        if self.alice_key is None:
            return None
        return self.alice_key.bits == self.bob_key.bits == self.clare_key.bits


def run_multiparty(config: RunConfig, rng: RandomSource, trial: int = 0) -> MultipartyOutcome:
    """Distribute one common key along the chain alice -> bob -> clare.

    The first hop runs the full protocol; the relay then re-encodes his raw
    key into fresh pairs and runs the full protocol to the third party.
    The common key is whatever survives the second hop's checks, identified
    across parties by pair ordinals announced on the classical channel.
    """
    if config.parties != 3:
        raise ConfigurationError("run_multiparty needs a 3-party configuration")

    def hop_strategy(hop: int) -> AttackStrategy:
        return config.attack if config.attacks_hop(hop) else AttackStrategy()

    transcript = Transcript(trial)
    hop1 = run_protocol(
        config,
        rng.substream("hop1"),
        sender="alice",
        receiver="bob",
        trial=trial,
        strategy=hop_strategy(1),
        transcript_extra={"hop": 1},
    )
    transcript.extend(hop1.transcript)
    if not hop1.completed:
        return MultipartyOutcome(
            hop1, None, hop1.abort_reason, None, None, None, transcript
        )

    relay_bits = hop1.receiver_key.bits
    relay_labels = [
        BellState.from_code(relay_bits[2 * i : 2 * i + 2])
        for i in range(len(relay_bits) // 2)
    ]
    hop2 = run_protocol(
        config,
        rng.substream("hop2"),
        sender="bob",
        receiver="clare",
        trial=trial,
        prepared_labels=relay_labels,
        strategy=hop_strategy(2),
        transcript_extra={"hop": 2},
    )
    transcript.extend(hop2.transcript)
    if not hop2.completed:
        return MultipartyOutcome(
            hop1, hop2, f"hop2_{hop2.abort_reason}", None, None, None, transcript
        )

    # Map the second hop's surviving ordinals back to first-hop pairs.
    hop1_positions = [
        hop1.receiver_key.source_indices[j] for j in hop2.receiver_key.source_indices
    ]
    clare_key = hop2.receiver_key
    bob_key = KeyMaterial(hop2.sender_key.bits, tuple(hop1_positions))
    alice_key = sender_key_material(hop1.ledger, hop1_positions)
    return MultipartyOutcome(
        hop1, hop2, None, alice_key, bob_key, clare_key, transcript
    )
