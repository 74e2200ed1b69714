"""The per-pair object engine: the reference the column engine is checked against.

Every pair is a ``PairRecord`` object, and its carrier is a closed-form state
value: a ``BellState`` label or a ``((basis, bit), (basis, bit))`` product of
Z/X eigenstates. Each measurement evaluates the closed-form rules afresh on
every call, and each step scans the records for the disposition it needs.
This is how ``eprqkd`` ran before its state became int codes, table lookups
and per-trial columns. It makes the same draws from the same streams in the
same order, so for any config and seed its report rows and transcripts must
equal the package's byte for byte (``test_differential.py``).

Its draws are its own: a ``Stream`` is a ``random.Random`` seeded by the
stream's name, as the package names its streams, and every draw is unpacked
by a plain scalar loop. A block of n 2-bit draws is one
``getrandbits(8 * ceil(n / 4))`` call whose bits 2i and 2i + 1 are draw i; a
check sample is a byte mask of one ``getrandbits(8 * m)`` call, evened out
to its size by flipping positions drawn as ``int(r * m)``. Each step takes
one block, as the package's step does: a block consumes whole generator
words, so the blocks must be the same calls, not only the same draws.

Only what ``run_protocol`` and ``run_multiparty`` need is kept: there are no
phase guards and no API for driving single steps. The value types that did
not change (the configs) come from the package. A pair state's 2-bit key
code is read from the oracle's own ``KEY_CODES`` table, by the label's name,
so a fault in ``quantum.CODES`` shows as a differing row or transcript. A
key is its own ``Key`` tuple of its bits as a ``"0011"`` string and the
pair ordinals they came from. A check is its own ``Check`` tuple, equal to the package's
``CheckReport`` with the same fields, and states its own summary and pass
rule, so a fault in ``CheckReport`` shows as a differing row. A check
with no pairs left raises the oracle's own ``NoPairsLeft``. The
transcript is its own: each line is written with plain ``json.dumps``, the
byte contract itself, not with the package's encoder.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from eprqkd.adversary import AttackKind, AttackStrategy
from eprqkd.config import RunConfig
from eprqkd.ledger import Disposition
from eprqkd.quantum import BELL_LABELS, BellState

_HALVES = {"first": 0, "second": 1}
# The 2-bit key code of each pair state, by the label's name.
KEY_CODES = {"PSI1": "00", "PSI2": "01", "PSI3": "10", "PSI4": "11"}
_TERMINAL = {
    Disposition.CHECKED_1,
    Disposition.CHECKED_2,
    Disposition.KEY,
    Disposition.DROPPED,
}


class NoPairsLeft(Exception):
    """A check found no pairs to sample: the run aborts with
    ``insufficient_pairs``."""


# -- draws ---------------------------------------------------------------------


class Stream:
    """The draws of the stream ``name`` under root ``seed``."""

    def __init__(self, seed: int, name: str):
        self.seed, self.name = seed, name
        self.gen = random.Random(f"{seed}:{name}")

    def substream(self, name: str) -> "Stream":
        return Stream(self.seed, f"{self.name}/{name}")

    def random(self) -> float:
        return self.gen.random()

    def quarters(self, n: int) -> list[int]:
        """n 2-bit draws, 0-3 each: draw i is bits 2i and 2i + 1 of the block."""
        block = self.gen.getrandbits(8 * ((n + 3) // 4))
        return [block >> 2 * i & 3 for i in range(n)]

    def sample(self, m: int, k: int) -> list[int]:
        """k of the positions 0..m-1, in increasing order. Position i is kept
        where byte i of one draw of m bytes (least significant first) is below
        t = round(256 * k / m); then positions drawn as int(r * m) are dropped
        while too many are kept, each only if kept, or added while too few
        are, each only if not kept."""
        t = (512 * k + m) // (2 * m) if m else 0
        block = self.gen.getrandbits(8 * m)
        kept = [block >> 8 * i & 255 < t for i in range(m)]
        while sum(kept) != k:
            i = int(self.gen.random() * m)
            if kept[i] == (sum(kept) > k):
                kept[i] = not kept[i]
        return [i for i in range(m) if kept[i]]


# -- closed-form pair algebra --------------------------------------------------


def qubit_p0(state, which: str, basis: str) -> float:
    half = _HALVES[which]
    if isinstance(state, BellState) or state[half][0] != basis:
        return 0.5
    return 1.0 if state[half][1] == 0 else 0.0


def measure_qubit(state, which: str, basis: str, q: int):
    """Measure one qubit by the 2-bit draw q: outcome 0 has chance p0, a
    multiple of 1/2, so it is the outcome exactly when q < 4 * p0."""
    outcome = 0 if q < 4 * qubit_p0(state, which, basis) else 1
    half = _HALVES[which]
    if isinstance(state, BellState):
        other = (basis, outcome if state.correlated_in(basis) else 1 - outcome)
    else:
        other = state[1 - half]
    mine = (basis, outcome)
    return outcome, (mine, other) if half == 0 else (other, mine)


def bell_overlaps(state) -> dict[BellState, float]:
    if isinstance(state, BellState):
        return {label: 1.0 if label is state else 0.0 for label in BELL_LABELS}
    (basis, first), (other_basis, second) = state
    if basis != other_basis:
        return dict.fromkeys(BELL_LABELS, 0.25)
    agree = first == second
    return {
        label: 0.5 if label.correlated_in(basis) == agree else 0.0 for label in BELL_LABELS
    }


def measure_bell_basis(state, q: int) -> BellState:
    """The first label whose running sum of chances, a multiple of 1/4,
    exceeds q / 4 for the 2-bit draw q."""
    probs = bell_overlaps(state)
    total = 0.0
    for label in BELL_LABELS:
        total += probs[label]
        if q < 4 * total:
            return label
    raise AssertionError("the overlaps sum to less than 1")


# -- transcript ----------------------------------------------------------------


class Transcript:
    """A run's events as JSON lines: the fields trial, step, actor, event and
    payload, the payload being ``extra`` updated with the logged fields."""

    def __init__(self, trial: int = 0, extra: dict | None = None):
        self.trial = trial
        self.extra = extra or {}
        self.lines: list[str] = []

    def log(self, step: int, actor: str, event: str, payload: dict | None = None):
        fields = {"trial": self.trial, "step": step, "actor": actor, "event": event}
        fields["payload"] = {**self.extra, **(payload or {})}
        self.lines.append(json.dumps(fields, sort_keys=True, separators=(",", ":")) + "\n")

    def to_jsonl(self) -> str:
        return "".join(self.lines)


# -- records -------------------------------------------------------------------


class Key(NamedTuple):
    """A party's raw key: 2 bits per key pair, and the pair ordinals."""

    bits: str
    source_indices: tuple[int, ...]


class Check(NamedTuple):
    """One eavesdropping check: its sample, mismatches, threshold and the
    bases announced (first check only)."""

    check_id: str
    sample_indices: tuple[int, ...]
    mismatches: int
    threshold: float
    bases: str = ""

    def summary(self) -> dict:
        """The published summary: the error rate is the mismatches over the
        sample size, and the check passes at or under the threshold."""
        size = len(self.sample_indices)
        rate = self.mismatches / size
        return {
            "sample_size": size,
            "mismatches": self.mismatches,
            "error_rate": rate,
            "threshold": self.threshold,
            "passed": rate <= self.threshold,
        }

    @property
    def passed(self) -> bool:
        return self.summary()["passed"]


@dataclass
class PairRecord:
    index: int
    prepared: BellState
    carrier: object
    disposition: Disposition = Disposition.PREPARED
    fake_carrier: object = None
    outcome: BellState | None = None


@dataclass
class Ledger:
    records: list[PairRecord]
    sender: str
    receiver: str
    transcript: Transcript
    check1: Check | None = None
    check2: Check | None = None
    receipt_1: float | None = None
    receipt_2: float | None = None

    def with_disposition(self, disposition: Disposition) -> list[PairRecord]:
        return [r for r in self.records if r.disposition is disposition]


# -- adversary -----------------------------------------------------------------


@dataclass
class EveState:
    inferred_key: dict[int, BellState] = field(default_factory=dict)
    z_bits: dict[int, dict[int, int]] = field(default_factory=dict)


class Channel:
    def __init__(self, strategy, rng: Stream):
        self.strategy = strategy
        self.eve = EveState()
        self.rng = rng

    def interpose(self, transmission: int, ledger: Ledger) -> dict | None:
        in_flight = Disposition.IN_FLIGHT_1 if transmission == 1 else Disposition.IN_FLIGHT_2
        records = ledger.with_disposition(in_flight)
        kind = self.strategy.kind
        if kind is AttackKind.MEASURE_RESEND:
            payload = self._measure_resend(transmission, records)
        elif kind is AttackKind.FAKE_EPR:
            payload = self._fake_epr(transmission, records)
        elif kind is AttackKind.OPAQUE:
            payload = self._opaque(records)
        else:
            payload = None
        if payload is None:
            return None
        return {"strategy": kind.value, "sequence": transmission, **payload}

    def _measure_resend(self, transmission, records):
        if transmission == 2 and not self.strategy.measure_second_sequence:
            return None
        half = 2 if transmission == 1 else 1
        which = "second" if transmission == 1 else "first"
        bits = []
        for rec, q in zip(records, self.rng.quarters(len(records))):
            bit, rec.carrier = measure_qubit(rec.carrier, which, "z", q)
            self.eve.z_bits.setdefault(rec.index, {})[half] = bit
            bits.append(str(bit))
        return {"measured": len(records), "outcomes": "".join(bits)}

    def _fake_epr(self, transmission, records):
        if transmission == 1:
            planted = []
            fixed = self.strategy.fake_label
            draws = self.rng.quarters(len(records)) if fixed is None else []
            for i, rec in enumerate(records):
                label = fixed if fixed is not None else BELL_LABELS[draws[i]]
                rec.fake_carrier = label
                planted.append(KEY_CODES[label.name])
            return {
                "captured": len(records),
                "planted": len(records),
                "fake_codes": "".join(planted),
            }
        inferred = []
        for rec, q in zip(records, self.rng.quarters(len(records))):
            label = measure_bell_basis(rec.carrier, q)
            rec.carrier = label
            self.eve.inferred_key[rec.index] = label
            inferred.append(KEY_CODES[label.name])
        return {"captured": len(records), "inferred_codes": "".join(inferred)}

    def _opaque(self, records):
        destroyed = []
        for rec in records:
            if self.rng.random() < self.strategy.destroy_probability:
                rec.disposition = Disposition.DROPPED
                destroyed.append(rec.index)
        return {
            "destroyed": len(destroyed),
            "forwarded": len(records) - len(destroyed),
            "destroyed_indices": destroyed,
        }


def eve_guess_counts(eve: EveState, ledger: Ledger) -> dict[str, dict[str, int]]:
    if eve.inferred_key:
        guesses = {i: KEY_CODES[label.name] for i, label in eve.inferred_key.items()}
    else:
        guesses = {i: f"{h[1]}{h[2]}" for i, h in eve.z_bits.items() if 1 in h and 2 in h}
        if not guesses:
            guesses = {i: str(h.get(2, h.get(1))) for i, h in eve.z_bits.items()}
    counts: dict[str, dict[str, int]] = {}
    for index, guess in sorted(guesses.items()):
        row = counts.setdefault(KEY_CODES[ledger.records[index].prepared.name], {})
        row[guess] = row.get(guess, 0) + 1
    return counts


# -- protocol steps ------------------------------------------------------------


def prepare(labels: list[BellState], sender: str, receiver: str, transcript: Transcript):
    records = [PairRecord(i, label, label) for i, label in enumerate(labels)]
    ledger = Ledger(records, sender, receiver, transcript)
    codes = "".join(KEY_CODES[label.name] for label in labels)
    transcript.log(1, sender, "prepare", {"pairs": len(records), "codes": codes})
    return ledger


def transmit_first_sequence(ledger: Ledger, channel: Channel):
    for rec in ledger.records:
        rec.disposition = Disposition.IN_FLIGHT_1
    n = len(ledger.records)
    ledger.transcript.log(2, ledger.sender, "send", {"sequence": 1, "count": n})
    interference = channel.interpose(1, ledger)
    if interference:
        ledger.transcript.log(2, "eve", "interpose", interference)
    received = len(ledger.with_disposition(Disposition.IN_FLIGHT_1))
    ledger.receipt_1 = received / n
    ledger.transcript.log(
        2, ledger.receiver, "receive", {"sequence": 1, "received": received, "expected": n}
    )


def draw_sample(candidates, fraction, min_size, rng: Stream):
    if not candidates:
        raise NoPairsLeft("no pairs available to check")
    size = min(len(candidates), max(min_size, math.ceil(fraction * len(candidates))))
    return [candidates[i] for i in rng.sample(len(candidates), size)]


def publish_check(ledger, report, sample, disposition, step):
    for rec in sample:
        rec.disposition = disposition
    ledger.transcript.log(step, "public", "check", {"check": report.check_id, **report.summary()})
    return report


def first_check(ledger: Ledger, config: RunConfig, rng: Stream) -> Check:
    sample = draw_sample(
        ledger.with_disposition(Disposition.IN_FLIGHT_1),
        config.check_fraction_1,
        config.min_check_size,
        rng,
    )
    # One block: per pair a basis draw (with random bases) and the
    # receiver's draw, then the sender's draw per pair.
    k = len(sample)
    draws = rng.quarters((3 if config.randomize_check_basis else 2) * k)
    receiver_draws, sender_draws = draws[: len(draws) - k], draws[len(draws) - k :]
    bases, receiver_bits = [], []
    for i, rec in enumerate(sample):
        if config.randomize_check_basis:
            basis = ("z", "x")[receiver_draws[2 * i] // 2]
            q = receiver_draws[2 * i + 1]
        else:
            basis, q = "z", receiver_draws[i]
        bases.append(basis)
        if rec.fake_carrier is not None:
            bit, rec.fake_carrier = measure_qubit(rec.fake_carrier, "second", basis, q)
        else:
            bit, rec.carrier = measure_qubit(rec.carrier, "second", basis, q)
        receiver_bits.append(bit)
    indices = [rec.index for rec in sample]
    log = ledger.transcript.log
    log(
        3,
        ledger.receiver,
        "measure_check_sample",
        {"indices": indices, "bases": "".join(bases), "bits": "".join(map(str, receiver_bits))},
    )
    log(4, ledger.receiver, "notify", {"message": "sequence-1-received", "check_indices": indices})
    sender_bits = []
    for rec, basis, q in zip(sample, bases, sender_draws):
        bit, rec.carrier = measure_qubit(rec.carrier, "first", basis, q)
        sender_bits.append(bit)
    log(
        4,
        ledger.sender,
        "measure_partner_sample",
        {"indices": indices, "bits": "".join(map(str, sender_bits))},
    )
    mismatches = sum(
        (s_bit == r_bit) != rec.prepared.correlated_in(basis)
        for rec, basis, s_bit, r_bit in zip(sample, bases, sender_bits, receiver_bits)
    )
    report = Check(
        "first", tuple(indices), mismatches, config.threshold_1, bases="".join(bases)
    )
    ledger.check1 = report
    return publish_check(ledger, report, sample, Disposition.CHECKED_1, 4)


def transmit_second_sequence(ledger: Ledger, channel: Channel):
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


def decode(ledger: Ledger, rng: Stream):
    codes = []
    arrived = ledger.with_disposition(Disposition.IN_FLIGHT_2)
    for rec, q in zip(arrived, rng.quarters(len(arrived))):
        if rec.fake_carrier is not None:
            rec.outcome = rec.fake_carrier = measure_bell_basis(rec.fake_carrier, q)
        else:
            rec.outcome = rec.carrier = measure_bell_basis(rec.carrier, q)
        rec.disposition = Disposition.DECODED
        codes.append(KEY_CODES[rec.outcome.name])
    ledger.transcript.log(
        6, ledger.receiver, "decode", {"pairs": len(codes), "codes": "".join(codes)}
    )


def second_check(ledger: Ledger, config: RunConfig, rng: Stream) -> Check:
    sample = draw_sample(
        ledger.with_disposition(Disposition.DECODED),
        config.check_fraction_2,
        config.min_check_size,
        rng,
    )
    report = Check(
        "second",
        tuple(rec.index for rec in sample),
        sum(rec.outcome is not rec.prepared for rec in sample),
        config.threshold_2,
    )
    ledger.check2 = report
    return publish_check(ledger, report, sample, Disposition.CHECKED_2, 7)


def extract_key(ledger: Ledger) -> Key:
    kept = ledger.with_disposition(Disposition.DECODED)
    for rec in kept:
        rec.disposition = Disposition.KEY
    key = Key(
        "".join(KEY_CODES[rec.outcome.name] for rec in kept), tuple(rec.index for rec in kept)
    )
    ledger.transcript.log(7, "public", "commit", {"key_bits": len(key.bits)})
    return key


def sender_key(ledger: Ledger, source_indices) -> Key:
    bits = "".join(KEY_CODES[ledger.records[i].prepared.name] for i in source_indices)
    return Key(bits, tuple(source_indices))


@dataclass
class Outcome:
    ledger: Ledger
    abort_reason: str | None
    receiver_key: Key | None
    sender_key: Key | None
    eve: EveState

    @property
    def keys_agree(self) -> bool | None:
        if self.receiver_key is None or self.sender_key is None:
            return None
        return self.receiver_key.bits == self.sender_key.bits


def run_protocol(
    config, rng, sender="alice", receiver="bob", trial=0, labels=None, strategy=None, extra=None
) -> Outcome:
    # The hop's sender and receiver draw from rng itself, the sender first.
    strategy = config.attack if strategy is None else strategy
    transcript = Transcript(trial, extra=extra)
    channel = Channel(strategy, rng.substream("eve"))
    if labels is None:
        labels = [BELL_LABELS[q] for q in rng.quarters(config.pairs)]
    ledger = prepare(labels, sender, receiver, transcript)

    abort = None
    check1 = None
    receiver_key = key_of_sender = None
    transmit_first_sequence(ledger, channel)
    if ledger.receipt_1 < 1.0 - config.loss_tolerance:
        abort = "stall_transmission_1"
        transcript.log(2, "public", "abort", {"reason": abort})
    else:
        try:
            check1 = first_check(ledger, config, rng)
        except NoPairsLeft:
            abort = "insufficient_pairs"
            transcript.log(3, "public", "abort", {"reason": abort})
        else:
            if not check1.passed:
                abort = "check1_failed"
                if not config.continuation_mode:
                    transcript.log(4, "public", "abort", {"reason": abort})

    if check1 is not None and (check1.passed or config.continuation_mode):
        transmit_second_sequence(ledger, channel)
        if ledger.receipt_2 < 1.0 - config.loss_tolerance:
            abort = abort or "stall_transmission_2"
            transcript.log(5, "public", "abort", {"reason": abort})
        else:
            decode(ledger, rng)
            try:
                check2 = second_check(ledger, config, rng)
            except NoPairsLeft:
                abort = abort or "insufficient_pairs"
            else:
                if not check2.passed:
                    abort = abort or "check2_failed"
                elif not ledger.with_disposition(Disposition.DECODED):
                    abort = abort or "insufficient_pairs"
            if abort is None:
                receiver_key = extract_key(ledger)
                key_of_sender = sender_key(ledger, receiver_key.source_indices)
            else:
                transcript.log(7, "public", "abort", {"reason": abort})

    if abort is not None:
        for rec in ledger.records:
            if rec.disposition not in _TERMINAL:
                rec.disposition = Disposition.DROPPED
    return Outcome(ledger, abort, receiver_key, key_of_sender, channel.eve)


def run_multiparty(config: RunConfig, rng: Stream, trial: int = 0):
    """(hop1, hop2 or None, abort reason, keys_agree, common key, transcript)."""

    def hop_strategy(hop):
        return config.attack if config.attacks_hop(hop) else AttackStrategy()

    transcript = Transcript(trial)
    hop1 = run_protocol(
        config, rng.substream("hop1"), "alice", "bob", trial,
        strategy=hop_strategy(1), extra={"hop": 1},
    )
    transcript.lines.extend(hop1.ledger.transcript.lines)
    if hop1.abort_reason is not None:
        return hop1, None, hop1.abort_reason, None, None, transcript
    bits = hop1.receiver_key.bits
    labels = [BELL_LABELS[int(bits[2 * i : 2 * i + 2], 2)] for i in range(len(bits) // 2)]
    hop2 = run_protocol(
        config, rng.substream("hop2"), "bob", "clare", trial,
        labels=labels, strategy=hop_strategy(2), extra={"hop": 2},
    )
    transcript.lines.extend(hop2.ledger.transcript.lines)
    if hop2.abort_reason is not None:
        return hop1, hop2, f"hop2_{hop2.abort_reason}", None, None, transcript
    positions = [hop1.receiver_key.source_indices[j] for j in hop2.receiver_key.source_indices]
    alice = sender_key(hop1.ledger, positions)
    agree = alice.bits == hop2.sender_key.bits == hop2.receiver_key.bits
    return hop1, hop2, None, agree, hop2.receiver_key, transcript


# -- report rows ---------------------------------------------------------------


def decode_joint_counts(ledger: Ledger) -> dict[str, dict[str, int]]:
    counts: dict[str, dict[str, int]] = {}
    for rec in ledger.records:
        if rec.outcome is None:
            continue
        row = counts.setdefault(KEY_CODES[rec.prepared.name], {})
        row[KEY_CODES[rec.outcome.name]] = row.get(KEY_CODES[rec.outcome.name], 0) + 1
    return counts


def _hop_row(outcome: Outcome) -> dict:
    ledger = outcome.ledger
    return {
        "abort_reason": outcome.abort_reason,
        "receipt_fraction_1": ledger.receipt_1,
        "receipt_fraction_2": ledger.receipt_2,
        "check1": ledger.check1.summary() if ledger.check1 else None,
        "check2": ledger.check2.summary() if ledger.check2 else None,
    }


def run(config: RunConfig) -> tuple[list[dict], list[str]]:
    """Every trial's report row and transcript, as ``eprqkd.runner.run`` makes them."""
    rows, transcripts = [], []
    for trial in range(config.trials):
        trial_rng = Stream(config.seed, f"trial/{trial}")
        if config.parties == 3:
            primary, hop2, abort, agree, key, transcript = run_multiparty(
                config, trial_rng, trial
            )
        else:
            primary = run_protocol(config, trial_rng, trial=trial)
            hop2, abort, agree = None, primary.abort_reason, primary.keys_agree
            key, transcript = primary.receiver_key, primary.ledger.transcript
        row = {"trial": trial, "keys_agree": agree}
        row.update(_hop_row(primary))
        row["abort_reason"] = abort
        row["key_length"] = len(key.bits) if key is not None else 0
        row["ab_counts"] = decode_joint_counts(primary.ledger)
        row["ae_counts"] = eve_guess_counts(primary.eve, primary.ledger)
        row["hop2"] = _hop_row(hop2) if hop2 is not None else None
        rows.append(row)
        transcripts.append(transcript.to_jsonl())
    return rows, transcripts
