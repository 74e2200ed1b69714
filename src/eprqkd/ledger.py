"""Bookkeeping types for a protocol run.

A run is described by a ledger of pair records. Each record tracks one
entangled pair from preparation to its final disposition: consumed by a
check, contributing to the key, or lost in transit. The carrier field holds
the genuine pair's joint state; when the adversary substitutes particles of
her own, the planted pair lives in ``fake_carrier`` so that measurements can
be routed to whatever particle each party actually holds.

Custody is tracked per half. Half 1 is the first qubit (kept by the sender
until the second transmission), half 2 the second qubit (sent first).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigurationError
from .quantum import BellState, TwoQubitState

DESTROYED = "destroyed"


class Disposition(Enum):
    """Where a pair currently stands in the protocol."""

    PREPARED = "prepared"
    IN_FLIGHT_1 = "in-flight-1"
    CHECKED_1 = "checked-1"
    IN_FLIGHT_2 = "in-flight-2"
    DECODED = "decoded"
    CHECKED_2 = "checked-2"
    KEY = "key"
    DROPPED = "dropped"


class Phase(Enum):
    """Progress of the run as a whole; operations enforce this order."""

    CREATED = 0
    SENT_1 = 1
    CHECKED_1 = 2
    SENT_2 = 3
    DECODED = 4
    CHECKED_2 = 5
    DONE = 6


@dataclass
class PairRecord:
    index: int
    prepared: BellState
    carrier: TwoQubitState
    custody: tuple[str, str]
    disposition: Disposition = Disposition.PREPARED
    fake_carrier: TwoQubitState | None = None
    fake_custody: tuple[str, str] | None = None
    outcome: BellState | None = None  # receiver's Bell-basis decode result

    def received_by(self, receiver: str) -> bool:
        """True when the receiver holds a sequence-1 particle for this pair,
        genuine or planted."""
        if self.fake_custody is not None:
            return self.fake_custody[1] == receiver
        return self.custody[1] == receiver

    def holds_pair(self, receiver: str) -> bool:
        """True when the receiver holds both halves of the pair it believes
        it has (the planted pair when one was substituted)."""
        if self.fake_custody is not None:
            return self.fake_custody == (receiver, receiver)
        return self.custody == (receiver, receiver)


@dataclass
class PairLedger:
    """Ordered collection of pair records plus run-level state."""

    records: list[PairRecord]
    sender: str = "alice"
    receiver: str = "bob"
    phase: Phase = Phase.CREATED
    check1: "CheckReport | None" = None
    check2: "CheckReport | None" = None
    # Fraction of transmitted particles the receiver actually got, per
    # transmission; None until that transmission happened.
    receipt_1: float | None = None
    receipt_2: float | None = None

    @property
    def n_total(self) -> int:
        return len(self.records)

    def __post_init__(self):
        indices = [r.index for r in self.records]
        if indices != list(range(len(indices))):
            raise ConfigurationError("pair indices must be exactly 0..N-1 in order")

    def with_disposition(self, *dispositions: Disposition) -> list[PairRecord]:
        wanted = set(dispositions)
        return [r for r in self.records if r.disposition in wanted]

    def disposition_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {d.value: 0 for d in Disposition}
        for r in self.records:
            counts[r.disposition.value] += 1
        return counts


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one eavesdropping check over a published random sample."""

    check_id: str  # "first" or "second"
    sample_indices: tuple[int, ...]
    mismatches: int
    threshold: float
    # Published comparison values, one symbol per sampled pair, in
    # sample_indices order: bits for the first check, 2-bit codes for the
    # second. Kept for transcripts and diagnostics.
    sender_values: tuple[str, ...] = ()
    receiver_values: tuple[str, ...] = ()
    # Announced measurement basis per sampled pair (first check only).
    bases: tuple[str, ...] = ()

    @property
    def sample_size(self) -> int:
        return len(self.sample_indices)

    @property
    def error_rate(self) -> float:
        return self.mismatches / self.sample_size

    @property
    def passed(self) -> bool:
        return self.error_rate <= self.threshold

    def to_dict(self) -> dict:
        """The published summary, as report rows and transcripts carry it."""
        return {
            "sample_size": self.sample_size,
            "mismatches": self.mismatches,
            "error_rate": self.error_rate,
            "threshold": self.threshold,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class KeyMaterial:
    """Raw key bits plus the pair ordinals they came from (2 bits each)."""

    bits: str
    source_indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) != 2 * len(self.source_indices):
            raise ValueError(
                f"key of {len(self.bits)} bits does not match "
                f"{len(self.source_indices)} source pairs"
            )
        if any(c not in "01" for c in self.bits):
            raise ValueError("key bits must be 0/1 characters")


class Transcript:
    """Ordered event log of a run.

    Serializes as one JSON object per line with the fixed field set
    {trial, step, actor, event, payload}. Two runs with the same
    configuration and seed produce byte-identical transcripts.
    """

    def __init__(self, trial: int = 0, extra: dict | None = None):
        self.trial = trial
        self.extra = extra or {}
        self.events: list[dict] = []

    def log(self, step: int, actor: str, event: str, payload: dict | None = None):
        merged = dict(self.extra)
        merged.update(payload or {})
        self.events.append(
            {
                "trial": self.trial,
                "step": step,
                "actor": actor,
                "event": event,
                "payload": merged,
            }
        )

    def extend(self, other: "Transcript"):
        self.events.extend(other.events)

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
            for event in self.events
        )
