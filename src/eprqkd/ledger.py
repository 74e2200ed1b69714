"""Bookkeeping types for a protocol run.

A trial is described by a ledger of columns, one entry per entangled pair,
indexed by pair ordinal: the preparation code, the genuine pair's state code
(``quantum``'s int codes: a pair-state label, or a product of Z/X
eigenstates once a half was measured), the planted pair's code, the decode
result and the disposition (consumed by a check, contributing to the key,
or lost in transit). Protocol steps and the adversary loop over index lists
(the ledger's ``live`` pairs, or a check's sample) and never build an object
per pair; ``PairLedger.records`` assembles read-only ``PairRecord`` views
only when something reads it.

The planted column holds the pairs the fake-EPR adversary planted in place
of the genuine ones; when it is set, the receiver's measurements act on it
rather than on ``state``. Who holds which particle follows from the
disposition: the receiver holds a pair's second half from the first
transmission on unless the pair was ``DROPPED``, and holds the whole pair
(planted or genuine) once it is ``IN_FLIGHT_2``.

The ledger also owns the run's :class:`Transcript`; every protocol step logs
its public events there.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .quantum import BELL_LABELS, CODES, BellState


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


class PairRecord(NamedTuple):
    """A read-only snapshot of one pair, assembled from the ledger's columns."""

    index: int
    prepared: BellState
    disposition: Disposition
    carrier: int
    fake_carrier: int | None
    outcome: BellState | None


class PairLedger:
    """One trial's pairs as columns indexed by pair ordinal, plus run-level
    state.

    ``prepared`` holds the preparation codes, ``state`` the genuine pairs'
    codes, ``planted`` the planted pairs' codes (None until the fake-EPR
    adversary plants any), ``outcome`` the receiver's decode results and
    ``disposition`` where each pair stands. ``live`` lists, in order, the
    pairs with no terminal disposition yet; every one of them has the
    disposition of the current phase.
    """

    def __init__(
        self,
        prepared: list[int],
        sender: str = "alice",
        receiver: str = "bob",
        transcript: Transcript | None = None,
    ):
        n = len(prepared)
        self.prepared = prepared
        self.state = list(prepared)
        self.planted: list[int | None] | None = None
        self.outcome: list[int | None] = [None] * n
        self.disposition = [Disposition.PREPARED] * n
        self.live = list(range(n))
        self.sender = sender
        self.receiver = receiver
        self.transcript = transcript if transcript is not None else Transcript()
        self.phase = Phase.CREATED
        self.check1: CheckReport | None = None
        self.check2: CheckReport | None = None
        # Fraction of transmitted particles the receiver actually got, per
        # transmission; None until that transmission happened.
        self.receipt_1: float | None = None
        self.receipt_2: float | None = None

    @property
    def n_total(self) -> int:
        return len(self.prepared)

    @property
    def receiver_state(self) -> list[int | None]:
        """The column the receiver's measurements act on: the planted pairs
        once the adversary substituted them, else the genuine ones."""
        return self.state if self.planted is None else self.planted

    @property
    def records(self) -> tuple[PairRecord, ...]:
        """Every pair as a ``PairRecord``, built afresh on each read."""
        planted = self.planted or [None] * self.n_total
        return tuple(
            PairRecord(
                i,
                BELL_LABELS[self.prepared[i]],
                self.disposition[i],
                self.state[i],
                planted[i],
                None if self.outcome[i] is None else BELL_LABELS[self.outcome[i]],
            )
            for i in range(self.n_total)
        )

    def advance(self, disposition: Disposition):
        """Move every live pair on to the given (non-terminal) disposition."""
        column = self.disposition
        for i in self.live:
            column[i] = disposition

    def settle(self, indices: list[int], disposition: Disposition):
        """Give the listed live pairs a terminal disposition."""
        column = self.disposition
        for i in indices:
            column[i] = disposition
        if indices:
            gone = set(indices)
            self.live = [i for i in self.live if i not in gone]

    def disposition_counts(self) -> dict[str, int]:
        return {d.value: self.disposition.count(d) for d in Disposition}


def joint_counts(prepared: list[int], ys: list, y_names=CODES) -> dict[str, dict[str, int]]:
    """Nested counts {key code of prepared[i]: {y_names[ys[i]]: n}} over the
    pairs whose ys entry is not None, in order of first appearance."""
    width = len(y_names)
    keys = [width * x + y for x, y in zip(prepared, ys) if y is not None]
    counts: dict[str, dict[str, int]] = {}
    if keys:
        for key, n in Counter(keys).items():
            x, y = divmod(key, width)
            counts.setdefault(CODES[x], {})[y_names[y]] = n
    return counts


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one eavesdropping check over a published random sample."""

    check_id: str  # "first" or "second"
    sample_indices: tuple[int, ...]
    mismatches: int
    threshold: float
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
