"""Bookkeeping types for a protocol run.

A trial is described by a ledger of columns, one entry per entangled pair,
indexed by pair ordinal: the preparation code, the genuine pair's state code
(``quantum``'s int codes: a pair-state label, or a product of Z/X
eigenstates once a half was measured), the planted pair's code, the decode
result, the adversary's guess and the disposition (consumed by a check,
contributing to the key, or lost in transit). The code columns are byte
strings, one byte per pair, and ``UNSET`` (255, which is no state code)
marks a pair with no value: no decode result, no planted pair, no adversary
guess. A step gathers the bytes of the pairs it acts on (``gather``: the
ledger's ``live`` pairs, or a check's sample), measures them in one
``quantum.measure_column`` call and writes back only the post states a later
step reads. A measurement that consumes its pairs (either check, the decode,
or the fake-EPR adversary's capture of the genuine pairs) writes back none,
so ``state`` keeps each such pair's code from before it. No step builds an
object per pair; ``PairLedger.records`` assembles read-only ``PairRecord``
views, with None for ``UNSET``, only when something reads it.

A column that a step fills at the live pairs (the planted pairs, the decode
results, the adversary's guesses) is empty until that step, which builds it
whole with ``PairLedger.spread``: ``UNSET`` at every pair no longer live.
So such a column is either empty or one byte per pair, and ``records`` pads
an empty one with ``UNSET``. ``joint_counts`` counts two such columns
against each other as bytes.

The run's progress is one ledger field, ``phase``. The pairs still live all
stand at the same stage, so their shared disposition, ``stage``, follows
from the phase, and the disposition column holds only the terminal fates.

The planted column holds the pairs the fake-EPR adversary planted in place
of the genuine ones; once it is filled, the receiver's measurements act on
it rather than on ``state``. Who holds which particle follows from the
disposition: the receiver holds a pair's second half from the first
transmission on unless the pair was ``DROPPED``, and holds the whole pair
(planted or genuine) once it is ``IN_FLIGHT_2``.

The ledger also owns the run's :class:`Transcript`; every protocol step logs
its public events there. A ledger whose ``transcript`` is None records
nothing, and the steps then build no event payloads either. A transcript
keeps its rendered lines, each ``json.dumps(event, sort_keys=True,
separators=(",", ":"))`` of one event: ``Transcript.log`` writes the
event's fixed five-key envelope itself and encodes only the payload, in one
call of a C-level encoder that is built once at import, where
``json.dumps`` would build one for every event.

The read-only records, the ``PairRecord`` views and each check's
``CheckReport``, are named tuples: one tuple allocation each, and each
compares equal to a plain tuple of its fields.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from json import JSONEncoder
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple

from .quantum import BELL_LABELS, CODES, BellState

# The C encoder that json.dumps(payload, sort_keys=True, separators=(",", ":"))
# builds anew on every call, built once: json's default hook and string
# quoting, no indent, the compact separators, sorted keys, no skipped keys and
# NaN allowed. It is given no circular-reference markers, so it keeps no state
# between calls; a payload that holds itself raises RecursionError, where
# json.dumps raises ValueError.
_encode_payload = c_make_encoder(
    None, JSONEncoder().default, encode_basestring_ascii, None, ":", ",", True, False, True
)
# One event as that json.dumps call writes it: its five keys in sorted order.
_EVENT_LINE = '{"actor":%s,"event":%s,"payload":%s,"step":%d,"trial":%d}\n'

# The byte a code column holds where a pair has no value. It is no state
# code, so measuring it raises.
UNSET = 255
_UNSET_BYTE = bytes([UNSET])
# Translate tables from a bit byte to its ASCII digit, for the bit strings a
# transcript logs, and from a code byte to the digit of its high or low bit.
DIGITS = b"01".ljust(256, b"?")
_HIGH, _LOW = (bytes(b"01"[c >> shift & 1] for c in range(256)) for shift in (1, 0))
# Every byte x << 3 | y of a code x and a y below 4, by y: the first 4m are
# those with y below m.
_PAIR_KEYS = bytes(x << 3 | y for y in range(4) for x in range(4))


def gather(column, indices: list[int]) -> bytes:
    """The bytes of ``column`` at ``indices``, distinct pair ordinals in
    increasing order; as many as the column has are every pair."""
    if len(indices) == len(column):
        return bytes(column)
    if len(indices) > 1:
        return bytes(itemgetter(*indices)(column))
    return bytes([column[i] for i in indices])


def code_string(codes: bytes) -> str:
    """The 2-bit key codes of pair-state codes, concatenated: 0, 3 -> "0011"."""
    text = bytearray(2 * len(codes))
    text[0::2], text[1::2] = codes.translate(_HIGH), codes.translate(_LOW)
    return text.decode()


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


# The disposition every live pair shares in each phase. A transmission's phase
# is set before the channel acts on the pairs; none is live once DONE.
_STAGES = {
    Phase.CREATED: Disposition.PREPARED,
    Phase.SENT_1: Disposition.IN_FLIGHT_1,
    Phase.CHECKED_1: Disposition.IN_FLIGHT_1,
    Phase.SENT_2: Disposition.IN_FLIGHT_2,
    Phase.DECODED: Disposition.DECODED,
    Phase.CHECKED_2: Disposition.DECODED,
    Phase.DONE: Disposition.KEY,
}


class Transcript:
    """Ordered event log of a run, kept as its rendered lines.

    Each line is one JSON object with the fixed field set {trial, step,
    actor, event, payload}: ``trial`` and ``step`` are ints, ``actor`` and
    ``event`` strings, and ``payload`` is the transcript's ``extra`` fields
    updated with the logged ones. Two runs with the same configuration and
    seed produce byte-identical transcripts.
    """

    def __init__(self, trial: int = 0, extra: dict | None = None):
        self.trial = trial
        self.extra = extra or {}
        self.lines: list[str] = []

    def log(self, step: int, actor: str, event: str, payload: dict | None = None):
        """Append the event's line, as ``json.dumps(event, sort_keys=True,
        separators=(",", ":"))`` writes it, plus a newline."""
        encoded = "".join(_encode_payload({**self.extra, **payload} if payload else self.extra, 0))
        quote = encode_basestring_ascii
        self.lines.append(_EVENT_LINE % (quote(actor), quote(event), encoded, step, self.trial))

    def to_jsonl(self) -> str:
        return "".join(self.lines)


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

    ``prepared`` holds the preparation codes and ``state`` the genuine
    pairs' codes, each a byte per pair. ``planted`` holds the planted pairs'
    codes, ``outcome`` the receiver's decode results and ``guesses`` the
    adversary's guesses, each guess a byte indexing ``guess_alphabet``. Each
    of these three is empty until the step that fills it, then a byte per
    pair with ``UNSET`` where it has no value. ``guess_alphabet`` is
    ``CODES`` when a guess names both bits of a pair's code (her Bell
    measurement, or her Z bits on both halves as ``2·first + second``) and
    the two bit names when it is her one Z bit.
    ``live`` lists, in order, the pairs with no terminal disposition yet;
    each has the disposition ``stage``, set by ``phase``. ``disposition`` holds
    each settled pair's terminal disposition, and None for a live pair.
    ``transcript`` is the event log, or None when the run records none.
    """

    def __init__(
        self,
        prepared: bytes | list[int],
        sender: str = "alice",
        receiver: str = "bob",
        transcript: Transcript | None = None,
    ):
        n = len(prepared)
        self.prepared = prepared
        self.state = bytearray(prepared)
        self.planted = self.outcome = self.guesses = b""
        self.guess_alphabet: tuple[str, ...] = CODES
        self.disposition: list[Disposition | None] = [None] * n
        self.live = list(range(n))
        self.sender = sender
        self.receiver = receiver
        self.transcript = transcript
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
    def stage(self) -> Disposition:
        """The disposition every live pair has: the one its phase implies."""
        return _STAGES[self.phase]

    @property
    def receiver_state(self) -> bytes | bytearray:
        """The column the receiver's measurements act on: the planted pairs
        once the adversary substituted them, else the genuine ones."""
        return self.planted or self.state

    @property
    def records(self) -> tuple[PairRecord, ...]:
        """Every pair as a ``PairRecord``, built afresh on each read."""
        unset = _UNSET_BYTE * self.n_total
        planted, outcome = self.planted or unset, self.outcome or unset
        stage = self.stage
        return tuple(
            PairRecord(
                i,
                BELL_LABELS[self.prepared[i]],
                stage if self.disposition[i] is None else self.disposition[i],
                self.state[i],
                None if planted[i] == UNSET else planted[i],
                None if outcome[i] == UNSET else BELL_LABELS[outcome[i]],
            )
            for i in range(self.n_total)
        )

    def spread(self, values: bytes, column: bytearray | None = None) -> bytearray:
        """``column``, updated in place, or else a new full-length column of
        ``UNSET``, holding ``values`` at the live pairs, in order."""
        if len(self.live) == self.n_total:  # the values are the whole column
            if column is None:
                return bytearray(values)
            column[:] = values
            return column
        if column is None:
            column = bytearray(_UNSET_BYTE * self.n_total)
        for i, value in zip(self.live, values):
            column[i] = value
        return column

    def settle(self, indices: list[int], disposition: Disposition):
        """Give the listed live pairs, each at most once, a terminal
        disposition."""
        column = self.disposition
        for i in indices:
            column[i] = disposition
        if len(indices) == len(self.live):  # every live pair settled
            self.live = []
        elif indices:
            self.live = [i for i in self.live if column[i] is None]

    def disposition_counts(self) -> dict[str, int]:
        counts = {d.value: self.disposition.count(d) for d in Disposition}
        counts[self.stage.value] += len(self.live)
        return counts


def joint_counts(prepared: bytes, ys: bytes, y_names=CODES) -> dict[str, dict[str, int]]:
    """Nested counts {key code of prepared[i]: {y_names[ys[i]]: n}} over the
    pairs whose ys byte is not ``UNSET``, in order of first appearance.

    ``ys`` is as long as ``prepared``, or empty for no pair. Each pair is
    the byte ``prepared[i] << 3 | ys[i]``, built for every pair at once
    (``UNSET`` where ``ys[i]`` is), and each of the at most
    ``4 * len(y_names)`` possible bytes is found and counted in one pass.
    """
    counts: dict[str, dict[str, int]] = {}
    if ys.count(UNSET) == len(ys):
        return counts
    pairs = (int.from_bytes(prepared) << 3 | int.from_bytes(ys)).to_bytes(len(ys))
    keys = _PAIR_KEYS[: 4 * len(y_names)]
    for _, key in sorted((pairs.find(key), key) for key in keys if key in pairs):
        counts.setdefault(CODES[key >> 3], {})[y_names[key & 7]] = pairs.count(key)
    return counts


class CheckReport(NamedTuple):
    """Outcome of one eavesdropping check over a published random sample."""

    check_id: str  # "first" or "second"
    sample_indices: tuple[int, ...]
    mismatches: int
    threshold: float
    # Announced measurement basis letter per sampled pair, as the transcript
    # logs them (first check only).
    bases: str = ""

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
        rate = self.mismatches / len(self.sample_indices)
        return {
            "sample_size": len(self.sample_indices),
            "mismatches": self.mismatches,
            "error_rate": rate,
            "threshold": self.threshold,
            "passed": rate <= self.threshold,
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
        if self.bits.count("0") + self.bits.count("1") != len(self.bits):
            raise ValueError("key bits must be 0/1 characters")
