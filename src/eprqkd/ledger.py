"""Bookkeeping types for a protocol run.

Every protocol step acts on a ``Batch``: the trials that take the step
together, each with its ``PairLedger``, and the batch's byte columns, one
byte per live pair (a pair with no terminal disposition yet) of all its
trials, joined in trial order and, within a trial, in ordinal order: the
preparation codes, the genuine pairs' state codes (``quantum``'s int codes:
a pair-state label, or a product of Z/X eigenstates once a half was
measured), the planted pairs' codes, the decode results and the
adversary's guesses. ``Batch.column`` reads one, and ``Batch.sizes``
counts each trial's bytes of it. So a step that acts on the live pairs (a
transmission's attack, the decode) measures whole columns in one
``quantum.measure_column`` call for every trial, and a check gathers its
sample's bytes from them through the sample's mask. A trial's ledger holds
no column, only its logs and state. ``PairLedger.cut`` cuts a full-length
column, such as ``prepared``, the trial's preparation codes by pair
ordinal, by every settle of some live pairs: a sender's key is her
prepared codes cut so.

``Batch.fill`` is the only writer of a column, and logs each trial's part
of it in that trial's ledger (``PairLedger.fill`` only appends to the fill
log). A step fills only the
post states a later step reads; a measurement that consumes its pairs
(either check, the decode, or the fake-EPR adversary's capture of the
genuine pairs) writes back none. Each fill is one record of the fill log,
the plain tuple (name, cuts, prepared codes, codes, names): the column, the
number of settles cut before it, the prepared codes of the pairs live then,
one code per such pair, and the alphabet its codes index. That alphabet is
``CODES`` for the decode results and for the adversary's Bell or two-bit
guesses, the two bit names for her one-bit guesses, and None for the
pair-state columns ``state`` and ``planted``. ``Batch.filled`` says
whether a column holds codes yet, and ``PairLedger.counts`` counts the last
fill of a column against the prepared codes of the pairs it was filled at,
as bytes, with ``joint_counts``, naming each code through that fill's
alphabet.

A settle gives some live pairs a terminal disposition (consumed by a check,
contributing to the key, or lost in transit) and drops them from the live
pairs. It takes them as a mask, a byte per live pair that is 1 where the
pair is taken, as a check's sample or the opaque attack's losses arrive, and
works with C-level byte operations only: one ``translate`` flips it into the
keep mask, ``itertools.compress`` cuts each ledger's private list of live
ordinals with it (and, when the ledger keeps a transcript, picks the taken
pairs' ordinals with the mask itself), and a column is cut on its first read
after the settle by ``gather`` (one big-int OR and one ``translate``) under
the keep mask, as a check reads its sample from each column under the
sample's mask. ``gather`` rests on the columns' one contract: a compact
column holds one code below 0x80 per live pair, so no byte of a column has
the high bit of its own. A trial that aborts cuts no column of its own.
The terminal dispositions are a settle log of one fixed-size entry
per settle, (cuts before it, disposition), and the log holds no ordinal:
a partial settle's pairs are the zeros of its keep mask, the next cut, and a
settle of every live pair, at an abort or at key extraction, takes None,
cuts nothing and is O(1). Pair ordinals stay inside the ledger, in its
private live list and in what ``PairLedger.ordinals`` rebuilds from the cuts
on demand, which ``records``, ``disposition_counts`` and the tests read; a
partial settle returns the ordinals of the pairs it took when the ledger
keeps a transcript, which is what a step logs, and None when it keeps none.
What a step hands its caller is counts and codes, one item per trial (a
check's sample size and mismatches; a key, the bytes of its pair codes as
``column`` and ``cut`` return them).
No step builds an object per pair: ``PairLedger.records`` rebuilds
read-only ``PairRecord`` views from the settle log and the fill log, with
None where a pair has no value, only when something reads them.

A batch settles each trial's ledger with that trial's part of a mask, and
the keep masks joined are the batch's cut. A trial that aborts leaves the
batch, whose columns then lose its bytes by one more cut. A batch of one
trial cuts, fills and settles its one ledger with the batch's own bytes,
copying no column.

The run's progress is one ledger field, ``phase``. The pairs still live all
stand at the same stage, the one ``Phase`` names for that phase, so the
settle log holds only the terminal fates.

The planted column holds the pairs the fake-EPR adversary planted in place
of the genuine ones; once it is filled, the receiver's measurements act on
it rather than on the genuine pairs. Who holds which particle follows from
the disposition: the receiver holds a pair's second half from the first
transmission on unless the pair was ``DROPPED``, and holds the whole pair
(planted or genuine) once it is ``IN_FLIGHT_2``.

The ledger also owns the run's :class:`Transcript`; every protocol step logs
its public events there. A ledger whose ``transcript`` is None records
nothing, and the steps then build no event payloads either. The ledger
holds no party names: the transcript names the hop's ``sender`` and
``receiver``, the actors of their events, since nothing else reads them;
``PARTIES`` spells the chain's names once, in order. A transcript
keeps its rendered lines, each ``json.dumps(event, sort_keys=True,
separators=(",", ":"))`` of one event: ``Transcript.log`` writes the
event's fixed five-key envelope itself and encodes only the payload, in one
call of a C-level encoder that is built once at import, where
``json.dumps`` would build one for every event (a Python whose json has no
C accelerator calls ``json.dumps``).
"""
from __future__ import annotations

import json
from enum import Enum
from itertools import accumulate, compress
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import NamedTuple

from .quantum import BELL_LABELS, CODES, BellState

# The C encoder that json.dumps(payload, sort_keys=True, separators=(",", ":"))
# builds anew on every call, built once: json's default hook and string
# quoting, no indent, the compact separators, sorted keys, no skipped keys and
# NaN allowed. It is given no circular-reference markers, so it keeps no state
# between calls; a payload that holds itself raises RecursionError, where
# json.dumps raises ValueError. A Python whose json has no C accelerator
# (no _json module) has no c_make_encoder, and calls json.dumps itself.
if c_make_encoder is not None:
    _encode_payload = c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None, ":", ",", True, False, True
    )
else:

    def _encode_payload(payload: dict, _indent_level: int) -> tuple[str]:
        return (json.dumps(payload, sort_keys=True, separators=(",", ":")),)

# One event as that json.dumps call writes it: its five keys in sorted order.
_EVENT_LINE = '{"actor":%s,"event":%s,"payload":%s,"step":%d,"trial":%d}\n'

# gather's translate: bytes without the high bit are deleted, and it is cleared
# on the rest. _FLIP turns a settle's mask of taken pairs into its keep mask.
_DROPPED = bytes(range(0x80))
_KEPT = bytes(c & 0x7F for c in range(256))
_FLIP = b"\x01".ljust(256, b"\x00")
# A trial's byte of a batch's keep mask, by whether the trial stays.
_KEPT_TRIAL = (b"\x00", b"\x01")
# Translate tables from a bit byte to its ASCII digit, for the bit strings a
# transcript logs, and from a code byte to the digit of its high or low bit.
DIGITS = b"01".ljust(256, b"?")
_HIGH, _LOW = (bytes(b"01"[c >> shift & 1] for c in range(256)) for shift in (1, 0))
# Every byte x << 3 | y of a code x and a y below 4, by y: the first 4m are
# those with y below m. A y is an index into at most four names; deleting the
# first m bytes of _Y_CODES from a column leaves its codes not below m.
_PAIR_KEYS = bytes(x << 3 | y for y in range(4) for x in range(4))
_Y_CODES = bytes(range(4))
# Every byte value, in order: slice c, c + 1 is the one byte c.
_BYTES = bytes(range(256))


def gather(codes: bytes, mask) -> bytes:
    """The bytes of ``codes`` where ``mask``, a 0/1 byte per code, is 1, in
    order: one big-int OR sets the high bit of each such byte, and one
    ``translate`` deletes the bytes without it and clears it on the rest.
    Every byte of ``codes`` must be below 0x80."""
    selected = int.from_bytes(codes) | int.from_bytes(mask) << 7
    return selected.to_bytes(len(mask)).translate(_KEPT, _DROPPED)


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
    """Progress of the run as a whole; operations enforce this order.

    Each phase carries its ``stage``, the disposition every live pair has
    in it; its number keeps two phases of one stage distinct. A
    transmission's phase is set before the channel acts on the pairs; none
    is live once DONE.
    """

    CREATED = 0, Disposition.PREPARED
    SENT_1 = 1, Disposition.IN_FLIGHT_1
    CHECKED_1 = 2, Disposition.IN_FLIGHT_1
    SENT_2 = 3, Disposition.IN_FLIGHT_2
    DECODED = 4, Disposition.DECODED
    CHECKED_2 = 5, Disposition.DECODED
    DONE = 6, Disposition.KEY

    def __init__(self, order: int, stage: Disposition):
        self.stage = stage


# The parties of a chain, in order: each hop's sender, then its receiver.
PARTIES = ("alice", "bob", "clare")


class Transcript:
    """Ordered event log of a run, kept as its rendered lines.

    Each line is one JSON object with the fixed field set {trial, step,
    actor, event, payload}: ``trial`` and ``step`` are ints, ``actor`` and
    ``event`` strings, and ``payload`` is the transcript's ``extra`` fields
    updated with the logged ones. ``sender`` and ``receiver`` name the hop's
    two parties, the actors of their own steps' events (by default the
    chain's first hop, alice -> bob). Two runs with the same configuration
    and seed produce byte-identical transcripts.
    """

    def __init__(
        self,
        trial: int = 0,
        extra: dict | None = None,
        sender: str = PARTIES[0],
        receiver: str = PARTIES[1],
    ):
        self.trial = trial
        self.extra = extra or {}
        self.sender = sender
        self.receiver = receiver
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
    """A read-only snapshot of one pair, rebuilt from the ledger's logs."""

    index: int
    prepared: BellState
    disposition: Disposition
    carrier: int
    fake_carrier: int | None
    outcome: BellState | None
    guess: int | None


class PairLedger:
    """One trial's logs and run-level state; the columns a step reads are
    its batch's (``Batch``).

    ``prepared`` holds the preparation codes by pair ordinal. ``live``
    counts the pairs with no terminal disposition yet, whose disposition is
    ``stage``, set by ``phase``; only the ledger holds their ordinals.
    ``settled`` logs each settle's (cuts before it, terminal disposition),
    whose ordinals ``ordinals`` rebuilds from ``_cuts``, each partial
    settle's keep mask; ``fills`` logs each fill's record (name, cuts,
    prepared codes, codes, names). ``transcript`` is the event log, or None
    when the run records none.
    """

    def __init__(self, prepared: bytes | list[int], transcript: Transcript | None = None):
        self.prepared = bytes(prepared)
        self.live = len(self.prepared)
        # The live pairs' ordinals: a range until the first partial settle
        # lists the ones it keeps.
        self._live_ordinals: range | list[int] = range(self.live)
        self._cuts: list[bytes] = []
        self.fills: list[tuple[str, int, bytes, bytes, tuple[str, ...] | None]] = []
        self.settled: list[tuple[int, Disposition]] = []
        self.transcript = transcript
        self.phase = Phase.CREATED
        self.check1: CheckReport | None = None
        self.check2: CheckReport | None = None
        # Fraction of transmitted particles the receiver actually got, per
        # transmission; None until that transmission happened.
        self.receipt_1: float | None = None
        self.receipt_2: float | None = None

    @property
    def stage(self) -> Disposition:
        """The disposition every live pair has: its phase's stage."""
        return self.phase.stage

    def fill(self, name: str, prepared: bytes, codes: bytes, names: tuple[str, ...] | None = None):
        """Log a fill of column ``name`` with ``codes``, one byte per live
        pair, in order, each an index into ``names`` (None for a column of
        pair states); ``prepared`` holds the live pairs' prepared codes."""
        self.fills.append((name, len(self._cuts), prepared, codes, names))

    def cut(self, codes: bytes) -> bytes:
        """``codes``, one byte per prepared pair, cut by every settle of
        some live pairs: the bytes of the live pairs, in order."""
        for keep in self._cuts:
            codes = gather(codes, keep)
        return codes

    def counts(self, name: str) -> dict[str, dict[str, int]]:
        """``joint_counts`` of the prepared codes against column ``name`` at
        the pairs of its last fill, in that fill's alphabet; {} when it was
        never filled, as both row columns of an early abort."""
        for fill in reversed(self.fills):
            if fill[0] == name:
                return joint_counts(*fill[2:])
        return {}

    def settle(self, taken: bytes | None, disposition: Disposition) -> tuple[int, ...] | None:
        """Give the live pairs where ``taken``, a 0/1 byte per live pair, is
        1 a terminal disposition: its keep mask becomes the next cut, and the
        taken pairs' ordinals are returned, for a transcript to log, when the
        ledger keeps one (else None). None settles every live pair, cuts
        nothing and returns None. Either logs (cuts before it, disposition)."""
        self.settled.append((len(self._cuts), disposition))
        if taken is None:
            self.live, self._live_ordinals = 0, []
            return None
        ordinals, keep = self._live_ordinals, taken.translate(_FLIP)
        self._live_ordinals = list(compress(ordinals, keep))
        self.live = len(self._live_ordinals)
        self._cuts.append(keep)
        return None if self.transcript is None else tuple(compress(ordinals, taken))

    def ordinals(self) -> tuple[list[list[int]], list[tuple[list[int], Disposition]]]:
        """The pair ordinals the logs stand for, rebuilt on each call by
        chaining ``compress`` over ``range(n)`` through the cuts: the
        ordinals live after each number of cuts, in order, and each settle's
        (ordinals, disposition), in log order. A settle took a cut exactly
        when the cut count grew by the next settle (or by now): its pairs
        are then the zeros of that keep mask, else every pair live then."""
        lives = [list(range(len(self.prepared)))]
        for keep in self._cuts:
            lives.append(list(compress(lives[-1], keep)))
        settles = []
        ends = [gen for gen, _ in self.settled[1:]] + [len(self._cuts)]
        for (gen, disposition), end in zip(self.settled, ends):
            taken = lives[gen]
            if end > gen:  # it took cut gen: its pairs are the zeros of that keep mask
                taken = list(compress(taken, self._cuts[gen].translate(_FLIP)))
            settles.append((taken, disposition))
        return lives, settles

    def disposition_counts(self) -> dict[str, int]:
        settles = self.ordinals()[1]
        counts = {d.value: sum(len(o) for o, s in settles if s is d) for d in Disposition}
        counts[self.stage.value] += self.live
        return counts

    @property
    def records(self) -> tuple[PairRecord, ...]:
        """Every pair as a ``PairRecord``, rebuilt from the settle and fill
        logs on each read."""
        n = len(self.prepared)
        lives, settles = self.ordinals()
        fates = [self.stage] * n
        for ordinals, disposition in settles:
            for i in ordinals:
                fates[i] = disposition
        # A fill of the genuine states updates them; a fill of another column
        # replaces it, leaving None at every pair the fill did not reach.
        # A fill after k cuts is at the ordinals live after k cuts.
        none = [None] * n
        columns = {"state": list(self.prepared), "planted": none, "outcome": none, "guesses": none}
        for name, gen, _, codes, _ in self.fills:
            column = columns[name] = columns[name] if name == "state" else [None] * n
            for i, code in zip(lives[gen], codes):
                column[i] = code
        state, planted, outcome, guesses = columns.values()
        outcome = [code if code is None else BELL_LABELS[code] for code in outcome]
        labels = [BELL_LABELS[code] for code in self.prepared]
        return tuple(map(PairRecord, range(n), labels, fates, state, planted, outcome, guesses))


def parts(data: bytes, sizes: list[int]) -> list[bytes]:
    """``data`` cut into consecutive parts of ``sizes``: each trial's bytes
    of a batch's column, or of anything laid out as one."""
    if len(sizes) == 1:
        return [data]
    ends = list(accumulate(sizes))
    return [data[end - n : end] for n, end in zip(sizes, ends)]


class Batch:
    """Trials that take each protocol step together: their ledgers, in
    trial order, and each column at the live pairs of all of them, joined
    in that order; every step acts on one.

    ``sizes`` counts each trial's live pairs, so a trial's bytes of a column
    follow those of the trials before it (``parts``), and ``live`` counts
    them all. ``_views`` holds each column as (cuts taken, codes), each cut
    a column has not taken yet a later entry of ``_cuts``, a settle's keep
    mask over the batch, so a column is cut on its first read after a
    settle. A step measures, gathers and cuts a batch's columns once for
    all its trials, and fills and settles through the batch, which logs
    each trial's part in that trial's ledger, so a ledger reads the same
    after a step whatever batch it took the step in. Each trial logs to its
    own transcript; the trials of a batch all keep one, or none does.
    """

    def __init__(self, ledgers: list[PairLedger]):
        """The batch of ``ledgers``, just prepared."""
        self.ledgers = ledgers
        self.sizes = [ledger.live for ledger in ledgers]
        self.live = sum(self.sizes)
        codes = b"".join([ledger.prepared for ledger in ledgers])
        self._views = {"prepared": (0, codes), "state": (0, codes)}
        self._cuts: list[bytes] = []
        # Not None when the trials keep transcripts (all do, or none).
        self.transcript = ledgers[0].transcript

    @property
    def phase(self) -> Phase:
        """The phase every trial of the batch stands in."""
        return self.ledgers[0].phase

    @phase.setter
    def phase(self, phase: Phase):
        for ledger in self.ledgers:
            ledger.phase = phase

    @property
    def receiver_state(self) -> bytes:
        """The column the receiver's measurements act on: the planted pairs
        once the adversary substituted them, else the genuine ones."""
        return self.column("planted" if self.filled("planted") else "state")

    def column(self, name: str) -> bytes:
        """Column ``name`` at the live pairs, in order, once it has taken the
        cut of each settle since its last read."""
        gen, codes = self._views[name]
        if gen < len(self._cuts):
            for keep in self._cuts[gen:]:
                codes = gather(codes, keep)
            self._views[name] = len(self._cuts), codes
        return codes if self.live else b""

    def filled(self, name: str) -> bool:
        """Whether column ``name`` holds codes: ``prepared`` and ``state``
        from the start, another once a step filled it."""
        return name in self._views

    def fill(
        self, name: str, codes: bytes, names: tuple[str, ...] | None = None, stand: bool = False
    ):
        """Set column ``name`` to ``codes``, one byte per live pair, in order,
        each an index into ``names`` (None for a column of pair states), and
        log each trial's part in its ledger (``PairLedger.fill``). With
        ``stand``, a trial with no live pair logs no fill, so its last fill
        of the column stands."""
        prepared = parts(self.column("prepared"), self.sizes)
        for ledger, at, part in zip(self.ledgers, prepared, parts(codes, self.sizes)):
            if ledger.live or not stand:
                ledger.fill(name, at, part, names)
        self._views[name] = len(self._cuts), codes

    def settle(self, taken: bytes | None, disposition: Disposition) -> list | None:
        """``PairLedger.settle`` of each trial with its part of ``taken``, a
        0/1 byte per live pair, whose keep mask becomes the batch's next cut;
        returns what each trial's settle returned, and () for a trial none
        of whose pairs is taken, which logs no settle. None settles every
        live pair, and returns None."""
        returned = None
        if taken is None:
            for ledger in self.ledgers:
                ledger.settle(None, disposition)
        else:
            keeps, returned = [], []
            for ledger, part in zip(self.ledgers, parts(taken, self.sizes)):
                if 1 in part:
                    returned.append(ledger.settle(part, disposition))
                    keeps.append(ledger._cuts[-1])
                else:
                    returned.append(())
                    keeps.append(part.translate(_FLIP))
            self._cuts.append(b"".join(keeps))
        self.sizes = [ledger.live for ledger in self.ledgers]
        self.live = sum(self.sizes)
        return returned

    def keep(self, kept: list[bool]):
        """Keep only the trials where ``kept`` is true, in order: the others
        leave the batch (by an abort), and their bytes the next cut."""
        if not all(kept):
            self._cuts.append(b"".join([_KEPT_TRIAL[k] * n for k, n in zip(kept, self.sizes)]))
            self.ledgers = list(compress(self.ledgers, kept))
            self.sizes = list(compress(self.sizes, kept))
            self.live = sum(self.sizes)


def joint_counts(prepared: bytes, ys: bytes, y_names) -> dict[str, dict[str, int]]:
    """Nested counts {key code of prepared[i]: {y_names[ys[i]]: n}} over
    every pair, in order of first appearance.

    ``ys`` holds one y per pair, an index into ``y_names``, and is as long as
    ``prepared`` or empty for no pair: a compact column and the prepared
    codes of the pairs it was filled at. Each pair is the byte
    ``prepared[i] << 3 | ys[i]``, built for every pair at once; each of
    the at most ``4 * len(y_names)`` possible bytes is found in one pass,
    and counted by deleting it from what is left. A y not below
    ``len(y_names)``, or not below 4, raises ValueError.
    """
    counts: dict[str, dict[str, int]] = {}
    if not ys:
        return counts
    if ys.translate(None, _Y_CODES[: len(y_names)]):
        raise ValueError(f"ys holds a code outside its alphabet of {len(y_names)} names")
    pairs = (int.from_bytes(prepared) << 3 | int.from_bytes(ys)).to_bytes(len(ys))
    keys = _PAIR_KEYS[: 4 * len(y_names)]
    present = sorted((pairs.find(key), key) for key in keys if key in pairs)
    # A key's count is how many bytes deleting it takes from what deleting
    # the keys before it left; the last key's is all that is left.
    rest, last = pairs, present[-1][1]
    for _, key in present:
        left = rest.translate(None, _BYTES[key : key + 1]) if key != last else b""
        counts.setdefault(CODES[key >> 3], {})[y_names[key & 7]] = len(rest) - len(left)
        rest = left
    return counts


class CheckReport(NamedTuple):
    """Outcome of one eavesdropping check over a published random sample:
    what its report row publishes. Which check it is, is the ledger slot
    that holds it (``check1`` or ``check2``); the bases a first check
    announced are the transcript's to log."""

    sample_size: int
    mismatches: int
    threshold: float

    @property
    def error_rate(self) -> float:
        return self.mismatches / self.sample_size

    @property
    def passed(self) -> bool:
        return self.mismatches / self.sample_size <= self.threshold

    def to_dict(self) -> dict:
        """The published summary, as report rows and transcripts carry it:
        ``sample_size``, ``mismatches``, ``error_rate``, ``threshold`` and
        ``passed``, with the rate computed once."""
        size, mismatches, threshold = self
        rate = mismatches / size
        return {
            "sample_size": size,
            "mismatches": mismatches,
            "error_rate": rate,
            "threshold": threshold,
            "passed": rate <= threshold,
        }

