"""Bookkeeping types for a protocol run: the batch every step acts on, each
trial's ledger of logs, and the run's transcript.

A ``Batch`` holds its trials' ``PairLedger``s, in trial order, and its byte
columns, one byte per live pair (a pair with no terminal disposition yet)
of all its trials, joined in trial order and, within a trial, in ordinal
order: the preparation codes, the genuine pairs' state codes (``quantum``'s
int codes: a pair-state label, or a product of Z/X eigenstates once a half
was measured), the planted pairs' codes, the decode results and the
adversary's guesses. ``Batch.column`` reads one, and ``Batch.sizes`` counts
each trial's bytes of it. A trial's ledger holds no column, only its settle
log, its fill log and its state, which read the same whatever batch the
trial took its steps in.

A settle gives some live pairs a terminal disposition (consumed by a check,
contributing to the key, or lost in transit) and drops them from the live
pairs. ``Batch.settle`` takes them as a mask, a byte per live pair that is 1
where the pair is taken, as a check's sample or the opaque attack's losses
arrive, and flips it once, by one ``translate``, into the keep mask: the
batch's next cut. Each trial's part of it, where it takes some pair, is that
trial's entry (keep mask, disposition) of its settle log,
``PairLedger.settled``; a settle of every live pair, at an abort or at key
extraction, logs (None, disposition), cuts nothing and is O(1). The settle
log is the only record of a trial's settles, and holds no ordinal:
``PairLedger.cut`` cuts a full-length column, such as ``prepared``, by its
keep masks (a sender's key is her prepared codes cut so);
``disposition_counts`` counts each mask's zero bytes; and ``ordinals``
rebuilds the pair ordinals from it on demand, which ``records`` and the
tests read. A settle returns nothing and builds no object per pair.

A batch's column is cut on its first read after a settle by ``gather`` (one
big-int OR and one ``translate``) under each keep mask since, as a check
reads its sample from each column under the sample's mask. ``gather`` rests
on the columns' one contract: a compact column holds one code below 0x80 per
live pair, so no byte of a column has the high bit of its own. The stacking
rule: two columns whose codes fit in seven bits together take one
compaction, not two. ``stack`` sets one column's codes above the other's
bits, one ``gather`` takes the stacked bytes, and plain ``translate``s
split them; a check so samples the receiver's states (below 32, bits 0-4)
with the prepared codes (bits 5-6), or the decode results with the
prepared codes. A compaction's deleting ``translate`` takes a branch per
byte, which a fresh mask mispredicts; a plain ``translate`` takes none. A
trial that aborts leaves the batch, whose columns then lose its bytes by
one more cut, and cuts no column of its own. A batch of one trial cuts,
fills and settles its one ledger with the batch's own bytes, copying no
column.

``Batch.fill`` is the only writer of a column, and logs each trial's part of
it in that trial's fill log, ``PairLedger.fills``, as the plain tuple (name,
settles, codes, names): the column, the number of settles before it, one
code per pair live then, and the alphabet its codes index. That alphabet is
``CODES`` for the decode results and for the adversary's Bell or two-bit
guesses, the two bit names for her one-bit guesses, and None for the
pair-state columns ``state`` and ``planted``. A fill of no pair is never
logged, so a trial with no live pair keeps its last fill of the column. The
prepared codes of a fill's pairs are ``prepared`` cut by the keep masks
before it, and ``PairLedger.counts`` counts the last fill of a column
against them, as bytes, with ``joint_counts``, naming each code through that
fill's alphabet. A cut of the batch's prepared column hands each trial its
part, so a hop's decode fill is counted against the cut its second check
made, and ``prepared`` is not cut twice. A step fills only the post states
a later step reads; a measurement that consumes its pairs (either check,
the decode, or the fake-EPR adversary's capture of the genuine pairs)
writes back none. ``Batch.filled`` says whether a column holds codes yet.
No step builds an object per pair: ``PairLedger.records`` rebuilds
read-only ``PairRecord`` views from the two logs, with None where a pair
has no value, only when something reads them.

The run's progress is one ledger field, ``phase``. The pairs still live all
stand at the same stage, the one ``Phase`` names for that phase, so the
settle log holds only the terminal fates.

The planted column holds the pairs the fake-EPR adversary planted in place
of the genuine ones; once it is filled, the receiver's measurements act on
it rather than on the genuine pairs. Who holds which particle follows from
the disposition: the receiver holds a pair's second half from the first
transmission on unless the pair was ``DROPPED``, and holds the whole pair
(planted or genuine) once it is ``IN_FLIGHT_2``.

Besides its two logs a ledger keeps the three facts of a hop that its
transcript publishes and no log holds: the first check's announced bases
and both sides' published bits (``published``), each transmission's sent
and received counts (``transmitted``, from which its ``receipt_<n>`` is
derived), and the step at which the trial aborted (``abort_step``). The
first two are kept only in a batch whose trials collect transcripts
(``Batch.transcribed``): a detect trial takes about 10 us, and slicing
them per trial would cost several percent of it.

No step logs an event. ``render_transcript`` writes a hop's
:class:`Transcript` once the hop ended, from its ledger, its attack and its
abort reason, in the order the steps took their events, each line as
``json.dumps(event, sort_keys=True, separators=(",", ":"))`` writes it:
one fixed ``%`` template per event, with its payload keys in sorted order
and a slot for the hop's ``{"hop": k}`` tag, so it builds no payload dict
and runs no JSON encoder; ``Transcript.log`` appends one event of any
payload through that ``json.dumps`` call. The ledger holds no party names: the transcript names
the hop's ``sender`` and ``receiver``, the actors of their events, since
nothing else reads them; ``PARTIES`` spells the chain's names once, in
order.
"""
from __future__ import annotations

import json
from enum import Enum
from functools import reduce
from itertools import accumulate, compress
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .quantum import BELL_LABELS, CODES, BellState

# gather's translate: bytes without the high bit are deleted, and it is cleared
# on the rest. _FLIP turns a settle's mask of taken pairs into its keep mask.
_DROPPED = bytes(range(0x80))
_KEPT = bytes(c & 0x7F for c in range(256))
_FLIP = b"\x01".ljust(256, b"\x00")
# A trial's byte of a batch's keep mask, by whether the trial stays.
_KEPT_TRIAL = (b"\x00", b"\x01")
# Translate tables from a byte to the ASCII digit of its bit 1 or bit 0 (of a
# code, its key bits), and to the letter of the basis named by its bits 2-3
# (a first check's basis draw, whose top bit picks X over Z).
_HIGH, _LOW = (bytes(b"01"[c >> shift & 1] for c in range(256)) for shift in (1, 0))
_BASES = bytes(b"zzxx"[c >> 2 & 3] for c in range(256))
# A y is an index into at most four names; deleting the first m bytes of
# _Y_CODES from a column leaves its codes not below m.
_Y_CODES = bytes(range(4))
# joint_counts' bit planes. A pair is the byte x << 3 | y of a code x and a y
# below 4, its cell. _MASKS[i] keeps bit i of each byte of a slice of _SLICE
# pairs, the most joint_counts counts at once.
_SLICE = 1 << 14
_ONES = int.from_bytes(b"\x01" * _SLICE)
_MASKS = [_ONES << i for i in range(8)]


def _plane(y: int) -> tuple[list[int], bytes]:
    """The eight cells of the ys y and y + 1, and the translate table that
    maps the i-th of them to bit i of a byte and every other byte to 0."""
    table = bytearray(256)
    table[y:32:8], table[y + 1 : 32 : 8] = b"\x01\x02\x04\x08", b"\x10\x20\x40\x80"
    return [x << 3 | y + i for i in (0, 1) for x in range(4)], bytes(table)


# The cells of y 0 and 1, then of y 2 and 3: m names take the first (m + 1) // 2.
_PLANES = [_plane(0), _plane(2)]


def gather(codes: bytes, mask) -> bytes:
    """The bytes of ``codes`` where ``mask``, a 0/1 byte per code, is 1, in
    order: one big-int OR sets the high bit of each such byte, and one
    ``translate`` deletes the bytes without it and clears it on the rest.
    Every byte of ``codes`` must be below 0x80."""
    selected = int.from_bytes(codes) | int.from_bytes(mask) << 7
    return selected.to_bytes(len(mask)).translate(_KEPT, _DROPPED)


def stack(high: bytes, low: bytes, shift: int) -> bytes:
    """Each byte of ``high`` shifted ``shift`` bits up, over the byte of
    ``low`` at its place, which must be below ``1 << shift``: two columns
    in one, which ``gather`` takes while every stacked byte is below 0x80."""
    return (int.from_bytes(high) << shift | int.from_bytes(low)).to_bytes(len(low))


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
        """Append the event's line, ``json.dumps(event, sort_keys=True,
        separators=(",", ":"))`` plus a newline."""
        fields = {"trial": self.trial, "step": step, "actor": actor, "event": event}
        fields["payload"] = {**self.extra, **(payload or {})}
        self.lines.append(json.dumps(fields, sort_keys=True, separators=(",", ":")) + "\n")

    def to_jsonl(self) -> str:
        return "".join(self.lines)


# Each event's line as ``Transcript.log`` writes it, as a ``%`` template: the
# payload's keys in sorted order, with a %s for the hop tag ('"hop":k,', or
# nothing) before the first key that sorts after "hop" (no payload's last key
# sorts before it), and the trial last.
(
    _PREPARE, _SEND, _RECEIVE, _MEASURED, _PLANTED, _CAPTURED, _DESTROYED,
    _MEASURE_CHECK, _NOTIFY, _PARTNER, _CHECK, _DECODE, _ABORT, _COMMIT,
) = (
    '{"actor":%s,"event":"prepare","payload":{"codes":"%s",%s"pairs":%d},"step":1,"trial":%d}\n',
    '{"actor":%s,"event":"send","payload":{"count":%d,%s"sequence":%d},"step":%d,"trial":%d}\n',
    '{"actor":%s,"event":"receive","payload":{"expected":%d,%s"received":%d,"sequence":%d},'
    '"step":%d,"trial":%d}\n',
    '{"actor":"eve","event":"interpose","payload":{%s"measured":%d,"outcomes":"%s","sequence":%d,'
    '"strategy":"%s"},"step":%d,"trial":%d}\n',
    '{"actor":"eve","event":"interpose","payload":{"captured":%d,"fake_codes":"%s",%s"planted":%d,'
    '"sequence":1,"strategy":"%s"},"step":2,"trial":%d}\n',
    '{"actor":"eve","event":"interpose","payload":{"captured":%d,%s"inferred_codes":"%s",'
    '"sequence":2,"strategy":"%s"},"step":5,"trial":%d}\n',
    '{"actor":"eve","event":"interpose","payload":{"destroyed":%d,"destroyed_indices":%s,'
    '"forwarded":%d,%s"sequence":%d,"strategy":"%s"},"step":%d,"trial":%d}\n',
    '{"actor":%s,"event":"measure_check_sample","payload":{"bases":"%s","bits":"%s",'
    '%s"indices":%s},"step":3,"trial":%d}\n',
    '{"actor":%s,"event":"notify","payload":{"check_indices":%s,%s"message":"sequence-1-received"},'
    '"step":4,"trial":%d}\n',
    '{"actor":%s,"event":"measure_partner_sample","payload":{"bits":"%s",%s"indices":%s},"step":4,'
    '"trial":%d}\n',
    '{"actor":"public","event":"check","payload":{"check":"%s","error_rate":%r,%s"mismatches":%d,'
    '"passed":%s,"sample_size":%d,"threshold":%r},"step":%d,"trial":%d}\n',
    '{"actor":%s,"event":"decode","payload":{"codes":"%s",%s"pairs":%d},"step":6,"trial":%d}\n',
    '{"actor":"public","event":"abort","payload":{%s"reason":%s},"step":%d,"trial":%d}\n',
    '{"actor":"public","event":"commit","payload":{%s"key_bits":%d},"step":7,"trial":%d}\n',
)


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
    ``stage``, set by ``phase``. ``settled`` logs each settle's (keep mask,
    terminal disposition), the mask a 0/1 byte per pair live then that is 0
    where the settle took the pair, or None where it took every one.
    ``fills`` logs each fill of some pairs as (name, settles before it,
    codes, names). ``check1`` and ``check2`` hold each check's
    ``CheckReport``, and ``receipt_1`` and ``receipt_2`` the fraction of
    each transmission's particles that the receiver got, once it happened.

    ``published`` holds the first check's byte per sampled pair, in order:
    its basis draw (0-3, 0 when every basis is Z) in bits 2-3, the
    receiver's published bit in bit 1 and the sender's in bit 0.
    ``transmitted`` holds each transmission's (sent, received) counts, in
    order, and ``abort_step`` the step at which the trial aborted.
    ``transcript`` is the transcript ``render_transcript`` wrote the hop
    into, or None when the run records none.
    """

    # The class holds what only some ledgers set, so building one sets
    # nothing more: (k, the prepared codes of the pairs live after k
    # settles), as the batch last cut its prepared column, which counts
    # reads, for no k; and the facts a transcribed or aborted trial keeps.
    _prepared_cut: tuple[int, bytes] = (-1, b"")
    published, transmitted = b"", ()
    abort_step = transcript = None

    def __init__(self, prepared: bytes | list[int]):
        self.prepared = bytes(prepared)
        self.live = len(self.prepared)
        self.fills: list[tuple[str, int, bytes, tuple[str, ...] | None]] = []
        self.settled: list[tuple[bytes | None, Disposition]] = []
        self.phase = Phase.CREATED
        # Set by the steps; every trial's row reads them.
        self.check1 = self.check2 = self.receipt_1 = self.receipt_2 = None

    @property
    def stage(self) -> Disposition:
        """The disposition every live pair has: its phase's stage."""
        return self.phase.stage

    def fill(self, name: str, codes: bytes, names: tuple[str, ...] | None = None):
        """Log a fill of column ``name`` with ``codes``, one byte per live
        pair, in order, each an index into ``names`` (None for a column of
        pair states). A fill of no pair is not logged, so the last fill of
        the column stands."""
        if codes:
            self.fills.append((name, len(self.settled), codes, names))

    def cut(self, codes: bytes, settles: int | None = None) -> bytes:
        """``codes``, one byte per prepared pair, cut by the keep mask of
        each of the first ``settles`` settles (of every settle by default):
        the bytes of the pairs live after them, in order."""
        masks = [keep for keep, _ in self.settled[:settles] if keep is not None]
        return reduce(gather, masks, codes)

    def counts(self, name: str) -> dict[str, dict[str, int]]:
        """``joint_counts`` of the prepared codes against column ``name`` at
        the pairs of its last fill, in that fill's alphabet; {} when it was
        never filled, as both row columns of an early abort. The prepared
        codes of those pairs are the trial's part of the batch's last cut
        of its prepared column when that cut was of the same settles, as a
        hop's second check leaves them for its decode fill, and are cut
        from ``prepared`` anew only otherwise."""
        for fill, settles, codes, names in reversed(self.fills):
            if fill == name:
                cut, prepared = self._prepared_cut
                if cut != settles:
                    prepared = self.cut(self.prepared, settles)
                return joint_counts(prepared, codes, names)
        return {}

    def settle(self, keep: bytes | None, disposition: Disposition):
        """Give the live pairs where ``keep``, a 0/1 byte per live pair, is 0
        a terminal disposition: its 1 bytes count the pairs left live. None
        settles every live pair. Either logs (keep, disposition)."""
        self.settled.append((keep, disposition))
        self.live = 0 if keep is None else keep.count(1)

    def ordinals(self) -> tuple[list[list[int]], list[tuple[list[int], Disposition]]]:
        """The pair ordinals the settle log stands for, rebuilt on each call
        by chaining ``compress`` over ``range(n)`` through its keep masks:
        the ordinals live after each number of settles, in order, and each
        settle's (ordinals, disposition), in log order. A settle's pairs are
        the zeros of its keep mask; a settle with none took every pair live
        then."""
        lives, settles = [list(range(len(self.prepared)))], []
        for keep, disposition in self.settled:
            live = lives[-1]
            keep = bytes(len(live)) if keep is None else keep
            lives.append(list(compress(live, keep)))
            settles.append((list(compress(live, keep.translate(_FLIP))), disposition))
        return lives, settles

    def disposition_counts(self) -> dict[str, int]:
        """How many pairs stand at each disposition: each settle's pairs,
        the zero bytes of its keep mask (every pair live then, for a settle
        with none), and the live pairs at their stage."""
        counts = dict.fromkeys([d.value for d in Disposition], 0)
        live = len(self.prepared)
        for keep, disposition in self.settled:
            taken = live if keep is None else keep.count(0)
            counts[disposition.value] += taken
            live -= taken
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
        # A fill after k settles is at the ordinals live after k settles.
        none = [None] * n
        columns = {"state": list(self.prepared), "planted": none, "outcome": none, "guesses": none}
        for name, before, codes, _ in self.fills:
            column = columns[name] = columns[name] if name == "state" else [None] * n
            for i, code in zip(lives[before], codes):
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
    mask over the batch, whose part for each trial that trial's settle log
    holds, so a column is cut on its first read after a settle. A step
    measures, gathers and cuts a batch's columns once for all its trials,
    and fills and settles through the batch, which logs each trial's part
    in that trial's ledger, so a ledger reads the same after a step
    whatever batch it took the step in.

    ``transcribed`` says whether the trials collect transcripts: only then
    do the steps keep in each ledger the facts that its transcript
    publishes and no log holds (``published`` and ``transmitted``).
    """

    transcribed = False

    def __init__(self, ledgers: list[PairLedger]):
        """The batch of ``ledgers``, just prepared."""
        self.ledgers = ledgers
        self.sizes = [ledger.live for ledger in ledgers]
        self.live = sum(self.sizes)
        codes = b"".join([ledger.prepared for ledger in ledgers])
        self._views = {"prepared": (0, codes), "state": (0, codes)}
        self._cuts: list[bytes] = []

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
        cut of each settle since its last read. A cut of ``prepared`` hands
        each trial its part, which ``PairLedger.counts`` reads."""
        gen, codes = self._views[name]
        if gen < len(self._cuts):
            codes = reduce(gather, self._cuts[gen:], codes)
            self._views[name] = len(self._cuts), codes
            if name == "prepared":
                for ledger, part in zip(self.ledgers, parts(codes, self.sizes)):
                    ledger._prepared_cut = len(ledger.settled), part
        return codes if self.live else b""

    def filled(self, name: str) -> bool:
        """Whether column ``name`` holds codes: ``prepared`` and ``state``
        from the start, another once a step filled it."""
        return name in self._views

    def fill(self, name: str, codes: bytes, names: tuple[str, ...] | None = None):
        """Set column ``name`` to ``codes``, one byte per live pair, in order,
        each an index into ``names`` (None for a column of pair states), and
        log each trial's part in its ledger (``PairLedger.fill``, which logs
        no fill of no pair)."""
        for ledger, part in zip(self.ledgers, parts(codes, self.sizes)):
            ledger.fill(name, part, names)
        self._views[name] = len(self._cuts), codes

    def settle(self, taken: bytes | None, disposition: Disposition):
        """Give the live pairs where ``taken``, a 0/1 byte per live pair, is
        1 a terminal disposition: its keep mask, flipped once, becomes the
        batch's next cut, and each trial's part of it that takes some pair
        is that trial's ``PairLedger.settle``; a trial none of whose pairs
        is taken logs no settle. None settles every live pair."""
        if taken is None:
            for ledger in self.ledgers:
                ledger.settle(None, disposition)
        else:
            keep = taken.translate(_FLIP)
            self._cuts.append(keep)
            for ledger, part in zip(self.ledgers, parts(keep, self.sizes)):
                if 0 in part:
                    ledger.settle(part, disposition)
        self.sizes = [ledger.live for ledger in self.ledgers]
        self.live = sum(self.sizes)

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
    ``prepared[i] << 3 | ys[i]``, built for a slice of at most ``_SLICE``
    pairs at once, so the work holds a few slices whatever the length.
    One plain ``translate`` per plane of eight cells (one plane for two
    names, two for three or four) maps each pair of the slice to its cell's
    bit of a byte; a cell's count is the ``bit_count`` of that bit, masked
    in every byte, and its first appearance one ``find`` in the slice it
    first shows in. No count branches on a pair's byte. A y not below
    ``len(y_names)``, or not below 4, raises ValueError.
    """
    counts: dict[str, dict[str, int]] = {}
    if not ys:
        return counts
    if ys.translate(None, _Y_CODES[: len(y_names)]):
        raise ValueError(f"ys holds a code outside its alphabet of {len(y_names)} names")
    firsts: dict[int, int] = {}
    tallies: dict[int, int] = {}
    for start in range(0, len(ys), _SLICE):
        pairs = stack(prepared[start : start + _SLICE], ys[start : start + _SLICE], 3)
        for cells, table in _PLANES[: (len(y_names) + 1) // 2]:
            plane = int.from_bytes(pairs.translate(table))
            for cell, mask in zip(cells, _MASKS):
                if n := (plane & mask).bit_count():
                    if cell not in firsts:
                        firsts[cell], tallies[cell] = start + pairs.find(cell), 0
                    tallies[cell] += n
    for cell in sorted(firsts, key=firsts.get):
        counts.setdefault(CODES[cell >> 3], {})[y_names[cell & 7]] = tallies[cell]
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



def render_transcript(ledger: PairLedger, transcript: Transcript, attack, reason: str | None):
    """Append the events of the hop ``ledger`` logged to ``transcript``,
    which becomes the ledger's ``transcript``: rendered from the ledger once
    the hop ended, in the order its steps took them, each line as
    ``Transcript.log`` would write it.

    ``attack`` is the hop's ``AttackStrategy``, and ``reason`` why the hop
    aborted, or None. The transcript's ``extra`` may hold only the hop tag
    ``{"hop": k}``. The events reach the settles that took some pairs (a
    loss, the first check) and the fills they show (the adversary's, the
    decode's) in log order, so each is read off its log in turn. A list of
    ordinals is rebuilt from the settle masks and joined once, for every
    event that carries it.
    """
    if transcript.extra.keys() - {"hop"}:
        raise ValueError("a rendered transcript is tagged by its hop alone")
    t, n, kind = transcript.trial, len(ledger.prepared), attack.kind.value
    ledger.transcript = transcript
    lines = transcript.lines
    hop = '"hop":%d,' % transcript.extra["hop"] if transcript.extra else ""
    sender, receiver = map(encode_basestring_ascii, (transcript.sender, transcript.receiver))
    fills = (codes for name, _, codes, _ in ledger.fills if name != "state")

    def taken():
        """Each settle's pairs, in log order, as the JSON list of their
        ordinals: its keep mask's zeros, chained lazily through the masks
        before it."""
        masks = []
        for keep, _ in ledger.settled:
            ordinals = reduce(compress, masks, range(n))
            yield "[%s]" % ",".join(map(str, compress(ordinals, keep.translate(_FLIP))))
            masks.append(keep)

    def check(name: str, report: CheckReport, step: int) -> str:
        size, mismatches, threshold = report
        passed = "true" if report.passed else "false"
        return _CHECK % (name, report.error_rate, hop, mismatches, passed, size, threshold, step, t)

    settles = taken()
    lines.append(_PREPARE % (sender, code_string(ledger.prepared), hop, n, t))
    for sequence, step, (sent, got) in zip((1, 2), (2, 5), ledger.transmitted):
        lines.append(_SEND % (sender, sent, hop, sequence, step, t))
        # A settle or a fill of no pair is not logged, nor is any fill after a
        # transmission of none.
        if kind == "opaque":
            lost = next(settles) if got < sent else "[]"
            lines.append(_DESTROYED % (sent - got, lost, got, hop, sequence, kind, step, t))
        elif kind == "fake-epr" and sequence == 1:
            lines.append(_PLANTED % (sent, code_string(next(fills)), hop, sent, kind, t))
        elif kind == "fake-epr":
            lines.append(_CAPTURED % (sent, hop, code_string(next(fills, b"")), kind, t))
        elif kind == "measure-resend" and (sequence == 1 or attack.measure_second_sequence):
            # A first-sequence guess is her bit; a second-sequence one holds it high.
            outcomes = next(fills, b"").translate(_LOW if sequence == 1 else _HIGH).decode()
            lines.append(_MEASURED % (hop, sent, outcomes, sequence, kind, step, t))
        lines.append(_RECEIVE % (receiver, sent, hop, got, sequence, step, t))
        if sequence == 1 and ledger.check1:
            sampled, published = next(settles), ledger.published
            bases, bits = published.translate(_BASES).decode(), published.translate(_HIGH).decode()
            lines += [
                _MEASURE_CHECK % (receiver, bases, bits, hop, sampled, t),
                _NOTIFY % (receiver, sampled, hop, t),
                _PARTNER % (sender, published.translate(_LOW).decode(), hop, sampled, t),
                check("first", ledger.check1, 4),
            ]
    if ledger.phase in (Phase.DECODED, Phase.CHECKED_2, Phase.DONE):
        decoded = next(fills, b"")
        lines.append(_DECODE % (receiver, code_string(decoded), hop, len(decoded), t))
    if ledger.check2:
        lines.append(check("second", ledger.check2, 7))
    if ledger.phase is Phase.DONE:
        # Every pair the second check left live is a key pair, of 2 bits.
        lines.append(_COMMIT % (hop, 2 * ledger.settled[-2][0].count(1), t))
    if reason:
        lines.append(_ABORT % (hop, encode_basestring_ascii(reason), ledger.abort_step, t))
