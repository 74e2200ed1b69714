"""Channel interposition: the analyzed eavesdropping strategies.

The adversary acts only on particles while they are in flight and only on
information she can physically obtain: her own measurement outcomes and her
own random draws. She never reads the sender's secret preparation choices.
What she learns is filled into the batch's ``guesses`` column as her guess
per pair, each fill naming the alphabet its guesses index and logged in
each trial's ledger, so a run can be scored afterwards without giving the
attack code oracle access. Each attack draws each trial's draws from that
trial's stream, the channel's list holding one per trial of the batch.

Strategies:

* ``none``            - identity channel.
* ``measure-resend``  - Z-measure every passing particle of the first
                        sequence and forward the collapsed particle. The
                        pair state collapses to a product state, which the
                        first check cannot see but the second check exposes
                        with a 50% error rate.
* ``fake-epr``        - keep the genuine first sequence, hand the receiver
                        one half of a freshly prepared pair instead, then
                        capture the second sequence and Bell-measure the
                        completed genuine pairs. Reads the whole key, at the
                        price of a 50% mismatch rate in the first check.
* ``opaque``          - destroy each passing particle with a fixed
                        probability and forward the survivors untouched.
                        Starves the receiver rather than reading anything;
                        countered by aborting on missing particles.
"""
from __future__ import annotations

from enum import Enum

from .errors import ConfigurationError
from .ledger import DIGITS, Batch, Disposition, PairLedger, code_string, parts
from .quantum import BELL_LABELS, CODES, KEYS, OPS, PAIR_BASIS, BellState, measure_column
# Unused here; the benchmark's traced run (bench/workloads.py) wraps these bindings.
from .quantum import measure_bell_basis, measure_qubit_z  # noqa: F401
from .record import Record, require_known_keys
from .rng import RandomSource

_BITS = ("0", "1")


class AttackKind(Enum):
    NONE = "none"
    MEASURE_RESEND = "measure-resend"
    FAKE_EPR = "fake-epr"
    OPAQUE = "opaque"


# The spellings of ``AttackStrategy.kind`` and ``fake_label`` in a config dict:
# a kind's value; a pair-state name, or "uniform" for a fresh uniform label
# per pair.
_ATTACK_KINDS = {kind.value: kind for kind in AttackKind}
FAKE_LABELS: dict[str, BellState | None] = {
    **{label.name.lower(): label for label in BELL_LABELS},
    "uniform": None,
}


class AttackStrategy(Record):
    """Attack selection plus the parameters meaningful for that kind.

    ``fake_label`` is the pair state planted by the fake-EPR attack; None
    draws a fresh uniform label per pair. The first-check detection
    statistic is the same either way. ``measure_second_sequence`` is a
    measure-resend extension: Eve also measures the second sequence, which
    leaks the pairing parity (one bit per pair) while destroying the run.
    """

    kind: AttackKind = AttackKind.NONE
    fake_label: BellState | None = BellState.PSI1
    destroy_probability: float = 0.0
    measure_second_sequence: bool = False

    def check(self):
        if not isinstance(self.kind, AttackKind):
            raise ConfigurationError(f"kind must be an AttackKind, got {self.kind!r}")
        if not isinstance(self.fake_label, (BellState, type(None))):
            raise ConfigurationError(f"fake_label must be a BellState or None: {self.fake_label!r}")
        if not 0.0 <= self.destroy_probability <= 1.0:
            raise ConfigurationError(
                f"destroy_probability must be in [0, 1], got {self.destroy_probability}"
            )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "fake_label": "uniform" if self.fake_label is None else self.fake_label.name.lower(),
            "destroy_probability": self.destroy_probability,
            "measure_second_sequence": self.measure_second_sequence,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AttackStrategy":
        """Parse the ``to_dict`` form; absent keys take their defaults."""
        require_known_keys("attack", data, cls)
        known = dict(data)
        for name, spellings in (("kind", _ATTACK_KINDS), ("fake_label", FAKE_LABELS)):
            if name in known:
                value = known[name]
                if not isinstance(value, str) or value not in spellings:
                    raise ConfigurationError(
                        f"attack.{name} must be one of {sorted(spellings)}, got {value!r}"
                    )
                known[name] = spellings[value]
        return cls(**known)


# One function per attack kind. Each acts on the batch's live pairs, which
# are the ones in flight for the given transmission, drawing each trial's
# draws from that trial's stream of ``rngs``, and returns each trial's
# transcript payload, or None when it left the particles alone or the batch
# records no transcript.


def _identity(channel, transmission, batch, rngs):
    return None


def _measure_resend(channel, transmission, batch, rngs):
    if transmission == 2 and not channel.strategy.measure_second_sequence:
        return None
    which = "second" if transmission == 1 else "first"
    keys = RandomSource.quarters_of(rngs, batch.sizes).translate(KEYS[OPS[which]["z"]])
    measured, posts = measure_column(batch.column("state"), keys)
    batch.fill("state", posts)
    if transmission == 1 or not batch.filled("guesses"):
        batch.fill("guesses", measured, _BITS)
    else:
        # Every pair still in flight was Z-measured on its other half at
        # transmission 1; her two bits name a guess like a key code, this
        # first-half bit high. A trial with no pair left in flight takes no
        # fill, so its one-bit guesses stand, and so do the bits of a second
        # sequence she alone measured.
        first = int.from_bytes(batch.column("guesses"))
        guesses = (int.from_bytes(measured) << 1 | first).to_bytes(len(measured))
        batch.fill("guesses", guesses, CODES, stand=True)
    if batch.transcript is None:
        return None
    outcomes = parts(measured.translate(DIGITS), batch.sizes)
    return [{"measured": len(bits), "outcomes": bits.decode()} for bits in outcomes]


def _fake_epr(channel, transmission, batch, rngs):
    if transmission == 1:
        # A uniform label is one 2-bit draw per pair.
        label = channel.strategy.fake_label
        if label is None:
            fakes = RandomSource.quarters_of(rngs, batch.sizes)
        else:
            fakes = bytes([label]) * batch.live
        batch.fill("planted", fakes)
        if batch.transcript is None:
            return None
        return [
            {"captured": len(codes), "planted": len(codes), "fake_codes": code_string(codes)}
            for codes in parts(fakes, batch.sizes)
        ]
    keys = RandomSource.quarters_of(rngs, batch.sizes).translate(KEYS[PAIR_BASIS])
    # The genuine pairs are consumed here: their post states are not kept.
    found, _ = measure_column(batch.column("state"), keys)
    batch.fill("guesses", found, CODES)
    if batch.transcript is None:
        return None
    return [
        {"captured": len(codes), "inferred_codes": code_string(codes)}
        for codes in parts(found, batch.sizes)
    ]


def _opaque(channel, transmission, batch, rngs):
    p = channel.strategy.destroy_probability
    # rng.bernoulli(p) per pair, a mask over the live pairs; settling none
    # would still cut every column once.
    randoms, sizes = [rng.random for rng in rngs], batch.sizes
    lost = b"".join([bytes([rand() < p for _ in range(n)]) for rand, n in zip(randoms, sizes)])
    # Only a transcript reads the lost pairs' ordinals, which the settle
    # returns; the pairs left live are the ones forwarded.
    if 1 in lost:
        destroyed = batch.settle(lost, Disposition.DROPPED)
    else:
        destroyed = [()] * len(batch.sizes)
    if batch.transcript is None:
        return None
    return [
        {"destroyed": len(indices), "forwarded": n, "destroyed_indices": indices}
        for indices, n in zip(destroyed, batch.sizes)
    ]


_ATTACKS = {
    AttackKind.NONE: _identity,
    AttackKind.MEASURE_RESEND: _measure_resend,
    AttackKind.FAKE_EPR: _fake_epr,
    AttackKind.OPAQUE: _opaque,
}


class AdversaryChannel:
    """A channel with a fixed strategy and a list of random streams, one for
    each trial of the batches it acts on."""

    def __init__(self, strategy: AttackStrategy, rngs: list[RandomSource]):
        self.strategy = strategy
        self.rngs = rngs

    def interpose(self, transmission: int, batch: Batch) -> list[dict] | None:
        """Apply the strategy to the particles currently in flight in each
        trial of ``batch``, drawing from that trial's stream.

        Mutates the batch (states, planted pairs, dispositions, guesses) in
        place. Returns each trial's transcript payload describing what was
        done, or None when the particles passed untouched or the batch
        records no transcript.
        """
        if transmission not in (1, 2):
            raise ConfigurationError(f"transmission must be 1 or 2, got {transmission}")
        payloads = _ATTACKS[self.strategy.kind](self, transmission, batch, self.rngs)
        if payloads is None:
            return None
        head = {"strategy": self.strategy.kind.value, "sequence": transmission}
        return [{**head, **payload} for payload in payloads]


def eve_guess_counts(ledger: PairLedger) -> dict[str, dict[str, int]]:
    """Joint counts {sender's code: {Eve's guess: n}} over the pairs she
    guessed. The ``prepared`` column supplies only the true codes being
    guessed at; the attack never reads it. An empty result means Eve
    recorded nothing."""
    return ledger.counts("guesses")
