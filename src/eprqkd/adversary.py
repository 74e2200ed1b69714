"""Channel interposition: the analyzed eavesdropping strategies.

The adversary acts only on particles while they are in flight and only on
information she can physically obtain: her own measurement outcomes and her
own random draws. She never reads the sender's secret preparation choices.
Everything she learns is recorded in :class:`EveState`, so a run can be
scored afterwards without giving the attack code oracle access.

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

from dataclasses import dataclass, field, fields
from enum import Enum

from .errors import ConfigurationError, require_type
from .ledger import Disposition, PairLedger, joint_counts
from .quantum import BELL_LABELS, CODES, BellState, measure_bell_column, measure_column
# Unused here; the benchmark's traced run (bench/workloads.py) wraps these bindings.
from .quantum import measure_bell_basis, measure_qubit_z  # noqa: F401
from .rng import RandomSource

_BITS = ("0", "1")


class AttackKind(Enum):
    NONE = "none"
    MEASURE_RESEND = "measure-resend"
    FAKE_EPR = "fake-epr"
    OPAQUE = "opaque"


# The spellings of ``AttackStrategy.fake_label``: a pair-state name, or
# "uniform" for a fresh uniform label per pair.
FAKE_LABELS: dict[str, BellState | None] = {
    **{label.name.lower(): label for label in BELL_LABELS},
    "uniform": None,
}


@dataclass(frozen=True)
class AttackStrategy:
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

    def __post_init__(self):
        require_type("destroy_probability", self.destroy_probability, float)
        require_type("measure_second_sequence", self.measure_second_sequence, bool)
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
        if not isinstance(data, dict):
            raise ConfigurationError(f"attack must be a mapping, got {data!r}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(f"unknown attack key {unknown[0]!r}")
        kinds = {kind.value: kind for kind in AttackKind}
        kind, fake = data.get("kind", "none"), data.get("fake_label", "psi1")
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigurationError(f"attack.kind must be one of {sorted(kinds)}, got {kind!r}")
        if not isinstance(fake, str) or fake not in FAKE_LABELS:
            raise ConfigurationError(
                f"attack.fake_label must be one of {sorted(FAKE_LABELS)}, got {fake!r}"
            )
        return cls(
            kind=kinds[kind],
            fake_label=FAKE_LABELS[fake],
            destroy_probability=data.get("destroy_probability", 0.0),
            measure_second_sequence=data.get("measure_second_sequence", False),
        )


@dataclass
class EveState:
    """Everything the adversary has learned, as columns by pair index with
    None where she learned nothing: the pair-state code each of her Bell
    measurements found, and her Z bit on each half. A column stays empty
    until she first records into it."""

    inferred_key: list[int | None] = field(default_factory=list)
    z_first: list[int | None] = field(default_factory=list)
    z_second: list[int | None] = field(default_factory=list)


# One function per attack kind. Each acts on the ledger's live pairs, which
# are the ones in flight for the given transmission, and returns its
# transcript payload, or None when it left the particles alone.


def _identity(channel, transmission, ledger):
    return None


def _measure_resend(channel, transmission, ledger):
    if transmission == 2 and not channel.strategy.measure_second_sequence:
        return None
    bits = [None] * ledger.n_total
    if transmission == 1:
        which, channel.eve.z_second = "second", bits
    else:
        which, channel.eve.z_first = "first", bits
    live = ledger.live
    measured = measure_column(ledger.state, live, which, "z", channel.rng)
    for i, bit in zip(live, measured):
        bits[i] = bit
    return {"measured": len(measured), "outcomes": "".join([_BITS[bit] for bit in measured])}


def _fake_epr(channel, transmission, ledger):
    live, rng = ledger.live, channel.rng
    if transmission == 1:
        label = channel.strategy.fake_label
        if label is None:
            rand = rng._rng.random  # rng.uniform_index(4) per pair
            fakes = [int(rand() * 4) for _ in live]
        else:
            fakes = [int(label)] * len(live)
        planted = ledger.planted = [None] * ledger.n_total
        for i, code in zip(live, fakes):
            planted[i] = code
        codes = "".join([CODES[code] for code in fakes])
        return {"captured": len(live), "planted": len(live), "fake_codes": codes}
    inferred = channel.eve.inferred_key = [None] * ledger.n_total
    found = measure_bell_column(ledger.state, live, rng)
    for i, code in zip(live, found):
        inferred[i] = code
    codes = "".join([CODES[code] for code in found])
    return {"captured": len(live), "inferred_codes": codes}


def _opaque(channel, transmission, ledger):
    rand, p = channel.rng._rng.random, channel.strategy.destroy_probability
    in_flight = len(ledger.live)
    destroyed = [i for i in ledger.live if rand() < p]  # rng.bernoulli(p) per pair
    ledger.settle(destroyed, Disposition.DROPPED)
    return {
        "destroyed": len(destroyed),
        "forwarded": in_flight - len(destroyed),
        "destroyed_indices": destroyed,
    }


_ATTACKS = {
    AttackKind.NONE: _identity,
    AttackKind.MEASURE_RESEND: _measure_resend,
    AttackKind.FAKE_EPR: _fake_epr,
    AttackKind.OPAQUE: _opaque,
}


class AdversaryChannel:
    """A channel with a fixed strategy, adversary state, and random stream."""

    def __init__(self, strategy: AttackStrategy, rng: RandomSource):
        self.strategy = strategy
        self.eve = EveState()
        self.rng = rng

    def interpose(self, transmission: int, ledger: PairLedger) -> dict | None:
        """Apply the strategy to the particles currently in flight.

        Mutates the ledger (states, planted pairs, dispositions) and the
        adversary state in place. Returns a transcript payload describing
        what was done, or None when the particles passed untouched.
        """
        if transmission not in (1, 2):
            raise ConfigurationError(f"transmission must be 1 or 2, got {transmission}")
        payload = _ATTACKS[self.strategy.kind](self, transmission, ledger)
        if payload is None:
            return None
        return {"strategy": self.strategy.kind.value, "sequence": transmission, **payload}


def eve_guess_counts(eve: EveState, ledger: PairLedger) -> dict[str, dict[str, int]]:
    """Joint counts {sender's code: {Eve's guess: n}} over pairs Eve scored.

    The guess alphabet depends on what the attack produced: full 2-bit codes
    for fake-EPR Bell measurements, the concatenated Z bits otherwise. The
    ledger supplies only the true codes being guessed at; the attack never
    saw them. An empty result means Eve recorded nothing.
    """
    prepared, first, second = ledger.prepared, eve.z_first, eve.z_second
    if eve.inferred_key:
        return joint_counts(prepared, eve.inferred_key)
    if not first or not second:
        return joint_counts(prepared, first or second, _BITS)
    # Pairs measured on both halves are her real guesses, named by the two
    # bits like a key code; partially measured ones carry strictly less and
    # are not scored alongside.
    both = [None if a is None or b is None else 2 * a + b for a, b in zip(first, second)]
    if any(guess is not None for guess in both):
        return joint_counts(prepared, both)
    return joint_counts(prepared, [a if b is None else b for a, b in zip(first, second)], _BITS)
