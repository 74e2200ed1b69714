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
from .ledger import DESTROYED, Disposition, PairLedger
from .quantum import (
    BELL_LABELS,
    BellState,
    make_bell_state,
    measure_bell_basis,
    measure_qubit_z,
)
from .rng import RandomSource


class AttackKind(Enum):
    NONE = "none"
    MEASURE_RESEND = "measure-resend"
    FAKE_EPR = "fake-epr"
    OPAQUE = "opaque"


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
            "fake_label": self.fake_label.name.lower() if self.fake_label else "uniform",
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
        labels = {"uniform": None, **{label.name.lower(): label for label in BELL_LABELS}}
        kind, fake = data.get("kind", "none"), data.get("fake_label", "psi1")
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigurationError(f"attack.kind must be one of {sorted(kinds)}, got {kind!r}")
        if not isinstance(fake, str) or fake not in labels:
            raise ConfigurationError(
                f"attack.fake_label must be one of {sorted(labels)}, got {fake!r}"
            )
        return cls(
            kind=kinds[kind],
            fake_label=labels[fake],
            destroy_probability=data.get("destroy_probability", 0.0),
            measure_second_sequence=data.get("measure_second_sequence", False),
        )


@dataclass
class EveState:
    """Everything the adversary has learned: the pair states her Bell
    measurements found, and her Z bits as {pair index: {half: bit}}."""

    inferred_key: dict[int, BellState] = field(default_factory=dict)
    z_bits: dict[int, dict[int, int]] = field(default_factory=dict)


# One function per attack kind. Each acts on the records in flight for the
# given transmission and returns its transcript payload, or None when it
# left the particles alone.


def _identity(channel, transmission, records, ledger):
    return None


def _measure_resend(channel, transmission, records, ledger):
    if transmission == 2 and not channel.strategy.measure_second_sequence:
        return None
    half = 2 if transmission == 1 else 1
    which = "second" if transmission == 1 else "first"
    bits = []
    for rec in records:
        bit, rec.carrier = measure_qubit_z(rec.carrier, which, channel.rng)
        channel.eve.z_bits.setdefault(rec.index, {})[half] = bit
        bits.append(str(bit))
    return {"measured": len(records), "outcomes": "".join(bits)}


def _fake_epr(channel, transmission, records, ledger):
    if transmission == 1:
        planted = []
        for rec in records:
            label = channel.strategy.fake_label
            if label is None:
                label = BELL_LABELS[channel.rng.uniform_index(4)]
            rec.fake_carrier = make_bell_state(label)
            rec.fake_custody = ("eve", ledger.receiver)
            rec.custody = (rec.custody[0], "eve")
            planted.append(label.code)
        return {"captured": len(records), "planted": len(records), "fake_codes": "".join(planted)}
    inferred = []
    for rec in records:
        rec.custody = ("eve", "eve")
        label, rec.carrier = measure_bell_basis(rec.carrier, channel.rng)
        channel.eve.inferred_key[rec.index] = label
        inferred.append(label.code)
        if rec.fake_custody is not None:
            rec.fake_custody = (ledger.receiver, rec.fake_custody[1])
    return {"captured": len(records), "inferred_codes": "".join(inferred)}


def _opaque(channel, transmission, records, ledger):
    destroyed = []
    for rec in records:
        if channel.rng.bernoulli(channel.strategy.destroy_probability):
            if transmission == 1:
                rec.custody = (rec.custody[0], DESTROYED)
            else:
                rec.custody = (DESTROYED, rec.custody[1])
            rec.disposition = Disposition.DROPPED
            destroyed.append(rec.index)
    return {
        "destroyed": len(destroyed),
        "forwarded": len(records) - len(destroyed),
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

        Mutates the ledger (carriers, custody, dispositions) and the adversary
        state in place. Returns a transcript payload describing what was done,
        or None when the particles passed untouched.
        """
        if transmission not in (1, 2):
            raise ConfigurationError(f"transmission must be 1 or 2, got {transmission}")
        in_flight = Disposition.IN_FLIGHT_1 if transmission == 1 else Disposition.IN_FLIGHT_2
        records = ledger.with_disposition(in_flight)
        payload = _ATTACKS[self.strategy.kind](self, transmission, records, ledger)
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
    if eve.inferred_key:
        guesses = {i: label.code for i, label in eve.inferred_key.items()}
    else:
        # Pairs measured on both halves are her real guesses; partially
        # measured ones carry strictly less and are not scored alongside.
        guesses = {i: f"{h[1]}{h[2]}" for i, h in eve.z_bits.items() if 1 in h and 2 in h}
        if not guesses:
            guesses = {i: str(h.get(2, h.get(1))) for i, h in eve.z_bits.items()}
    counts: dict[str, dict[str, int]] = {}
    for index, guess in sorted(guesses.items()):
        row = counts.setdefault(ledger.records[index].prepared.code, {})
        row[guess] = row.get(guess, 0) + 1
    return counts
