"""Channel interposition: the analyzed eavesdropping strategies.

The adversary acts only on particles while they are in flight and only on
information she can physically obtain: her own measurement outcomes and her
own random draws. She never reads the sender's secret preparation choices.
What she learns is recorded in the ledger's ``guesses`` column as her guess
per pair, in one alphabet (``guess_alphabet``), so a run can be scored
afterwards without giving the attack code oracle access.

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

from dataclasses import dataclass
from enum import Enum

from .errors import ConfigurationError, require_field_types, require_known_keys
from .ledger import DIGITS, Disposition, PairLedger, code_string, gather, joint_counts
from .quantum import BELL_LABELS, CODES, KEYS, OPS, PAIR_BASIS, BellState, measure_column
# Unused here; the benchmark's traced run (bench/workloads.py) wraps these bindings.
from .quantum import measure_bell_basis, measure_qubit_z  # noqa: F401
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
        require_field_types(self)
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


# One function per attack kind. Each acts on the ledger's live pairs, which
# are the ones in flight for the given transmission, and returns its
# transcript payload, or None when it left the particles alone or the ledger
# records no transcript.


def _identity(channel, transmission, ledger):
    return None


def _measure_resend(channel, transmission, ledger):
    if transmission == 2 and not channel.strategy.measure_second_sequence:
        return None
    live = ledger.live
    which = "second" if transmission == 1 else "first"
    keys = channel.rng.quarters(len(live)).translate(KEYS[OPS[which]["z"]])
    measured, posts = measure_column(gather(ledger.state, live), keys)
    ledger.spread(posts, ledger.state)
    if transmission == 1 or not ledger.guesses:
        ledger.guesses, ledger.guess_alphabet = ledger.spread(measured), _BITS
    elif live:
        # Every pair still in flight was Z-measured on its other half at
        # transmission 1; her two bits name a guess like a key code, this
        # first-half bit high. With no pair left in flight her one-bit guesses
        # stand, and so do the bits of a second sequence she alone measured.
        first = int.from_bytes(gather(ledger.guesses, live))
        guesses = (int.from_bytes(measured) << 1 | first).to_bytes(len(live))
        ledger.guesses, ledger.guess_alphabet = ledger.spread(guesses), CODES
    if ledger.transcript is None:
        return None
    return {"measured": len(measured), "outcomes": measured.translate(DIGITS).decode()}


def _fake_epr(channel, transmission, ledger):
    live, rng = ledger.live, channel.rng
    if transmission == 1:
        label = channel.strategy.fake_label
        if label is None:
            # rng.uniform_index(4) per pair, which is int(r * 4) of one draw.
            fakes = rng.quarters(len(live))
        else:
            fakes = bytes([label]) * len(live)
        ledger.planted = ledger.spread(fakes)
        if ledger.transcript is None:
            return None
        return {"captured": len(live), "planted": len(live), "fake_codes": code_string(fakes)}
    keys = rng.quarters(len(live)).translate(KEYS[PAIR_BASIS])
    # The genuine pairs are consumed here: their post states are not kept.
    found, _ = measure_column(gather(ledger.state, live), keys)
    ledger.guesses = ledger.spread(found)
    if ledger.transcript is None:
        return None
    return {"captured": len(live), "inferred_codes": code_string(found)}


def _opaque(channel, transmission, ledger):
    rand, p = channel.rng.random, channel.strategy.destroy_probability
    in_flight = len(ledger.live)
    destroyed = [i for i in ledger.live if rand() < p]  # rng.bernoulli(p) per pair
    ledger.settle(destroyed, Disposition.DROPPED)
    if ledger.transcript is None:
        return None
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
    """A channel with a fixed strategy and random stream."""

    def __init__(self, strategy: AttackStrategy, rng: RandomSource):
        self.strategy = strategy
        self.rng = rng

    def interpose(self, transmission: int, ledger: PairLedger) -> dict | None:
        """Apply the strategy to the particles currently in flight.

        Mutates the ledger (states, planted pairs, dispositions, guesses)
        in place. Returns a transcript payload describing what was done, or
        None when the particles passed untouched or the ledger records no
        transcript.
        """
        if transmission not in (1, 2):
            raise ConfigurationError(f"transmission must be 1 or 2, got {transmission}")
        payload = _ATTACKS[self.strategy.kind](self, transmission, ledger)
        if payload is None:
            return None
        return {"strategy": self.strategy.kind.value, "sequence": transmission, **payload}


def eve_guess_counts(ledger: PairLedger) -> dict[str, dict[str, int]]:
    """Joint counts {sender's code: {Eve's guess: n}} over the pairs she
    guessed. The ``prepared`` column supplies only the true codes being
    guessed at; the attack never reads it. An empty result means Eve
    recorded nothing."""
    return joint_counts(ledger.prepared, ledger.guesses, ledger.guess_alphabet)
