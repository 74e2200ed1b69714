"""Pair states and their projective measurements, in closed form.

Conventions fixed here and relied on everywhere else:

* A pair has a first qubit (the half the preparer keeps) and a second qubit
  (the half sent first).
* The four maximally entangled pair states and their key codes are

      PSI1 = (|00> + |11>)/sqrt(2)   code 00
      PSI2 = (|00> - |11>)/sqrt(2)   code 01
      PSI3 = (|10> + |01>)/sqrt(2)   code 10
      PSI4 = (|10> - |01>)/sqrt(2)   code 11

  PSI1/PSI2 have equal single-qubit Z outcomes, PSI3/PSI4 opposite ones;
  PSI1/PSI3 have equal X outcomes, PSI2/PSI4 opposite ones.
* A pair state is an immutable value of one of two kinds: a ``BellState``
  label, or a ``Product`` ``((basis, bit), (basis, bit))`` of single-qubit
  Z or X eigenstates (bit 0 for |0> or |+>, 1 for |1> or |->), first qubit
  first. Measurement returns (outcome, post_state); it never mutates its
  input, which is what makes replay and independent trials trivial.

These twenty states are all the protocol can reach, because the set is
closed under every measurement it makes (they are stabilizer states).
Measuring one qubit of a pair state in Z or X leaves a product of that
basis's eigenstates; measuring one qubit of a product changes only that
qubit; and a pair-state measurement leaves the measured pair state. So
every outcome distribution below is exact and takes one of the values
0, 1/4, 1/2 or 1, and only the final sampling step consumes randomness:
exactly one draw per measurement, even when the outcome is certain.
"""
from __future__ import annotations

from enum import Enum

from .rng import RandomSource

_BASES = ("z", "x")
_HALVES = {"first": 0, "second": 1}


class BellState(Enum):
    """The four pair states, each carrying a fixed 2-bit key code."""

    PSI1 = 0
    PSI2 = 1
    PSI3 = 2
    PSI4 = 3

    @property
    def code(self) -> str:
        """2-bit key code: PSI1..PSI4 -> 00, 01, 10, 11."""
        return format(self.value, "02b")

    @classmethod
    def from_code(cls, code: str) -> "BellState":
        if len(code) != 2 or any(c not in "01" for c in code):
            raise ValueError(f"not a 2-bit code: {code!r}")
        return cls(int(code, 2))

    @property
    def correlated(self) -> bool:
        """True when both halves give the same Z outcome (PSI1, PSI2)."""
        return self in (BellState.PSI1, BellState.PSI2)

    def correlated_in(self, basis: str) -> bool:
        """Whether the halves agree when both are measured in the given
        single-qubit basis: PSI1/PSI2 agree in Z, PSI1/PSI3 agree in X."""
        if basis == "z":
            return self.correlated
        if basis == "x":
            return self in (BellState.PSI1, BellState.PSI3)
        raise ValueError(f"basis must be 'z' or 'x', got {basis!r}")


BELL_LABELS: tuple[BellState, ...] = (
    BellState.PSI1,
    BellState.PSI2,
    BellState.PSI3,
    BellState.PSI4,
)

Qubit = tuple[str, int]  # (basis, bit): an eigenstate of Z or X
Product = tuple[Qubit, Qubit]
PairState = BellState | Product


def basis_state(bits: str) -> Product:
    """Computational basis state |b1 b2>, e.g. basis_state('01')."""
    if len(bits) != 2 or any(c not in "01" for c in bits):
        raise ValueError(f"expected two bits, got {bits!r}")
    return (("z", int(bits[0])), ("z", int(bits[1])))


def make_bell_state(label: BellState) -> PairState:
    """The state of a freshly prepared pair: the label itself."""
    return label


def qubit_probabilities(state: PairState, which: str, basis: str) -> tuple[float, float]:
    """Exact (P(0), P(1)) of a "z" or "x" measurement on the chosen qubit.

    ``which`` is "first" or "second"; see the module docstring for which
    half of a pair each one is. A pair state's halves are each uniform; a
    product qubit is certain in its own basis and uniform in the other.
    """
    if basis not in _BASES:
        raise ValueError(f"basis must be 'z' or 'x', got {basis!r}")
    if which not in _HALVES:
        raise ValueError(f"which must be 'first' or 'second', got {which!r}")
    half = _HALVES[which]
    if isinstance(state, BellState) or state[half][0] != basis:
        return 0.5, 0.5
    return (1.0, 0.0) if state[half][1] == 0 else (0.0, 1.0)


def qubit_z_probabilities(state: PairState, which: str) -> tuple[float, float]:
    """Exact (P(0), P(1)) of a Z measurement on the chosen qubit."""
    return qubit_probabilities(state, which, "z")


def measure_qubit(
    state: PairState, which: str, basis: str, rng: RandomSource
) -> tuple[int, Product]:
    """Measure one qubit in "z" or "x"; returns (outcome bit, post state).

    A pair state leaves the partner in the bit its label correlates with;
    a product keeps its other qubit unchanged.
    """
    p0, _ = qubit_probabilities(state, which, basis)
    outcome = 0 if rng.random() < p0 else 1
    half = _HALVES[which]
    if isinstance(state, BellState):
        other = (basis, outcome if state.correlated_in(basis) else 1 - outcome)
    else:
        other = state[1 - half]
    mine = (basis, outcome)
    return outcome, (mine, other) if half == 0 else (other, mine)


def measure_qubit_z(
    state: PairState, which: str, rng: RandomSource
) -> tuple[int, Product]:
    """Z-measure one qubit; returns (outcome bit, collapsed joint state)."""
    return measure_qubit(state, which, "z", rng)


def bell_overlap_probabilities(state: PairState) -> dict[BellState, float]:
    """Exact |<psi_L|state>|^2 for each pair label L; the values sum to 1.

    A pair state overlaps only itself. A Z or X product splits evenly over
    the two labels whose correlation in that basis matches its bits' parity;
    a product of one Z and one X eigenstate overlaps all four equally.
    """
    if isinstance(state, BellState):
        return {label: 1.0 if label is state else 0.0 for label in BELL_LABELS}
    (basis, first), (other_basis, second) = state
    if basis != other_basis:
        return dict.fromkeys(BELL_LABELS, 0.25)
    agree = first == second
    return {
        label: 0.5 if label.correlated_in(basis) == agree else 0.0
        for label in BELL_LABELS
    }


def measure_bell_basis(
    state: PairState, rng: RandomSource
) -> tuple[BellState, BellState]:
    """Joint measurement onto the four pair states.

    Returns the sampled label and the post state, which is that label.
    """
    probs = bell_overlap_probabilities(state)
    outcome = BELL_LABELS[rng.categorical([probs[label] for label in BELL_LABELS])]
    return outcome, outcome
