"""Exact 4-amplitude model of two-qubit states: the reference the closed-form
pair algebra in ``eprqkd.quantum`` is checked against.

Amplitudes are stored in computational-basis order |00>, |01>, |10>, |11>,
where the left bit is the first qubit. The pair states come from the
hand-written ``ORACLE_BELL`` table, not from the implementation, and every
outcome distribution is computed from amplitudes. Sampling follows the same
rules as the implementation (``0 if rng.random() < p0 else 1`` and
``rng.categorical`` in ``BELL_LABELS`` order), so an oracle measurement and
a closed-form one fed the same draw give the same outcome.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from eprqkd.quantum import BELL_LABELS, BellState

NORM_TOL = 1e-12

S = 1.0 / math.sqrt(2.0)

ORACLE_BELL = {
    BellState.PSI1: (S, 0.0, 0.0, S),
    BellState.PSI2: (S, 0.0, 0.0, -S),
    BellState.PSI3: (0.0, S, S, 0.0),
    BellState.PSI4: (0.0, -S, S, 0.0),
}

# Single-qubit eigenstates as (amplitude of |0>, amplitude of |1>).
_EIGENSTATES = {("z", 0): (1.0, 0.0), ("z", 1): (0.0, 1.0), ("x", 0): (S, S), ("x", 1): (S, -S)}


@dataclass(frozen=True, slots=True)
class TwoQubitState:
    """Normalized 4-amplitude state vector over |00>, |01>, |10>, |11>."""

    amplitudes: tuple[complex, complex, complex, complex]

    def __post_init__(self):
        if len(self.amplitudes) != 4:
            raise ValueError("a two-qubit state needs exactly 4 amplitudes")
        if abs(self.norm_squared() - 1.0) > NORM_TOL:
            raise ValueError(
                f"state is not normalized: |a|^2 sums to {self.norm_squared()!r}"
            )

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes)

    def inner_product(self, other: "TwoQubitState") -> complex:
        """<self | other>."""
        return sum(a.conjugate() * b for a, b in zip(self.amplitudes, other.amplitudes))


def amplitudes_of(state) -> TwoQubitState:
    """The state vector of a closed-form pair state (label or product)."""
    if isinstance(state, BellState):
        return TwoQubitState(tuple(complex(a) for a in ORACLE_BELL[state]))
    (a0, a1), (b0, b1) = _EIGENSTATES[state[0]], _EIGENSTATES[state[1]]
    return TwoQubitState((complex(a0 * b0), complex(a0 * b1), complex(a1 * b0), complex(a1 * b1)))


def fidelity(a: TwoQubitState, b: TwoQubitState) -> float:
    """|<a|b>|^2: 1 exactly when the states agree up to a global phase."""
    return abs(a.inner_product(b)) ** 2


def _hadamard(state: TwoQubitState, which: str) -> TwoQubitState:
    """Hadamard on one qubit; maps the X basis onto the Z basis and back."""
    a = state.amplitudes
    if which == "first":
        rotated = (a[0] + a[2], a[1] + a[3], a[0] - a[2], a[1] - a[3])
    elif which == "second":
        rotated = (a[0] + a[1], a[0] - a[1], a[2] + a[3], a[2] - a[3])
    else:
        raise ValueError(f"which must be 'first' or 'second', got {which!r}")
    return TwoQubitState(tuple(c * S for c in rotated))


def _z_probabilities(state: TwoQubitState, which: str) -> tuple[float, float]:
    a = state.amplitudes
    if which == "first":
        p0 = abs(a[0]) ** 2 + abs(a[1]) ** 2
    elif which == "second":
        p0 = abs(a[0]) ** 2 + abs(a[2]) ** 2
    else:
        raise ValueError(f"which must be 'first' or 'second', got {which!r}")
    return p0, 1.0 - p0


def _measure_z(state: TwoQubitState, which: str, rng) -> tuple[int, TwoQubitState]:
    p0, _ = _z_probabilities(state, which)
    outcome = 0 if rng.random() < p0 else 1
    a = state.amplitudes
    if which == "first":
        kept = (a[0], a[1], 0j, 0j) if outcome == 0 else (0j, 0j, a[2], a[3])
    else:
        kept = (a[0], 0j, a[2], 0j) if outcome == 0 else (0j, a[1], 0j, a[3])
    norm_sq = sum(abs(c) ** 2 for c in kept)
    if norm_sq <= NORM_TOL:
        raise RuntimeError("measurement collapsed onto a zero-norm branch")
    scale = 1.0 / math.sqrt(norm_sq)
    return outcome, TwoQubitState(tuple(c * scale for c in kept))


def qubit_probabilities(state: TwoQubitState, which: str, basis: str) -> tuple[float, float]:
    """Exact (P(0), P(1)) of a Z or X measurement on the chosen qubit."""
    if basis == "x":
        state = _hadamard(state, which)
    elif basis != "z":
        raise ValueError(f"basis must be 'z' or 'x', got {basis!r}")
    return _z_probabilities(state, which)


def measure_qubit(state: TwoQubitState, which: str, basis: str, rng) -> tuple[int, TwoQubitState]:
    """Z or X measurement with collapse; an X measurement rotates the qubit
    into the computational basis, Z-measures and rotates back."""
    if basis == "z":
        return _measure_z(state, which, rng)
    if basis != "x":
        raise ValueError(f"basis must be 'z' or 'x', got {basis!r}")
    outcome, rotated_post = _measure_z(_hadamard(state, which), which, rng)
    return outcome, _hadamard(rotated_post, which)


def bell_overlaps(state: TwoQubitState) -> dict[BellState, float]:
    """|<psi_L|state>|^2 for each pair label L."""
    return {
        label: abs(amplitudes_of(label).inner_product(state)) ** 2 for label in BELL_LABELS
    }


def measure_bell_basis(state: TwoQubitState, rng) -> tuple[BellState, TwoQubitState]:
    """Joint measurement onto the four pair states; the post state is the
    table's vector of the sampled label."""
    probs = bell_overlaps(state)
    outcome = BELL_LABELS[rng.categorical([probs[label] for label in BELL_LABELS])]
    return outcome, amplitudes_of(outcome)
