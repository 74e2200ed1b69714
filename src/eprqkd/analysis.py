"""Information-theoretic and efficiency metrics.

All entropies are in bits (base-2 logarithms) and zero-probability outcomes
contribute nothing. Empirical joints use plain frequency (plug-in)
estimation; callers choose sample sizes large enough for the bias to be
negligible at their tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PROB_TOL = 1e-9


def _validate_probabilities(p: np.ndarray):
    if np.any(p < -1e-12):
        raise ValueError(f"probabilities must be nonnegative, got min {p.min()!r}")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_TOL:
        raise ValueError(f"probabilities must sum to 1, got {total!r}")


def shannon_entropy(probabilities) -> float:
    """H(p) = -sum p_i log2 p_i, in bits, over the outcomes with p_i > 0."""
    p = np.asarray(probabilities, dtype=float).ravel()
    _validate_probabilities(p)
    positive = p[p > 0.0]
    return float(-np.sum(positive * np.log2(positive)))


@dataclass(frozen=True)
class JointDistribution:
    """Joint probabilities of two finite-alphabet variables.

    ``p[i, j]`` is P(X = outcomes_x[i], Y = outcomes_y[j]).
    """

    outcomes_x: tuple[str, ...]
    outcomes_y: tuple[str, ...]
    p: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.p, dtype=float)
        if matrix.shape != (len(self.outcomes_x), len(self.outcomes_y)):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match outcome sets "
                f"({len(self.outcomes_x)}, {len(self.outcomes_y)})"
            )
        _validate_probabilities(matrix.ravel())
        object.__setattr__(self, "p", matrix)

    @classmethod
    def from_counts(cls, counts: dict[str, dict[str, int]]) -> "JointDistribution":
        """Build the empirical joint from nested {x: {y: count}} tallies."""
        xs = tuple(sorted(counts))
        ys = tuple(sorted({y for row in counts.values() for y in row}))
        if not xs or not ys:
            raise ValueError("cannot build a joint distribution from empty counts")
        matrix = np.zeros((len(xs), len(ys)))
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                matrix[i, j] = counts[x].get(y, 0)
        total = matrix.sum()
        if total <= 0:
            raise ValueError("counts sum to zero")
        return cls(xs, ys, matrix / total)

    def marginal_x(self) -> np.ndarray:
        return self.p.sum(axis=1)

    def marginal_y(self) -> np.ndarray:
        return self.p.sum(axis=0)

    def transposed(self) -> "JointDistribution":
        return JointDistribution(self.outcomes_y, self.outcomes_x, self.p.T)


def conditional_entropy(joint: JointDistribution) -> float:
    """H(X|Y): expected entropy of X once Y is known, in bits."""
    h = 0.0
    for j, p_y in enumerate(joint.marginal_y()):
        if p_y <= 0.0:
            continue
        column = joint.p[:, j] / p_y
        positive = column[column > 0.0]
        h += float(p_y) * float(-np.sum(positive * np.log2(positive)))
    return h


def mutual_information(joint: JointDistribution) -> float:
    """I(X:Y) = H(X) - H(X|Y), clamped at zero against rounding noise."""
    value = shannon_entropy(joint.marginal_x()) - conditional_entropy(joint)
    return max(0.0, value)


@dataclass(frozen=True)
class Bb84Reference:
    """Closed-form BB84 mutual-information values under an intercept-resend
    adversary who measures the same way the receiver does, per transmitted
    qubit and without basis sifting."""

    i_ab_attacked: float
    i_ae: float
    i_ab_clean: float


def reference_bb84() -> Bb84Reference:
    """BB84 comparison constants: about 0.046 attacked and 0.189 clean."""
    log2_3 = math.log2(3.0)
    log2_5 = math.log2(5.0)
    return Bb84Reference(
        i_ab_attacked=5.0 / 8.0 * log2_5 + 3.0 / 8.0 * log2_3 - 2.0,
        i_ae=3.0 / 4.0 * log2_3 - 1.0,
        i_ab_clean=3.0 / 4.0 * log2_3 - 1.0,
    )


@dataclass(frozen=True)
class EfficiencyInputs:
    """Per-transmission-unit accounting for the efficiency ratio.

    Classical bits spent on eavesdropping checks are excluded by
    convention; only protocol-mandatory classical traffic counts.
    """

    secret_bits: float
    qubits_used: float
    classical_bits: float

    def __post_init__(self):
        if min(self.secret_bits, self.qubits_used, self.classical_bits) < 0:
            raise ValueError("efficiency inputs must be nonnegative")
        if self.qubits_used + self.classical_bits <= 0:
            raise ValueError("qubits_used + classical_bits must be positive")


# Standard accountings: BB84 yields half a sifted bit per qubit plus one
# basis-announcement bit; the plain EPR scheme one bit per two qubits; the
# two-step dense-coding scheme two bits per two qubits with no mandatory
# classical traffic.
BB84_ACCOUNTING = EfficiencyInputs(secret_bits=0.5, qubits_used=1, classical_bits=1)
EPR_ACCOUNTING = EfficiencyInputs(secret_bits=1, qubits_used=2, classical_bits=0)
TWO_STEP_ACCOUNTING = EfficiencyInputs(secret_bits=2, qubits_used=2, classical_bits=0)


def efficiency(inputs: EfficiencyInputs) -> float:
    """Secret bits per transmitted qubit-plus-classical-bit."""
    return inputs.secret_bits / (inputs.qubits_used + inputs.classical_bits)
