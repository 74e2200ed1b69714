"""Information-theoretic and efficiency metrics.

All entropies are in bits (base-2 logarithms) and zero-probability outcomes
contribute nothing. Empirical joints use plain frequency (plug-in)
estimation; callers choose sample sizes large enough for the bias to be
negligible at their tolerance.

The arithmetic is plain floats and ``math.log2``, in a fixed order: a cell
is ``count / total``; a row marginal adds the row's cells left to right
starting from 0.0; a column marginal adds the rows in order; an entropy is
``-(sum of p * log2 p)`` over the ``p > 0`` in order; H(X|Y) accumulates
``p_y * H(column / p_y)`` column by column. Reports carry these floats, so
the order is part of the report bytes. It is kept because it is the order
the package has always used for tables of up to 4 × 4, so existing reports
still verify; and since ``math.log2`` is libm's, the floats do not depend on
which SIMD kernels an array library dispatches to on the host CPU.
``_total`` spells the sum out because ``builtins.sum`` rounds floats
differently from Python 3.12 on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

PROB_TOL = 1e-9


def _total(values) -> float:
    acc = 0.0
    for value in values:
        acc += value
    return acc


def _entropy(p) -> float:
    acc = 0.0
    for value in p:
        if value > 0.0:
            acc += value * math.log2(value)
    return -acc


def _validate_probabilities(p: tuple[float, ...]):
    if not all(math.isfinite(value) and value >= -1e-12 for value in p):
        raise ValueError(f"probabilities must be finite and nonnegative, got {p!r}")
    total = _total(p)
    if abs(total - 1.0) > PROB_TOL:
        raise ValueError(f"probabilities must sum to 1, got {total!r}")


def shannon_entropy(probabilities) -> float:
    """H(p) = -sum p_i log2 p_i, in bits, over the outcomes with p_i > 0."""
    p = tuple(map(float, probabilities))
    _validate_probabilities(p)
    return _entropy(p)


@dataclass(frozen=True)
class JointDistribution:
    """Joint probabilities of two finite-alphabet variables.

    ``p[i][j]`` is P(X = outcomes_x[i], Y = outcomes_y[j]); ``p`` is a tuple
    of row tuples.
    """

    outcomes_x: tuple[str, ...]
    outcomes_y: tuple[str, ...]
    p: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        try:
            rows = tuple(tuple(map(float, row)) for row in self.p)
        except TypeError:
            raise ValueError(f"p must be a sequence of rows, got {self.p!r}") from None
        shape = tuple(len(row) for row in rows)
        if shape != (len(self.outcomes_y),) * len(self.outcomes_x):
            raise ValueError(
                f"matrix row lengths {shape} do not match outcome sets "
                f"({len(self.outcomes_x)}, {len(self.outcomes_y)})"
            )
        _validate_probabilities(tuple(value for row in rows for value in row))
        object.__setattr__(self, "p", rows)

    @classmethod
    def from_counts(cls, counts: dict[str, dict[str, int]]) -> "JointDistribution":
        """Build the empirical joint from nested {x: {y: count}} tallies."""
        xs = tuple(sorted(counts))
        ys = tuple(sorted({y for row in counts.values() for y in row}))
        if not xs or not ys:
            raise ValueError("cannot build a joint distribution from empty counts")
        cells = [[counts[x].get(y, 0) for y in ys] for x in xs]
        if any(type(n) is not int or n < 0 for row in cells for n in row):
            raise ValueError(f"counts must be nonnegative ints, got {cells!r}")
        total = sum(map(sum, cells))
        if total <= 0:
            raise ValueError("counts sum to zero")
        return cls(xs, ys, tuple(tuple(n / total for n in row) for row in cells))

    def marginal_x(self) -> tuple[float, ...]:
        return tuple(_total(row) for row in self.p)

    def marginal_y(self) -> tuple[float, ...]:
        return tuple(_total(column) for column in zip(*self.p))

    def transposed(self) -> "JointDistribution":
        return JointDistribution(self.outcomes_y, self.outcomes_x, tuple(zip(*self.p)))


def conditional_entropy(joint: JointDistribution) -> float:
    """H(X|Y): expected entropy of X once Y is known, in bits."""
    h = 0.0
    for p_y, column in zip(joint.marginal_y(), zip(*joint.p)):
        if p_y > 0.0:
            h += p_y * _entropy([value / p_y for value in column])
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
