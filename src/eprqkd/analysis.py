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
``total`` spells the sum out because ``builtins.sum`` rounds floats
differently from Python 3.12 on; the runner's means sum through it too.

``mutual_information`` is one flat pass over the joint's rows in that
order: H(X) from the row marginals, then H(X|Y) column by column. It makes
the same float operations as ``shannon_entropy(joint.marginal_x()) -
conditional_entropy(joint)``, which stay as its reference, but checks no
marginal again: a joint's cells are validated once, when it is built.

Count tables reach a joint by one of two paths. ``JointDistribution.from_counts``
checks that every count is a nonnegative int, for any caller, and then hands
the table to ``from_checked_counts``. That builder trusts its counts: it
checks only that the table has a cell and a positive total, then divides
each count by the total, so neither path runs the constructor's float checks.
The runner's fold calls it directly, because ``runner._merge_counts`` has
checked every count while pooling the tables.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .record import Record

PROB_TOL = 1e-9


def total(values) -> float:
    """The float sum of ``values``, added left to right from 0.0."""
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
    summed = total(p)
    if abs(summed - 1.0) > PROB_TOL:
        raise ValueError(f"probabilities must sum to 1, got {summed!r}")


def shannon_entropy(probabilities) -> float:
    """H(p) = -sum p_i log2 p_i, in bits, over the outcomes with p_i > 0."""
    p = tuple(map(float, probabilities))
    _validate_probabilities(p)
    return _entropy(p)


class JointDistribution(Record):
    """Joint probabilities of two finite-alphabet variables.

    ``p[i][j]`` is P(X = outcomes_x[i], Y = outcomes_y[j]); ``p`` is a tuple
    of row tuples.
    """

    outcomes_x: tuple[str, ...]
    outcomes_y: tuple[str, ...]
    p: tuple[tuple[float, ...], ...]

    def check(self):
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
        vars(self)["p"] = rows

    @classmethod
    def from_counts(cls, counts: dict[str, dict[str, int]]) -> "JointDistribution":
        """Build the empirical joint from nested {x: {y: count}} tallies,
        each a nonnegative int."""
        # Sorted, so the first bad count named is the first in the joint.
        for x in sorted(counts):
            row = counts[x]
            for y in sorted(row):
                if type(n := row[y]) is not int or n < 0:
                    raise ValueError(f"counts must be nonnegative ints, got {n!r}")
        return cls.from_checked_counts(counts)

    @classmethod
    def from_checked_counts(cls, counts: dict[str, dict[str, int]]) -> "JointDistribution":
        """``from_counts`` for tallies whose counts are known to be
        nonnegative ints. Plain loops: a comprehension is a function call
        per row up to Python 3.11."""
        xs = sorted(counts)
        ys = sorted(set().union(*counts.values()))
        if not xs or not ys:
            raise ValueError("cannot build a joint distribution from empty counts")
        count = 0
        for row in counts.values():
            for n in row.values():
                count += n
        if count <= 0:
            raise ValueError("counts sum to zero")
        # Nonnegative ints over their positive total are finite, nonnegative
        # and sum to 1 within rounding: check would find nothing.
        rows = []
        for x in xs:
            row = counts[x]
            cells = []
            for y in ys:
                cells.append(row.get(y, 0) / count)
            rows.append(tuple(cells))
        joint = object.__new__(cls)
        vars(joint).update(outcomes_x=tuple(xs), outcomes_y=tuple(ys), p=tuple(rows))
        return joint

    def marginal_x(self) -> tuple[float, ...]:
        return tuple(total(row) for row in self.p)

    def marginal_y(self) -> tuple[float, ...]:
        return tuple(total(column) for column in zip(*self.p))


def conditional_entropy(joint: JointDistribution) -> float:
    """H(X|Y): expected entropy of X once Y is known, in bits."""
    h = 0.0
    for p_y, column in zip(joint.marginal_y(), zip(*joint.p)):
        if p_y > 0.0:
            h += p_y * _entropy([value / p_y for value in column])
    return h


def mutual_information(joint: JointDistribution) -> float:
    """I(X:Y) = H(X) - H(X|Y), clamped at zero against rounding noise."""
    log2 = math.log2
    acc = 0.0
    for row in joint.p:
        p_x = 0.0
        for value in row:
            p_x += value
        if p_x > 0.0:
            acc += p_x * log2(p_x)
    h_x = -acc
    h_x_given_y = 0.0
    for column in zip(*joint.p):
        p_y = 0.0
        for value in column:
            p_y += value
        if p_y > 0.0:
            acc = 0.0
            for value in column:
                q = value / p_y
                if q > 0.0:
                    acc += q * log2(q)
            h_x_given_y += p_y * -acc
    return max(0.0, h_x - h_x_given_y)


class Bb84Reference(NamedTuple):
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


class EfficiencyInputs(Record):
    """Per-transmission-unit accounting for the efficiency ratio.

    Classical bits spent on eavesdropping checks are excluded by
    convention; only protocol-mandatory classical traffic counts.
    """

    secret_bits: float
    qubits_used: float
    classical_bits: float

    def check(self):
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
