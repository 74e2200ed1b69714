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

``mutual_information`` takes a pooled ``{x: {y: count}}`` table and makes
one flat pass over its cells in sorted x and y order: H(X) from the row
marginals, then H(X|Y) column by column.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .record import Record


def total(values) -> float:
    """The float sum of ``values``, added left to right from 0.0."""
    acc = 0.0
    for value in values:
        acc += value
    return acc


def mutual_information(counts: dict[str, dict[str, int]]) -> float:
    """I(X:Y) = H(X) - H(X|Y) of the empirical joint of nested
    ``{x: {y: count}}`` tallies, clamped at zero against rounding noise.
    The counts must be nonnegative ints; the runner checks them while
    pooling."""
    xs = sorted(counts)
    ys = sorted(set().union(*counts.values()))
    if not xs or not ys:
        raise ValueError("cannot build a joint distribution from empty counts")
    count = sum(map(sum, map(dict.values, counts.values())))
    if count <= 0:
        raise ValueError("counts sum to zero")
    # H(X) is summed as the cells are divided out, row by row.
    log2 = math.log2
    p = []
    acc = 0.0
    for x in xs:
        row = counts[x]
        cells = []
        p_x = 0.0
        for y in ys:
            value = row.get(y, 0) / count
            cells.append(value)
            p_x += value
        p.append(cells)
        if p_x > 0.0:
            acc += p_x * log2(p_x)
    h_x = -acc
    h_x_given_y = 0.0
    for column in zip(*p):
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
        if not all(0 <= value < math.inf for value in vars(self).values()):
            raise ValueError("efficiency inputs must be finite and nonnegative")
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
