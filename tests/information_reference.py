"""Validating reference for ``eprqkd.analysis.mutual_information``.

A joint distribution checks its cells when it is built, and the mutual
information is H(X) - H(X|Y) through separately validated entropies. It
shares no code with the package: the floats come from this module's own
sums, in the order ``eprqkd.analysis`` documents (cells ``count / total``
in sorted label order, marginals and entropies added left to right from
0.0), so the engine's value can be compared with it bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

PROB_TOL = 1e-9


def _sum(values) -> float:
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
    summed = _sum(p)
    if abs(summed - 1.0) > PROB_TOL:
        raise ValueError(f"probabilities must sum to 1, got {summed!r}")


def shannon_entropy(probabilities) -> float:
    """H(p) = -sum p_i log2 p_i, in bits, over the outcomes with p_i > 0."""
    p = tuple(map(float, probabilities))
    _validate_probabilities(p)
    return _entropy(p)


@dataclass(frozen=True)
class JointDistribution:
    """Joint probabilities of two finite-alphabet variables.

    ``p[i][j]`` is P(X = outcomes_x[i], Y = outcomes_y[j]); ``p`` is a tuple
    of row tuples, checked to match the outcomes and to be a distribution.
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

    def marginal_x(self) -> tuple[float, ...]:
        return tuple(_sum(row) for row in self.p)

    def marginal_y(self) -> tuple[float, ...]:
        return tuple(_sum(column) for column in zip(*self.p))


def from_counts(counts: dict[str, dict[str, int]]) -> JointDistribution:
    """The empirical joint of nested {x: {y: count}} tallies, each a
    nonnegative int."""
    # Sorted, so the first bad count named is the first in the joint.
    for x in sorted(counts):
        row = counts[x]
        for y in sorted(row):
            if type(n := row[y]) is not int or n < 0:
                raise ValueError(f"counts must be nonnegative ints, got {n!r}")
    xs = tuple(sorted(counts))
    ys = tuple(sorted(set().union(*counts.values())))
    if not xs or not ys:
        raise ValueError("cannot build a joint distribution from empty counts")
    count = sum(n for row in counts.values() for n in row.values())
    if count <= 0:
        raise ValueError("counts sum to zero")
    return JointDistribution(xs, ys, [[counts[x].get(y, 0) / count for y in ys] for x in xs])


def conditional_entropy(joint: JointDistribution) -> float:
    """H(X|Y): expected entropy of X once Y is known, in bits."""
    h = 0.0
    for p_y, column in zip(joint.marginal_y(), zip(*joint.p)):
        if p_y > 0.0:
            h += p_y * _entropy([value / p_y for value in column])
    return h


def reference_mutual_information(counts: dict[str, dict[str, int]]) -> float:
    """I(X:Y) = H(X) - H(X|Y) of the tallies, clamped at zero."""
    joint = from_counts(counts)
    return max(0.0, shannon_entropy(joint.marginal_x()) - conditional_entropy(joint))
