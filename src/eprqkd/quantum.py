"""Pair states as integer codes, and their measurements as table lookups.

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
* A pair state is an int code 0-19. Codes 0-3 are the four pair states in
  ``BELL_LABELS`` order (``BellState`` is an ``IntEnum``, so a label is its
  own code). Code ``4 + i`` is the product ``PRODUCTS[i]``, written
  ``((basis, bit), (basis, bit))`` with the first qubit first: a Z or X
  eigenstate per qubit, bit 0 for |0> or |+>, 1 for |1> or |->.

These twenty states are all the protocol can reach, because the set is
closed under every measurement it makes (they are stabilizer states; see
Aaronson & Gottesman, quant-ph/0406196). Measuring one qubit of a pair state
in Z or X leaves a product of that basis's eigenstates; measuring one qubit
of a product changes only that qubit; and a pair-state measurement leaves
the measured pair state. So every outcome distribution is exact and takes
one of the values 0, 1/4, 1/2 or 1. The closed-form rules below are
evaluated once, at import, into the tables:

* ``P0[s][op]``, the probability of outcome 0 of single-qubit operation
  ``op`` (0-3: Z or X on the first half, then Z or X on the second);
* the pair-basis probabilities of each state, in ``BELL_LABELS`` order,
  which ``bell_overlap_probabilities`` returns;
* ``MEASURE[s][op << 2 | q]``, the one table every measurement reads: the
  (outcome, post state) of operation ``op`` on state ``s`` for a draw r with
  ``int(r * 4) == q``. Operations 0-3 are the single-qubit ones, as
  numbered in ``OPS``; operation ``PAIR_BASIS`` (4) is the pair-state
  measurement, whose outcome and post state are both the measured label's
  code. The outcome is the first whose running sum of probabilities
  exceeds r, the index ``RandomSource.categorical`` would pick from the
  same draw. Every probability is a multiple of 1/4, so ``r < p`` exactly
  when ``q < 4 * p``, and the quarter q alone decides the outcome;
* ``KEYS[op]``, which maps a draw's quarter q to the key ``op << 2 | q``.

The one column kernel, ``measure_column``, measures a list of pairs by one
key byte each: it updates a column of state codes in place at the given
indices, in index order, and returns the outcomes. A step with a fixed
operation takes its keys from one ``rng.quarters(n).translate(KEYS[op])``
call, one draw per measurement, and makes exactly the draws, in exactly the
order, that one call per pair would. A measurement takes its draw even when the outcome is certain.
The scalar kernels (``measure_qubit``, ``measure_qubit_z``,
``measure_bell_basis``) take one ``random()`` draw and return the
``MEASURE`` entry at its ``int(r * 4)``; they are the one-draw references
the column kernel is tested against. The probability queries are one
lookup each.
"""
from __future__ import annotations

from enum import Enum, IntEnum
from itertools import accumulate

from .rng import RandomSource

_BASES = ("z", "x")


class BellState(IntEnum):
    """The four pair states; each is its own state code and carries a
    fixed 2-bit key code."""

    PSI1 = 0
    PSI2 = 1
    PSI3 = 2
    PSI4 = 3

    # Printed by name (BellState.PSI1), as a plain Enum member is.
    __str__ = Enum.__str__

    @property
    def code(self) -> str:
        """2-bit key code: PSI1..PSI4 -> 00, 01, 10, 11."""
        return CODES[self]

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


BELL_LABELS: tuple[BellState, ...] = tuple(BellState)
# Key code of each pair-state code.
CODES = ("00", "01", "10", "11")
PRODUCTS = tuple(
    ((first, a), (second, b)) for first in _BASES for a in (0, 1) for second in _BASES for b in (0, 1)
)
N_STATES = len(BELL_LABELS) + len(PRODUCTS)
# Single-qubit operation index by qubit and basis.
OPS = {"first": {"z": 0, "x": 1}, "second": {"z": 2, "x": 3}}


def product_state(first: tuple[str, int], second: tuple[str, int]) -> int:
    """Code of the product of two (basis, bit) eigenstates, first qubit first."""
    return len(BELL_LABELS) + PRODUCTS.index((first, second))


def basis_state(bits: str) -> int:
    """Code of the computational basis state |b1 b2>, e.g. basis_state('01')."""
    if len(bits) != 2 or any(c not in "01" for c in bits):
        raise ValueError(f"expected two bits, got {bits!r}")
    return product_state(("z", int(bits[0])), ("z", int(bits[1])))


# -- closed-form rules, evaluated once into the tables --------------------------


def _closed_p0(code: int, half: int, basis: str) -> float:
    """A pair state's halves are each uniform; a product qubit is certain
    in its own basis and uniform in the other."""
    if code < len(BELL_LABELS):
        return 0.5
    own_basis, bit = PRODUCTS[code - len(BELL_LABELS)][half]
    return 0.5 if own_basis != basis else 1.0 - bit


def _closed_post(code: int, half: int, basis: str, outcome: int) -> int:
    """A pair state leaves the partner in the bit its label correlates
    with; a product keeps its other qubit unchanged."""
    if code < len(BELL_LABELS):
        agree = BELL_LABELS[code].correlated_in(basis)
        other = (basis, outcome if agree else 1 - outcome)
    else:
        other = PRODUCTS[code - len(BELL_LABELS)][1 - half]
    mine = (basis, outcome)
    return product_state(mine, other) if half == 0 else product_state(other, mine)


def _closed_overlaps(code: int) -> tuple[float, ...]:
    """A pair state overlaps only itself. A Z or X product splits evenly over
    the two labels whose correlation in that basis matches its bits' parity;
    a product of one Z and one X eigenstate overlaps all four equally."""
    if code < len(BELL_LABELS):
        return tuple(1.0 if label == code else 0.0 for label in BELL_LABELS)
    (basis, first), (other_basis, second) = PRODUCTS[code - len(BELL_LABELS)]
    if basis != other_basis:
        return (0.25,) * 4
    agree = first == second
    return tuple(0.5 if label.correlated_in(basis) == agree else 0.0 for label in BELL_LABELS)


_OP_ARGS = [(half, basis) for half, ops in enumerate(OPS.values()) for basis in ops]
P0 = tuple(tuple(_closed_p0(s, *args) for args in _OP_ARGS) for s in range(N_STATES))
_BELL_PROBS = tuple(_closed_overlaps(s) for s in range(N_STATES))
# The pair-basis measurement, after the four single-qubit operations.
PAIR_BASIS = len(_OP_ARGS)


def _outcome(s: int, op: int, q: int) -> tuple[int, int]:
    """(outcome, post state) of operation ``op`` on state ``s`` for a draw
    r with int(r * 4) == q: the outcome is the first whose running sum of
    probabilities exceeds r, which is where q < 4 * sum, since 4 * sum is an
    integer. A pair-basis measurement leaves the measured label's state."""
    if op == PAIR_BASIS:
        code = next(i for i, c in enumerate(accumulate(_BELL_PROBS[s])) if q < 4 * c)
        return code, code
    bit = 0 if q < 4 * P0[s][op] else 1
    return bit, _closed_post(s, *_OP_ARGS[op], bit)


MEASURE = tuple(
    tuple(_outcome(s, op, q) for op in range(PAIR_BASIS + 1) for q in range(4))
    for s in range(N_STATES)
)
# By operation, a translate table from a draw's quarter int(r * 4) to its
# key; only entries 0-3 are read.
KEYS = tuple(bytes(op << 2 | q % 4 for q in range(256)) for op in range(PAIR_BASIS + 1))


# -- kernels -------------------------------------------------------------------


def _op(which: str, basis: str) -> int:
    try:
        return OPS[which][basis]
    except (KeyError, TypeError):
        raise ValueError(
            f"expected a 'z' or 'x' measurement of the 'first' or 'second' qubit,"
            f" got {basis!r} on {which!r}"
        ) from None


def make_bell_state(label: BellState) -> int:
    """The code of a freshly prepared pair: the label's own."""
    return int(label)


def qubit_probabilities(state: int, which: str, basis: str) -> tuple[float, float]:
    """Exact (P(0), P(1)) of a "z" or "x" measurement on the chosen qubit.

    ``which`` is "first" or "second"; see the module docstring for which
    half of a pair each one is.
    """
    p0 = P0[state][_op(which, basis)]
    return p0, 1.0 - p0


def qubit_z_probabilities(state: int, which: str) -> tuple[float, float]:
    """Exact (P(0), P(1)) of a Z measurement on the chosen qubit."""
    return qubit_probabilities(state, which, "z")


def measure_column(column: list[int], indices: list[int], keys: bytes) -> list[int]:
    """Measure each listed pair by its key byte ``op << 2 | int(r * 4)``,
    in index order.

    Updates ``column`` in place to the post states and returns the
    outcomes: a bit for a single-qubit operation, the measured label's code
    for ``PAIR_BASIS``.
    """
    outcomes = []
    for i, key in zip(indices, keys):
        outcome, column[i] = MEASURE[column[i]][key]
        outcomes.append(outcome)
    return outcomes


def measure_qubit(state: int, which: str, basis: str, rng: RandomSource) -> tuple[int, int]:
    """Measure one qubit in "z" or "x"; returns (outcome bit, post state)."""
    return MEASURE[state][_op(which, basis) << 2 | int(rng.random() * 4)]


def measure_qubit_z(state: int, which: str, rng: RandomSource) -> tuple[int, int]:
    """Z-measure one qubit; returns (outcome bit, collapsed joint state)."""
    return measure_qubit(state, which, "z", rng)


def bell_overlap_probabilities(state: int) -> dict[BellState, float]:
    """Exact |<psi_L|state>|^2 for each pair label L; the values sum to 1."""
    return dict(zip(BELL_LABELS, _BELL_PROBS[state]))


def measure_bell_basis(state: int, rng: RandomSource) -> tuple[BellState, int]:
    """Joint measurement onto the four pair states.

    Returns the sampled label and the post state, which is that label's code.
    """
    code, post = MEASURE[state][PAIR_BASIS << 2 | int(rng.random() * 4)]
    return BELL_LABELS[code], post
