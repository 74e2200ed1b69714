"""Exact outcome laws of small protocol runs, in ``fractions.Fraction``.

Every law here is computed from ``amplitude_oracle``'s state vectors: the
pair states come from its hand-written table and every measurement from its
amplitudes, never from ``eprqkd.quantum``'s tables or rules. Every outcome
probability the protocol meets is 0, 1/4, 1/2 or 1 (stabilizer states), so
each float probability the oracle computes is read back as an exact quarter.
Check samples are uniform subsets drawn independently of the pair states, so
the laws below are per pair, and a sample's law is that of a uniform
k-subset: each ordinal lands in it with chance k/N.

``test_exact.py`` holds the engine's sampled statistics against these laws.
The model knows nothing of the engine's draws, so the laws hold whatever
generator or sampler the engine uses, provided it is exact.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from amplitude_oracle import amplitudes_of, bell_overlaps, measure_qubit, qubit_probabilities
from eprqkd.quantum import BELL_LABELS

CODES = ("00", "01", "10", "11")
BASES = ("z", "x")
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def quarter(p: float) -> Fraction:
    """The multiple of 1/4 that the float probability ``p`` stands for."""
    q = round(4 * p)
    if abs(4 * p - q) > 1e-9:
        raise ValueError(f"{p!r} is no multiple of 1/4")
    return Fraction(q, 4)


class _Draw:
    """A one-value draw source for the oracle's ``0 if r < p0 else 1`` rule:
    r = 0 picks outcome 0 and r just below 1 picks outcome 1, wherever that
    outcome has a chance."""

    def __init__(self, outcome: int):
        self.r = 0.0 if outcome == 0 else 1.0 - 2.0**-53

    def random(self) -> float:
        return self.r


def branches(state, which: str, basis: str) -> list[tuple[Fraction, int, object]]:
    """(chance, outcome bit, post state) of each possible outcome of a Z or X
    measurement of one qubit of ``state``."""
    p0, p1 = map(quarter, qubit_probabilities(state, which, basis))
    return [
        (p, bit, measure_qubit(state, which, basis, _Draw(bit))[1])
        for bit, p in enumerate((p0, p1))
        if p
    ]


def agree(code: int, basis: str) -> bool:
    """Whether both halves of the pair state ``code`` give equal outcomes in
    ``basis``; the chance of it is exactly 0 or 1 for a pair state."""
    state = amplitudes_of(code)
    chance = sum(
        p * q
        for p, bit, post in branches(state, "second", basis)
        for q, other, _ in branches(post, "first", basis)
        if bit == other
    )
    if chance not in (0, 1):
        raise ValueError(f"state {code} is not perfectly correlated in {basis}")
    return chance == 1


def _mismatch(prepared: int, basis: str, receiver_state, sender_state) -> Fraction:
    """The chance that the receiver's measurement of the second half of
    ``receiver_state`` and the sender's of the first half of ``sender_state``
    (each after the other, where they are one state) contradict the
    correlation of ``prepared`` in ``basis``."""
    expected = agree(prepared, basis)
    total = Fraction(0)
    for p, bit, post in branches(receiver_state, "second", basis):
        partner = post if sender_state is None else sender_state
        for q, other, _ in branches(partner, "first", basis):
            if (bit == other) != expected:
                total += p * q
    return total


def check1_mismatch_chance(attack: str, randomize_check_basis: bool = False) -> Fraction:
    """The chance that one pair of the first check mismatches, for a
    uniformly prepared pair state and a Z basis, or a uniform Z-or-X basis.

    ``attack`` is ``"none"``, ``"measure-resend"`` (Eve Z-measures the second
    half in flight and forwards it), ``"fake-epr"`` (the receiver's half is
    one of a planted ``BELL_LABELS[0]`` pair, and the sender's is of the
    genuine pair) or ``"fake-epr-uniform"`` (a uniformly chosen planted
    pair)."""
    bases = BASES if randomize_check_basis else ("z",)
    total = Fraction(0)
    for prepared, basis in product(range(len(BELL_LABELS)), bases):
        weight = QUARTER / len(bases)
        state = amplitudes_of(prepared)
        if attack == "none":
            total += weight * _mismatch(prepared, basis, state, None)
        elif attack == "measure-resend":
            for p, _, post in branches(state, "second", "z"):
                total += weight * p * _mismatch(prepared, basis, post, None)
        elif attack in ("fake-epr", "fake-epr-uniform"):
            planted = [0] if attack == "fake-epr" else range(len(BELL_LABELS))
            for fake in planted:
                chance = _mismatch(prepared, basis, amplitudes_of(fake), state)
                total += weight * chance / len(planted)
        else:
            raise ValueError(f"no law for attack {attack!r}")
    return total


def decode_law(attack: str) -> dict[tuple[str, str], Fraction]:
    """The chance of each (prepared code, decoded code) for one decoded
    pair of a uniformly prepared pair state, on a clean channel (``"none"``)
    or after Eve Z-measured its second half (``"measure-resend"``)."""
    law = dict.fromkeys(product(CODES, CODES), Fraction(0))
    for prepared in range(len(BELL_LABELS)):
        state = amplitudes_of(prepared)
        if attack == "none":
            arrived = [(Fraction(1), state)]
        elif attack == "measure-resend":
            arrived = [(p, post) for p, _, post in branches(state, "second", "z")]
        else:
            raise ValueError(f"no law for attack {attack!r}")
        for p, post in arrived:
            for label, overlap in bell_overlaps(post).items():
                law[CODES[prepared], CODES[label]] += QUARTER * p * quarter(overlap)
    return law


def binomial(k: int, q: Fraction) -> dict[int, Fraction]:
    """The law of Bin(k, q)."""
    return {m: math.comb(k, m) * q**m * (1 - q) ** (k - m) for m in range(k + 1)}


def check_size(n: int, fraction: float, min_size: int) -> int:
    """A check's sample size out of n pairs: the fraction rounded up, at
    least ``min_size``, at most n."""
    return min(n, max(min_size, math.ceil(fraction * n)))
