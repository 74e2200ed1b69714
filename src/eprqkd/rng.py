"""Seedable randomness with named substreams.

Every random draw in a run is traceable to a (seed, stream) pair, so a run
replays bit-for-bit: the same pair always yields the same draw sequence.
Parties, the adversary, and individual trials each own a substream, which
keeps their draws independent of one another and makes trials safe to run
in any order.

A stream is seeded on its first draw, not when it is created: a root that
only hands out substreams, or an adversary stream on a clean channel, never
pays for seeding a generator. Seeding later changes no draw, because a
stream's generator depends only on its (seed, stream) name. Hot loops (the
column kernels in ``quantum``, preparation, the attacks) bind
``rng._rng.random`` once and call it per pair; that is the same draw
``random()`` makes.
"""
from __future__ import annotations

import math
import random
from functools import cached_property

from .errors import ConfigurationError

MAX_SEED = 2**64 - 1


class RandomSource:
    """Deterministic random stream identified by (seed, stream).

    Substreams are derived by extending the stream name, never by drawing
    from the parent, so creating one substream does not perturb another.
    """

    def __init__(self, seed: int, stream: str = "root"):
        if not 0 <= seed <= MAX_SEED:
            raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self.stream = stream

    @cached_property
    def _rng(self) -> random.Random:
        """The generator, built on first use. str seeding hashes the text
        with sha512 (seed version 2), which is stable across processes and
        platforms, unlike built-in hash()."""
        return random.Random(f"{self.seed}:{self.stream}")

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, stream={self.stream!r})"

    def substream(self, name: str) -> "RandomSource":
        return RandomSource(self.seed, f"{self.stream}/{name}")

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def bernoulli(self, p: float) -> bool:
        return self._rng.random() < p

    def uniform_index(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ConfigurationError(f"uniform_index needs n >= 1, got {n}")
        i = int(self._rng.random() * n)
        return i if i < n else n - 1

    def categorical(self, probabilities) -> int:
        """Index sampled according to a probability vector summing to 1."""
        r = self._rng.random()
        acc = 0.0
        for i, p in enumerate(probabilities):
            acc += p
            if r < acc:
                return i
        # r landed in the float-rounding sliver above the accumulated sum;
        # return the last outcome with nonzero probability.
        for i in range(len(probabilities) - 1, -1, -1):
            if probabilities[i] > 0.0:
                return i
        raise ValueError("categorical() needs at least one positive probability")

    def sample_without_replacement(self, population: list, k: int) -> list:
        """k distinct elements, order-independent (returned in draw order)."""
        if k > len(population):
            raise ConfigurationError(
                f"cannot sample {k} items from a population of {len(population)}"
            )
        rand = self._rng.random
        pool = list(population)
        picked = []
        for remaining in range(len(pool), len(pool) - k, -1):
            j = int(rand() * remaining)
            j = j if j < remaining else remaining - 1
            picked.append(pool[j])
            pool[j] = pool[remaining - 1]
        return picked


def three_sigma(p: float, n: int) -> float:
    """Three binomial standard deviations of a frequency estimate."""
    return 3.0 * math.sqrt(p * (1.0 - p) / n)
