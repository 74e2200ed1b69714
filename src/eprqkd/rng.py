"""Seedable randomness with named substreams.

Every random draw in a run is traceable to a (seed, stream) pair, so a run
replays bit-for-bit: the same pair always yields the same draw sequence.
Parties, the adversary, and individual trials each own a substream, which
keeps their draws independent of one another and makes trials safe to run
in any order.

A stream is seeded on its first draw, not when it is created: a root that
only hands out substreams, or an adversary stream on a clean channel, never
pays for seeding a generator. Seeding later changes no draw, because a
stream's generator depends only on its (seed, stream) name. The generator is
the ``_rng`` property: its first read builds ``random.Random`` of that name
into the instance's ``_gen`` (None, the class default, until then), and a
subclass may assign ``_rng`` to draw through a source of its own. It is a
plain property rather than a ``functools.cached_property``, whose first read
runs Python code under a lock (up to Python 3.11) once for every stream.

A step that draws once or twice per pair reads a block of draws at once.
``RandomSource.quarters`` takes n draws in ``getrandbits`` calls of at most
``BLOCK_DRAWS`` draws each and returns ``int(r * 4)`` of each draw ``r``, read
from the top two bits of the draw's first 32-bit word. That quarter decides
every outcome of probability 0, 1/4, 1/2 or 1, and its top bit decides every
Z-or-X basis choice, exactly as the draw's ``random()`` value would.
Preparation, every column measurement, the randomized check bases and the
fake-EPR adversary's uniform labels draw that way. Only the samplers below
(check samples), the opaque attack's losses (of arbitrary probability) and
the scalar kernels call ``random()`` once per draw. Either way the generator
ends in the same state.
"""
from __future__ import annotations

import math
import random

from .errors import ConfigurationError

MAX_SEED = 2**64 - 1
# The most draws one ``getrandbits`` call in ``quarters`` takes. The call takes
# its bit count as a C int, which 64 bits per draw overflow at 2**25 draws.
BLOCK_DRAWS = 2**24
# int(r * 4) of the draw r whose first generator word has the given top byte.
_QUARTERS = bytes(h >> 6 for h in range(256))


class RandomSource:
    """Deterministic random stream identified by (seed, stream).

    Substreams are derived by extending the stream name, never by drawing
    from the parent, so creating one substream does not perturb another.
    """

    # The generator, once the first read of _rng built it.
    _gen: random.Random | None = None

    def __init__(self, seed: int, stream: str = "root"):
        if not 0 <= seed <= MAX_SEED:
            raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self.stream = stream

    @property
    def _rng(self) -> random.Random:
        """The generator, built on first use. str seeding hashes the text
        with sha512 (seed version 2), which is stable across processes and
        platforms, unlike built-in hash()."""
        gen = self._gen
        if gen is None:
            gen = self._gen = random.Random(f"{self.seed}:{self.stream}")
        return gen

    @_rng.setter
    def _rng(self, gen: random.Random):
        self._gen = gen

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, stream={self.stream!r})"

    def substream(self, name: str) -> "RandomSource":
        return RandomSource(self.seed, f"{self.stream}/{name}")

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def quarters(self, n: int) -> bytes:
        """``int(r * 4)`` of each of the next n draws r, in one call.

        Makes the draws n ``random()`` calls would. ``random()`` builds r
        from two 32-bit words, and ``int(r * 4)`` is the top two bits of the
        first. ``getrandbits`` fills its result from the least significant
        word up, in generation order, so draw i's first word is bytes 8i to
        8i + 3 of the little-endian result, and blocks of draws taken one
        after another join into the draws of one block.
        """
        rng = self._rng
        firsts = []
        for start in range(0, n, BLOCK_DRAWS):
            m = min(BLOCK_DRAWS, n - start)
            firsts.append(rng.getrandbits(64 * m).to_bytes(8 * m, "little")[3::8])
        return b"".join(firsts).translate(_QUARTERS)

    def bernoulli(self, p: float) -> bool:
        return self._rng.random() < p

    def uniform_index(self, n: int) -> int:
        """Uniform integer in [0, n).

        ``int(r * n) < n`` for every draw r (at most 1 - 2**-53) and every
        n < 2**53, so this and ``sample_without_replacement`` need no clamp.
        """
        if n <= 0:
            raise ConfigurationError(f"uniform_index needs n >= 1, got {n}")
        return int(self._rng.random() * n)

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
            picked.append(pool[j])
            pool[j] = pool[remaining - 1]
        return picked


def three_sigma(p: float, n: int) -> float:
    """Three binomial standard deviations of a frequency estimate."""
    return 3.0 * math.sqrt(p * (1.0 - p) / n)
