"""Seedable randomness with named substreams.

Every random draw in a run is traceable to a (seed, stream) pair, so a run
replays bit-for-bit: the same pair always yields the same draw sequence.
Each trial owns a stream, and so do the honest parties of each hop (who
share one) and the adversary, which keeps their draws independent of one
another and makes trials safe to run in any order.

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
Every outcome the protocol meets has probability 0, 1/4, 1/2 or 1, so two
random bits decide it: ``RandomSource.quarters_of(sources, counts)``
returns each source's next n such 2-bit draws q, for its n in ``counts``,
each a byte 0-3: a batch of trials' blocks, each from one ``getrandbits``
call of its own stream, spread together. An outcome of
probability p happens exactly when ``q < 4 * p``; the top bit of q decides a
Z-or-X basis choice. Preparation, every column measurement, the randomized
check bases and the fake-EPR adversary's uniform labels draw that way. A
``getrandbits`` call consumes whole 32-bit generator words, so two blocks
drawn one after another are not one block sliced: each step's block is one
call. A check sample is kept as a byte mask over the live pairs, 1 at each
sampled pair, from one ``getrandbits`` call evened out to its size by a few
``random()`` draws (``sample_mask``, which says why it is uniform): the
check reads its columns and settles its pairs through that mask, and no
list of positions is built. Only those, the opaque attack's losses (of
arbitrary probability) and the scalar kernels call ``random()``.
"""
from __future__ import annotations

import math
import random
from itertools import compress

from .errors import ConfigurationError

MAX_SEED = 2**64 - 1
# By field, a translate table from a byte to its 2-bit field: bits 0-1, 2-3,
# 4-5 and 6-7.
_FIELDS = tuple(bytes(b >> shift & 3 for b in range(256)) for shift in (0, 2, 4, 6))


class RandomSource:
    """Deterministic random stream identified by (seed, stream).

    Substreams are derived by extending the stream name, never by drawing
    from the parent, so creating one substream does not perturb another.
    """

    # The generator, once the first read of _rng built it.
    _gen: random.Random | None = None

    def __init__(self, seed: int, stream: str = "root"):
        # An exact int: the stream name spells the seed, so 1.0, True or an
        # int subclass with a str of its own (an IntEnum) would name another
        # stream than the int it equals.
        if type(seed) is not int or not 0 <= seed <= MAX_SEED:
            raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
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

    def _packed(self, n: int) -> bytes:
        """The packed bytes of the next n 2-bit draws: one ``getrandbits``
        integer of 8 * ceil(n / 4) bits, little-endian."""
        size = -(-n // 4)
        return self._rng.getrandbits(8 * size).to_bytes(size, "little")

    @staticmethod
    def quarters_of(sources: list["RandomSource"], counts: list[int]) -> bytes:
        """Each source's next n 2-bit draws, for its n in ``counts``, one
        byte 0-3 each, joined in order: a batch of trials' blocks.

        Draw i of a source is bits 2i and 2i + 1 of its one
        ``getrandbits(8 * ceil(n / 4))`` integer (``_packed``): field i % 4
        of its little-endian byte i // 4. The sources' packed bytes are
        joined and each of the four fields of every byte is spread to its
        place by one ``translate``; then each source's block is cut at its
        own n.
        """
        packed = b"".join(map(RandomSource._packed, sources, counts))
        spread = bytearray(4 * len(packed))
        for field, table in enumerate(_FIELDS):
            spread[field::4] = packed.translate(table)
        if len(spread) == sum(counts):  # every n is a multiple of 4: nothing to cut
            return bytes(spread)
        blocks, start = [], 0
        for n in counts:
            blocks.append(spread[start : start + n])
            start += -(-n // 4) * 4
        return b"".join(blocks)

    def bernoulli(self, p: float) -> bool:
        return self._rng.random() < p

    def uniform_index(self, n: int) -> int:
        """Uniform integer in [0, n).

        ``int(r * n) < n`` for every draw r (at most 1 - 2**-53) and every
        n < 2**53, so this and ``sample_mask`` need no clamp.
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

    def sample_mask(self, m: int, k: int) -> bytearray:
        """A uniformly random k-subset of m positions, as a mask of m bytes
        that is 1 at each chosen position and 0 elsewhere.

        Each position is kept where its byte of one ``getrandbits(8 * m)``
        call falls below t, 256 * k / m rounded: a mask of m independent
        draws of one chance, so every s-subset it keeps is equally likely.
        The s - k surplus is then dropped, or the k - s shortfall added, one
        position at a time, each a uniform choice among the positions on the
        side to flip, which leaves a uniform k-subset. A choice draws
        ``int(r * m)`` until it lands on that side, so it takes no list of
        the side's positions, which at 10**6 pairs would build hundreds of
        thousands of ints.
        """
        if k > m:
            raise ConfigurationError(f"cannot sample {k} items from a population of {m}")
        # t rounds 256 * k / m half up; an empty population (m = k = 0) takes t = 0.
        t = (512 * k + m) // (2 * m or 1)
        below = b"\x01" * t + b"\x00" * (256 - t)
        mask = bytearray(self._rng.getrandbits(8 * m).to_bytes(m, "little").translate(below))
        surplus = mask.count(1) - k
        # Each step draws a position uniformly and flips it when it is on the
        # side in surplus: kept (a trim) or not kept (a top-up).
        side, rand = int(surplus > 0), self._rng.random
        while surplus:
            j = int(rand() * m)
            if mask[j] == side:
                mask[j] = 1 - side
                surplus += 1 - 2 * side
        return mask

    def sample_without_replacement(self, population, k: int) -> list:
        """A uniformly random k-subset of ``population``, in population
        order: the items where ``sample_mask`` is 1."""
        return list(compress(population, self.sample_mask(len(population), k)))


def three_sigma(p: float, n: int) -> float:
    """Three binomial standard deviations of a frequency estimate."""
    return 3.0 * math.sqrt(p * (1.0 - p) / n)
