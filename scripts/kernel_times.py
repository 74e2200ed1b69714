#!/usr/bin/env python3
"""Time the package's byte kernels on fresh and on repeated inputs.

Usage (from the repository root):

    python scripts/kernel_times.py [--sizes 64,2500,100000] [--calls 101]

For each kernel and input size in bytes it prints the median time of one
call, in microseconds, twice: on a new seeded random input for every call
(``fresh``), and on one input handed to every call (``repeated``). A
benchmark op meets fresh inputs, since every op has a new seed. A kernel
with a data-dependent branch per byte (a ``translate`` that deletes bytes,
say) runs far faster on a repeated input, whose branches the CPU has
learned, so only the fresh time sizes what an op pays.

The kernels and their inputs, n bytes each:

* ``gather``: n pair codes 0-3 under a mask that keeps about a quarter of
  them, as a check's sample does.
* ``joint_counts``: n prepared codes and n decode results, each 0-3, over
  the four code names.
* ``measure_column``: n pair states 0-3 measured in the pair-state basis.
* ``quarters_of``: one stream's next n 2-bit draws.
* ``sample_mask``: a quarter of n positions, from one stream.

The two draw kernels take a stream, not bytes: a fresh call draws from a
newly seeded stream, and a repeated call from one stream reset to the same
state. A stream is seeded before its call is timed.

A last row, ``render``, times ``render_transcript`` of the first hop of a
three-party trial of ``RENDER_PAIRS`` pairs (an audit op's hop) into a new
transcript, whatever the sizes: a fresh call renders another trial's hop,
and a repeated call the same hop. The hops run before any call is timed.
Only the stdlib and the package's own ``src/`` are used.
"""
from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eprqkd.config import RunConfig  # noqa: E402
from eprqkd.ledger import Transcript, gather, joint_counts, render_transcript  # noqa: E402
from eprqkd.protocol import run_multiparty  # noqa: E402
from eprqkd.quantum import CODES, KEYS, PAIR_BASIS, measure_column  # noqa: E402
from eprqkd.rng import RandomSource  # noqa: E402

# The seed of every input, so that two runs time the same inputs.
SEED = 1
# The pairs of the hop the render row renders.
RENDER_PAIRS = 256
# From a random byte: its low two bits, a code 0-3; 1 for a quarter of the bytes.
_QUARTER = bytes(b & 3 for b in range(256))
_SAMPLED = bytes(b < 64 for b in range(256))


def _codes(rng: random.Random, n: int) -> bytes:
    return rng.randbytes(n).translate(_QUARTER)


def _stream(name: str) -> RandomSource:
    """A stream, seeded now so that no timed call seeds it."""
    source = RandomSource(SEED, name)
    source._rng
    return source


def _byte_inputs(kernel: str, rng: random.Random, n: int):
    """The arguments of one call of a byte kernel, drawn from ``rng``."""
    if kernel == "gather":
        return _codes(rng, n), rng.randbytes(n).translate(_SAMPLED)
    if kernel == "joint_counts":
        return _codes(rng, n), _codes(rng, n), CODES
    return _codes(rng, n), _codes(rng, n).translate(KEYS[PAIR_BASIS])


_BYTE_KERNELS = {"gather": gather, "joint_counts": joint_counts, "measure_column": measure_column}
_DRAW_KERNELS = {
    "quarters_of": lambda source, n: RandomSource.quarters_of([source], [n]),
    "sample_mask": lambda source, n: source.sample_mask(n, (n + 3) // 4),
}
KERNELS = [*_BYTE_KERNELS, *_DRAW_KERNELS]


def _timed(call, args) -> float:
    started = time.perf_counter_ns()
    call(*args)
    return (time.perf_counter_ns() - started) / 1000


def kernel_times(kernel: str, n: int, calls: int) -> tuple[float, float]:
    """The median microseconds of ``calls`` calls of ``kernel`` at ``n``
    bytes: each on a fresh input, then each on one repeated input."""
    rng = random.Random(f"{SEED}:{kernel}:{n}")
    if kernel in _BYTE_KERNELS:
        call = _BYTE_KERNELS[kernel]
        fresh = [_timed(call, _byte_inputs(kernel, rng, n)) for _ in range(calls)]
        args = _byte_inputs(kernel, rng, n)
        repeated = [_timed(call, args) for _ in range(calls)]
    else:
        call = _DRAW_KERNELS[kernel]
        name = f"kernel/{kernel}/{n}"
        fresh = [_timed(call, (_stream(f"{name}/{i}"), n)) for i in range(calls)]
        source = _stream(name)
        state = source._rng.getstate()
        repeated = []
        for _ in range(calls):
            source._rng.setstate(state)
            repeated.append(_timed(call, (source, n)))
    return statistics.median(fresh), statistics.median(repeated)


def _render(hop, attack):
    """Render ``hop`` into a new transcript, tagged and named as its own."""
    logged = hop.ledger.transcript
    transcript = Transcript(logged.trial, logged.extra, logged.sender, logged.receiver)
    render_transcript(hop.ledger, transcript, attack, hop.abort_reason)


def render_times(calls: int) -> tuple[float, float]:
    """The median microseconds of ``calls`` renderings of the first hop of
    a ``RENDER_PAIRS``-pair three-party trial: each of another trial, then
    each of one trial."""
    config = RunConfig(pairs=RENDER_PAIRS, seed=SEED, parties=3)
    hops = [outcome.hops[0] for outcome in run_multiparty(config, range(calls + 1), True)]
    fresh = [_timed(_render, (hop, config.attack)) for hop in hops[:calls]]
    repeated = [_timed(_render, (hops[-1], config.attack)) for _ in range(calls)]
    return statistics.median(fresh), statistics.median(repeated)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="64,2500,100000", help="input sizes in bytes, comma-separated")
    parser.add_argument("--calls", type=int, default=101, help="timed calls per kernel, size and input kind")
    args = parser.parse_args(argv)
    sizes = [int(size) for size in args.sizes.split(",")]
    print(f"{'kernel':<16}{'bytes':>8}{'fresh_us':>12}{'repeated_us':>13}")
    for kernel in KERNELS:
        for n in sizes:
            fresh, repeated = kernel_times(kernel, n, args.calls)
            print(f"{kernel:<16}{n:>8}{fresh:>12.2f}{repeated:>13.2f}")
    fresh, repeated = render_times(args.calls)
    print(f"{'render':<16}{RENDER_PAIRS:>8}{fresh:>12.2f}{repeated:>13.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
