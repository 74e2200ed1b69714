"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD SEED

Prints the seconds from this script's first statement until eprqkd is
imported and the workload's config is built. ``run.py`` starts several of
these and reports the best as ``setup_s``.
"""
import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import configs  # noqa: E402

configs.set_up(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - STARTED))
