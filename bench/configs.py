"""Workload sizes and the inputs built from them.

Kept apart from the rest of the benchmark so that the set-up probe times
only importing eprqkd and building a workload's config.
"""
from __future__ import annotations

import importlib

from eprqkd.adversary import AttackKind, AttackStrategy
from eprqkd.config import RunConfig

# One op of each workload lasts 25-60 ms on a shared 2-core Xeon VM, so a 10 s
# run holds hundreds of ops and their best rate is steady (see README.md).
BULK_PAIRS = 2_500
DETECT_PAIRS = 64  # 0.25 * 64 = 16 first-check pairs per trial
DETECT_TRIALS = 100
AUDIT_PAIRS = 256
AUDIT_TRIALS = 4


def bulk_config(seed: int) -> RunConfig:
    return RunConfig(
        pairs=BULK_PAIRS,
        seed=seed,
        attack=AttackStrategy(kind=AttackKind.MEASURE_RESEND),
    )


def detect_config(seed: int) -> RunConfig:
    return RunConfig(
        pairs=DETECT_PAIRS,
        trials=DETECT_TRIALS,
        seed=seed,
        attack=AttackStrategy(kind=AttackKind.FAKE_EPR),
    )


def audit_config(seed: int) -> RunConfig:
    """The config ``eprqkd run`` builds from ``audit_argv``."""
    return RunConfig(pairs=AUDIT_PAIRS, trials=AUDIT_TRIALS, seed=seed, parties=3)


def audit_argv(seed: int, out) -> list[str]:
    return [
        "run",
        "--parties", "3",
        "--pairs", str(AUDIT_PAIRS),
        "--trials", str(AUDIT_TRIALS),
        "--seed", str(seed),
        "--out", str(out),
        "--transcript",
    ]


CONFIGS = {"bulk-resend": bulk_config, "detect": detect_config, "audit": audit_config}


def set_up(workload: str, seed: int) -> RunConfig:
    """Import what the workload drives and build its config."""
    importlib.import_module("eprqkd")
    if workload == "audit":
        importlib.import_module("eprqkd.cli")
    return CONFIGS[workload](seed)
