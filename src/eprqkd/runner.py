"""Monte-Carlo orchestration: many independent runs, one report.

Every trial, two-party or three-party, is one ``run_multiparty`` chain of
hops; its row reads the first hop and, when it ran, the second. A trial
records its transcript only when the caller collects transcripts; the rows
are the same either way, since recording makes no draw. ``run_multiparty``
derives each trial's streams from the config and the trial index; its
docstring gives the seeding rule.

Aggregation is a deterministic fold in trial order, which makes reports
byte-stable however trials might be scheduled. Every float mean adds its
values left to right from 0.0 (``analysis.total``), never through
``builtins.sum``, whose float rounding changed in Python 3.12, so a report's
bytes do not depend on the interpreter that wrote it.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

from . import analysis
from .adversary import eve_guess_counts
from .config import RunConfig
from .ledger import joint_counts
from .protocol import ProtocolOutcome, TrialOutcome, run_multiparty
# The benchmark's traced run (bench/workloads.py) wraps this binding.
from .protocol import run_protocol  # noqa: F401

SCHEMA_VERSION = "eprqkd-report/1"

_DETECTION_REASONS = ("check1_failed", "check2_failed")


def _hop_row(outcome: ProtocolOutcome) -> dict:
    ledger = outcome.ledger
    return {
        "abort_reason": outcome.abort_reason,
        "receipt_fraction_1": ledger.receipt_1,
        "receipt_fraction_2": ledger.receipt_2,
        "check1": ledger.check1.to_dict() if ledger.check1 else None,
        "check2": ledger.check2.to_dict() if ledger.check2 else None,
    }


def trial_row(outcome: TrialOutcome) -> dict:
    """Flatten one trial's outcome into the serializable report row."""
    first = outcome.hops[0]
    row = {"trial": outcome.trial, "keys_agree": outcome.keys_agree}
    row.update(_hop_row(first))
    # The overall reason (hop-prefixed when the second hop failed), not the
    # first hop's view of it.
    row["abort_reason"] = outcome.abort_reason
    row["key_length"] = len(outcome.keys[-1].bits) if outcome.keys else 0
    row["ab_counts"] = joint_counts(first.ledger.prepared, first.ledger.outcome)
    row["ae_counts"] = eve_guess_counts(first.eve, first.ledger)
    row["hop2"] = _hop_row(outcome.hops[1]) if len(outcome.hops) > 1 else None
    return row


def _merge_counts(pooled: dict, counts: dict):
    for x, row in counts.items():
        target = pooled.setdefault(x, {})
        for y, n in row.items():
            target[y] = target.get(y, 0) + n


def _pooled_rate(rows: list[dict], key: str) -> dict | None:
    samples = sum(r[key]["sample_size"] for r in rows if r[key] is not None)
    if samples == 0:
        return None
    mismatches = sum(r[key]["mismatches"] for r in rows if r[key] is not None)
    rate = mismatches / samples
    return {
        "samples": samples,
        "mismatches": mismatches,
        "error_rate": rate,
        "stderr": math.sqrt(rate * (1.0 - rate) / samples),
    }


def _mean(values: list[float]) -> float | None:
    return analysis.total(values) / len(values) if values else None


def aggregate_rows(rows: list[dict]) -> dict:
    """Fold per-trial rows into the aggregate block, in row order.

    Pure function of the rows, so a report's aggregate can be re-derived
    and audited from its own trial records.
    """
    completed = [r for r in rows if r["abort_reason"] is None]
    detected = [
        r
        for r in rows
        if r["abort_reason"] is not None and r["abort_reason"].endswith(_DETECTION_REASONS)
    ]
    ab_pool: dict = {}
    ae_pool: dict = {}
    for r in rows:
        _merge_counts(ab_pool, r["ab_counts"])
        _merge_counts(ae_pool, r["ae_counts"])
    i_ab = (
        analysis.mutual_information(analysis.JointDistribution.from_counts(ab_pool))
        if ab_pool
        else None
    )
    i_ae = (
        analysis.mutual_information(analysis.JointDistribution.from_counts(ae_pool))
        if ae_pool
        else 0.0
    )
    agreeing = 0
    for r in completed:
        if type(r["keys_agree"]) is not bool:  # a completed trial's keys agree or not
            raise TypeError(f"keys_agree is {r['keys_agree']!r}, not a bool")
        agreeing += r["keys_agree"]
    return {
        "trials": len(rows),
        "completed": len(completed),
        "abort_rate": (len(rows) - len(completed)) / len(rows),
        "detection_rate": len(detected) / len(rows),
        "check1": _pooled_rate(rows, "check1"),
        "check2": _pooled_rate(rows, "check2"),
        "mean_key_length": _mean([float(r["key_length"]) for r in completed]),
        "key_agreement_rate": agreeing / len(completed) if completed else None,
        "mutual_information_ab": i_ab,
        "mutual_information_ae": i_ae,
        "efficiency": analysis.efficiency(analysis.TWO_STEP_ACCOUNTING),
        "mean_receipt_fraction_1": _mean(
            [r["receipt_fraction_1"] for r in rows if r["receipt_fraction_1"] is not None]
        ),
        "mean_receipt_fraction_2": _mean(
            [r["receipt_fraction_2"] for r in rows if r["receipt_fraction_2"] is not None]
        ),
    }


@dataclass
class RunReport:
    """Everything one invocation produced.

    ``wall_time_s`` is informational and deliberately left out of the
    serialized forms so that identical (config, seed) runs serialize to
    identical bytes.
    """

    config: RunConfig
    rows: list[dict]
    aggregate: dict
    wall_time_s: float = 0.0
    transcripts: list[str] | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "trials": self.rows,
            "aggregate": self.aggregate,
        }


def run(config: RunConfig, collect_transcripts: bool = False) -> RunReport:
    """Execute config.trials independent runs and aggregate them.

    With ``collect_transcripts`` the report also carries each trial's
    transcript; without it no trial records one, and the rows are the same.
    """
    started = time.perf_counter()
    rows = []
    transcripts: list[str] | None = [] if collect_transcripts else None
    for trial in range(config.trials):
        outcome = run_multiparty(config, trial, record_transcript=collect_transcripts)
        rows.append(trial_row(outcome))
        if transcripts is not None:
            transcripts.append("".join([hop.transcript.to_jsonl() for hop in outcome.hops]))
    return RunReport(
        config=config,
        rows=rows,
        aggregate=aggregate_rows(rows),
        wall_time_s=time.perf_counter() - started,
        transcripts=transcripts,
    )
