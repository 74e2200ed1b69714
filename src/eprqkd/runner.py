"""Monte-Carlo orchestration: many independent runs, one report.

Trial t draws from the root seed XOR t. Within one batch the trials are
independent and any trial can be reproduced alone, but the streams collide
across root seeds: seed 0's trial 1 is seed 1's trial 0, and in general
(seed a, trial t) equals (seed b, trial u) whenever a ^ t == b ^ u. Report
schema 2 is to seed each trial from its own named substream instead; that
changes every draw, so it waits for the schema bump. Aggregation is a
deterministic fold in trial order, which makes reports byte-stable however
trials might be scheduled.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

from . import analysis
from .adversary import eve_guess_counts
from .config import RunConfig
from .protocol import MultipartyOutcome, ProtocolOutcome, run_multiparty, run_protocol
from .rng import RandomSource

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


def trial_row(trial: int, outcome: ProtocolOutcome | MultipartyOutcome) -> dict:
    """Flatten one trial's outcome into the serializable report row."""
    if isinstance(outcome, MultipartyOutcome):
        primary = outcome.hop1
        hop2 = _hop_row(outcome.hop2) if outcome.hop2 is not None else None
        key = outcome.clare_key
        abort_reason = outcome.abort_reason
        keys_agree = outcome.keys_agree
    else:
        primary = outcome
        hop2 = None
        key = outcome.receiver_key
        abort_reason = outcome.abort_reason
        keys_agree = outcome.keys_agree
    row = {"trial": trial, "keys_agree": keys_agree}
    row.update(_hop_row(primary))
    # The overall reason (hop-prefixed when the second hop failed), not the
    # first hop's view of it.
    row["abort_reason"] = abort_reason
    row["key_length"] = len(key.bits) if key is not None else 0
    row["ab_counts"] = primary.decode_joint_counts()
    row["ae_counts"] = eve_guess_counts(primary.eve, primary.ledger)
    row["hop2"] = hop2
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
    return sum(values) / len(values) if values else None


def aggregate_rows(rows: list[dict]) -> dict:
    """Fold per-trial rows into the aggregate block, in row order.

    Pure function of the rows, so a report's aggregate can be re-derived
    and audited from its own trial records.
    """
    completed = [r for r in rows if r["abort_reason"] is None]
    detected = [
        r
        for r in rows
        if r["abort_reason"] is not None
        and any(r["abort_reason"].endswith(reason) for reason in _DETECTION_REASONS)
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
    agreeing = [r for r in completed if r["keys_agree"]]
    return {
        "trials": len(rows),
        "completed": len(completed),
        "abort_rate": (len(rows) - len(completed)) / len(rows),
        "detection_rate": len(detected) / len(rows),
        "check1": _pooled_rate(rows, "check1"),
        "check2": _pooled_rate(rows, "check2"),
        "mean_key_length": _mean([float(r["key_length"]) for r in completed]),
        "key_agreement_rate": len(agreeing) / len(completed) if completed else None,
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
    schema_version: str = SCHEMA_VERSION
    wall_time_s: float = 0.0
    transcripts: list[str] | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config.to_dict(),
            "trials": self.rows,
            "aggregate": self.aggregate,
        }


def run(config: RunConfig, collect_transcripts: bool = False) -> RunReport:
    """Execute config.trials independent runs and aggregate them."""
    started = time.perf_counter()
    rows = []
    transcripts: list[str] | None = [] if collect_transcripts else None
    for trial in range(config.trials):
        trial_rng = RandomSource(config.seed ^ trial)
        if config.parties == 3:
            outcome = run_multiparty(config, trial_rng, trial=trial)
        else:
            outcome = run_protocol(config, trial_rng, trial=trial)
        rows.append(trial_row(trial, outcome))
        if transcripts is not None:
            transcripts.append(outcome.transcript.to_jsonl())
    return RunReport(
        config=config,
        rows=rows,
        aggregate=aggregate_rows(rows),
        wall_time_s=time.perf_counter() - started,
        transcripts=transcripts,
    )
