"""Monte-Carlo orchestration: many independent runs, one report.

Every trial, two-party or three-party, is one ``run_multiparty`` chain of
hops; its row reads the first hop and, when it ran, the second. ``run``
hands ``run_multiparty`` its trials in batches of at most ``BATCH_PAIRS``
pairs, whose rows are what each trial gives alone. A trial
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
from typing import NamedTuple

from . import analysis
from .adversary import eve_guess_counts
from .config import RunConfig
from .ledger import PairLedger
from .protocol import TrialOutcome, run_multiparty
# The benchmark's traced run (bench/workloads.py) wraps this binding.
from .protocol import run_protocol  # noqa: F401

SCHEMA_VERSION = "eprqkd-report/1"

# The most pairs a batch of trials prepares, which bounds the memory a run
# holds at once beyond its rows: each trial's ledger and the batch's joined
# columns, a few bytes per pair, until the batch's rows are built.
BATCH_PAIRS = 2**16

_DETECTION_REASONS = ("check1_failed", "check2_failed")


def _hop_row(ledger: PairLedger, abort_reason: str | None) -> dict:
    """A hop's block of a row: its abort reason, receipts and checks."""
    return {
        "abort_reason": abort_reason,
        "receipt_fraction_1": ledger.receipt_1,
        "receipt_fraction_2": ledger.receipt_2,
        "check1": ledger.check1.to_dict() if ledger.check1 else None,
        "check2": ledger.check2.to_dict() if ledger.check2 else None,
    }


def trial_row(outcome: TrialOutcome) -> dict:
    """Flatten one trial's outcome into the serializable report row.

    Its hop block is the first hop's, under the trial's overall abort reason
    (hop-prefixed when the second hop failed); ``hop2`` is the second hop's
    block when that hop ran.
    """
    first = outcome.hops[0].ledger
    second = outcome.hops[1] if len(outcome.hops) > 1 else None
    return {
        "trial": outcome.trial,
        "keys_agree": outcome.keys_agree,
        **_hop_row(first, outcome.abort_reason),
        "key_length": 2 * len(outcome.keys[-1]) if outcome.keys else 0,
        "ab_counts": first.counts("outcome"),
        "ae_counts": eve_guess_counts(first),
        "hop2": _hop_row(second.ledger, second.abort_reason) if second else None,
    }


def _merge_counts(tables: list[dict]) -> dict:
    """The count tables added cell by cell, in order."""
    pooled: dict = {}
    for counts in tables:
        for x, row in counts.items():
            target = pooled.setdefault(x, {})
            for y, n in row.items():
                # Checked per row: a pooled sum would turn a bool count into an int.
                if type(n) is not int or n < 0:
                    raise ValueError(f"counts must be nonnegative ints, got {n!r}")
                target[y] = target.get(y, 0) + n
    return pooled


def _checked(values: list, kind: type, high: float = math.inf) -> list:
    """``values``, each an exact ``kind`` (a bool is no int) in [0, high];
    a NaN is in no range."""
    for value in values:
        if type(value) is not kind or not 0 <= value <= high:
            raise ValueError(f"a row holds {value!r:.40}, not a {kind.__name__} in [0, {high}]")
    return values


def _pooled_rate(rows: list[dict], key: str) -> dict | None:
    # Checked inline rather than through ``_checked``: on many small trials
    # this loop is a large share of a verify.
    samples = mismatches = 0
    for r in rows:
        if (check := r[key]) is not None:
            n, m = check["sample_size"], check["mismatches"]
            if type(n) is not int or type(m) is not int or n < 0 or m < 0:
                raise ValueError(f"{key} holds {n!r:.40} and {m!r:.40}, not two ints >= 0")
            samples += n
            mismatches += m
    if samples == 0:
        return None
    rate = mismatches / samples
    return {
        "samples": samples,
        "mismatches": mismatches,
        "error_rate": rate,
        "stderr": math.sqrt(rate * (1.0 - rate) / samples),
    }


def _mean(values: list[float]) -> float | None:
    mean = analysis.total(values) / len(values) if values else None
    if mean is not None and not math.isfinite(mean):
        raise ValueError(f"a mean of the rows is {mean!r}")
    return mean


def _fractions(rows: list[dict], key: str) -> list[float]:
    return _checked([value for r in rows if (value := r[key]) is not None], float, 1.0)


def aggregate_rows(rows: list[dict]) -> dict:
    """Fold per-trial rows into the aggregate block, in row order.

    Pure function of the rows, so a report's aggregate can be re-derived
    and audited from its own trial records. Every number it reads must have
    its exact type, or it raises ValueError: check sample sizes and
    mismatches, completed rows' key lengths and every outcome count are ints
    >= 0, receipt fractions floats in [0, 1], and completed rows'
    ``keys_agree`` bools.
    """
    completed = [r for r in rows if r["abort_reason"] is None]
    detected = [
        r
        for r in rows
        if r["abort_reason"] is not None and r["abort_reason"].endswith(_DETECTION_REASONS)
    ]
    ab_pool = _merge_counts([r["ab_counts"] for r in rows])
    ae_pool = _merge_counts([r["ae_counts"] for r in rows])
    # A pooled table with no row has no information: None between sender and
    # receiver, 0 bits for Eve. _merge_counts has checked every count.
    i_ab = analysis.mutual_information(ab_pool) if ab_pool else None
    i_ae = analysis.mutual_information(ae_pool) if ae_pool else 0.0
    # A completed trial's keys agree or not.
    agreeing = sum(_checked([r["keys_agree"] for r in completed], bool))
    key_lengths = _checked([r["key_length"] for r in completed], int)
    return {
        "trials": len(rows),
        "completed": len(completed),
        "abort_rate": (len(rows) - len(completed)) / len(rows),
        "detection_rate": len(detected) / len(rows),
        "check1": _pooled_rate(rows, "check1"),
        "check2": _pooled_rate(rows, "check2"),
        "mean_key_length": _mean(list(map(float, key_lengths))),
        "key_agreement_rate": agreeing / len(completed) if completed else None,
        "mutual_information_ab": i_ab,
        "mutual_information_ae": i_ae,
        "efficiency": analysis.efficiency(analysis.TWO_STEP_ACCOUNTING),
        "mean_receipt_fraction_1": _mean(_fractions(rows, "receipt_fraction_1")),
        "mean_receipt_fraction_2": _mean(_fractions(rows, "receipt_fraction_2")),
    }


class RunReport(NamedTuple):
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
    # Trials run in batches, each a ``run_multiparty`` of a range.
    size = max(1, BATCH_PAIRS // config.pairs)
    for start in range(0, config.trials, size):
        batch = range(start, min(start + size, config.trials))
        for outcome in run_multiparty(config, batch, collect_transcripts):
            rows.append(trial_row(outcome))
            if transcripts is not None:
                jsonl = [hop.ledger.transcript.to_jsonl() for hop in outcome.hops]
                transcripts.append("".join(jsonl))
    return RunReport(
        config=config,
        rows=rows,
        aggregate=aggregate_rows(rows),
        wall_time_s=time.perf_counter() - started,
        transcripts=transcripts,
    )
