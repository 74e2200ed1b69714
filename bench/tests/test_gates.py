import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import configs
import run
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def bulk_result():
    op = workloads.WORKLOADS["bulk-resend"].op(seed=3, index=0, workdir=None)
    op.execute()
    return op


def test_honest_bulk_resend_passes_its_gates(bulk_result):
    result = bulk_result.check()
    assert result.failures == []
    assert workloads.bulk_gates(result.stats) == []


def test_a_doctored_check2_error_of_zero_trips_the_bulk_gate(bulk_result):
    row = bulk_result.report.rows[0]
    honest = row["check2"]["mismatches"]
    row["check2"]["mismatches"] = 0
    try:
        breaches = workloads.bulk_gates(bulk_result.check().stats)
    finally:
        row["check2"]["mismatches"] = honest
    assert any("check-2 error 0/" in b for b in breaches)


def test_detect_gates_count_first_check_escapes():
    trials = 40_000
    stats = Counter(
        {
            "trials": trials,
            "check1_size:16": trials,
            "check1_samples": 16 * trials,
            "check1_mismatches": 8 * trials,
            "abort:check1_failed": trials,
        }
    )
    assert workloads.detect_gates(stats) == []
    limit = workloads.binomial_limit(trials, workloads.FAKE_EPR_MISS)
    stats["abort:check1_failed"] -= limit + 1
    stats["abort:check2_failed"] += limit + 1
    assert any("passed check 1" in b for b in workloads.detect_gates(stats))


def test_binomial_limit_matches_hand_values():
    # X ~ Bin(2, 0.5): P(X > 1) = 0.25, P(X > 2) = 0.
    assert workloads.binomial_limit(2, 0.5, alpha=0.3) == 1
    assert workloads.binomial_limit(2, 0.5, alpha=0.2) == 2
    assert workloads.binomial_limit(40_000, 2.0**-16) <= 8


def _row(**changes):
    row = {
        "trial": 0,
        "abort_reason": None,
        "keys_agree": True,
        "key_length": 2 * (64 - 16 - 12),
        "check1": {"sample_size": 16},
        "check2": {"sample_size": 12},
        "hop2": None,
    }
    row.update(changes)
    return row


@pytest.mark.parametrize(
    "row, expected",
    [
        (_row(), None),
        (_row(abort_reason="check1_failed", key_length=0, keys_agree=None), None),
        (_row(key_length=0), "neither a key nor an abort reason"),
        (_row(keys_agree=False), "keys_agree=False"),
        (_row(key_length=70), "key_length 70 != 2 x 36"),
    ],
)
def test_trial_failure_classification(row, expected):
    failure = workloads.trial_failure(row, pairs=64)
    if expected is None:
        assert failure is None
    else:
        assert expected in failure


def test_audit_op_checks_transcripts_against_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(configs, "AUDIT_TRIALS", 2)
    op = workloads.WORKLOADS["audit"].op(seed=9, index=0, workdir=tmp_path)
    op.execute()
    result = op.check(digest=True)
    assert op.codes == [0, 0]
    assert result.failures == [] and workloads.audit_gates(result.stats) == []
    lines = op.transcript_path.read_text().splitlines(keepends=True)
    op.transcript_path.write_text("".join(l for l in lines if '"event":"prepare"' not in l))
    assert any("transcripts prepare" in b for b in workloads.audit_gates(op.check().stats))


def test_benchmark_json_names_what_run_py_reports():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in contract["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == workloads.layer_metrics()


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "detect", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
