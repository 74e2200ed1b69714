"""``scripts/record_bench.py`` on canned benchmark runs: the alternation, the
summary statistics and the schema of the file it writes, without running
the benchmark."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record_bench", ROOT / "scripts" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)

BETTER = {
    metric["name"]: metric["better"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}
META = {
    "commit": None,
    "cpu_model": "test CPU",
    "cpus_usable": 2,
    "nproc": 2,
    "numpy": "0",
    "python": "3",
    "src_lines": 100,
    "src_sha256": "0" * 64,
}


def canned_run(side: str, workload: str, seed: int, trace: int, k: int) -> dict:
    """What ``run_bench`` returns: the change is 10% faster and no larger."""
    speed = (1.1 if side == "change" else 1.0) * (100 + k)
    values = {
        "pairs_per_s": 256 * speed,
        "trials_per_s": speed,
        "verify_rows_per_s": 2 * speed,
        "setup_s": 0.05,
        "peak_rss_mb": 24.0 + k / 10,
    }
    metrics = {name: {"value": value, "unit": "u"} for name, value in values.items()}
    if trace:
        metrics = {"report.render_s": {"value": 0.01 * (k + 1), "unit": "s"}}
        metrics["quantum.measure_s"] = {"value": None, "unit": "s", "missing": ["a:b"]}
    record = {
        "meta": {**META, "src_lines": 100 if side == "parent" else 90},
        "metrics": metrics,
        "attempted": 4 * (10 + k),
        "failures": [],
        "gate_breaches": [],
        "notes": [f"run {k}"],
    }
    result = {"correct": True, "attempted": 4 * (10 + k), "failed": 0, "metrics": metrics}
    return {"result": result, "ops": 10 + k, "record": record}


def canned_runner(trace: int = 0):
    calls = []

    def run_one(side, workload, seed):
        calls.append((side, workload, seed))
        k = sum(1 for call in calls if call == (side, workload, seed)) - 1
        return canned_run(side, workload, seed, trace, k)

    return run_one, calls


def test_pairs_alternate_which_side_runs_first():
    steps = record_bench.plan(("detect", "audit"), "audit", 1, 314159, 3)
    run_one, calls = canned_runner()
    runs = record_bench.collect(steps, run_one)
    assert list(runs) == ["seed1/detect", "seed1/audit", "seed314159/audit"]
    assert [pair["first"] for pair in runs["seed1/audit"]] == ["parent", "change", "parent"]
    # Every seed-1 round runs before the held-out pairs.
    assert calls[:4] == [
        ("parent", "detect", 1),
        ("change", "detect", 1),
        ("parent", "audit", 1),
        ("change", "audit", 1),
    ]
    assert calls[-2:] == [("parent", "audit", 314159), ("change", "audit", 314159)]
    assert len(calls) == 2 * 9


def test_document_has_the_committed_schema():
    steps = record_bench.plan(record_bench.WORKLOADS, "audit", 1, 314159, 10)
    runs = record_bench.collect(steps, canned_runner()[0])
    traced_one, _ = canned_runner(trace=1)
    traced = record_bench.collect([("audit", "audit", 1, k) for k in range(5)], traced_one)
    traces = {
        f"{side}/audit": [pair[side] for pair in traced["audit"]] for side in record_bench.SIDES
    }
    sides = {"parent": {"commit": "p"}, "change": {"commit": "c"}}
    claim = {"workload": "audit", "metric": "trials_per_s", "rule": "r"}
    doc = record_bench.document("w", claim, sides, runs, traces, BETTER)
    doc = json.loads(json.dumps(doc))  # it is plain JSON

    committed = json.loads((ROOT / "BENCH_24.json").read_text())
    assert doc.keys() == committed.keys()
    assert doc["machine"].keys() == committed["machine"].keys()
    assert doc["sides"]["change"].keys() == committed["sides"]["change"].keys()
    assert doc["sides"]["change"]["src_lines"] == 90
    label = "seed1/audit"
    assert doc["summary"][label].keys() == committed["summary"][label].keys()
    for metric in BETTER:
        assert doc["summary"][label][metric].keys() == committed["summary"][label][metric].keys()
    assert doc["runs"][label][0].keys() == committed["runs"][label][0].keys()
    assert doc["runs"][label][0]["change"].keys() == committed["runs"][label][0]["change"].keys()
    assert set(doc["runs"]) == {f"seed1/{w}" for w in record_bench.WORKLOADS} | {"seed314159/audit"}
    assert set(doc["trace1"]["change/audit"]) >= set(committed["trace1"]["change/audit"])

    trials = doc["summary"][label]["trials_per_s"]
    # Parent runs read 100..109 trials/s, the change 10% more in every pair.
    assert trials["parent_median"] == 104.5
    assert trials["change_median"] == pytest.approx(1.1 * 104.5)
    assert trials["parent_quartiles"] == [101.75, 104.5, 107.25]
    assert trials["parent_iqr"] == 5.5
    assert trials["change_wins"] == "10 of 10"
    assert trials["median_gap_exceeds_parent_iqr"] is True
    assert all(abs(ratio - 1.1) < 1e-12 for ratio in trials["paired_ratios"])
    # Lower is better for peak_rss_mb, and equal values win nothing.
    rss = doc["summary"][label]["peak_rss_mb"]
    assert rss["better"] == "lower"
    assert rss["change_wins"] == "0 of 10"
    assert rss["median_gap_exceeds_parent_iqr"] is False
    assert doc["summary"][label]["ops"]["parent"] == {"median": 14.5, "min": 10, "max": 19}
    assert doc["summary"][label]["failed_of_attempted"]["change"] == "0 of 580"
    assert doc["summary"][label]["all_correct"] is True

    trace = doc["trace1"]["parent/audit"]
    assert trace["runs"] == 5
    assert trace["metrics"]["report.render_s"] == 0.03  # the median of 0.01..0.05
    assert trace["metrics"]["quantum.measure_s"] is None
    assert trace["missing_wrap_points"] == ["a:b"]
    assert trace["notes"] == [f"run {k}" for k in range(5)]


def test_each_record_is_read_before_the_next_run_overwrites_it(tmp_path):
    # A stand-in for bench/run.py that writes a different record to the same
    # path on every run, as bench/run.py does for one workload, seed and trace.
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json, pathlib, sys\n"
        "out = pathlib.Path('.bench_out'); out.mkdir(exist_ok=True)\n"
        "count = out / 'count'\n"
        "n = int(count.read_text()) + 1 if count.exists() else 1\n"
        "count.write_text(str(n))\n"
        "(out / 'result-audit-seed1-trace0.json').write_text(json.dumps({'n': n}))\n"
        "print(f'bench: workload=audit seed=1 trace=0 ops={n}')\n"
        "print(json.dumps({'correct': True, 'attempted': n, 'failed': 0, 'metrics': {}}))\n"
    )
    runs = [record_bench.run_bench(tmp_path, "audit", 1, 0) for _ in range(2)]
    assert [run["record"]["n"] for run in runs] == [1, 2]
    assert [run["ops"] for run in runs] == [1, 2]
    assert runs[1]["result"]["attempted"] == 2


def test_each_round_ends_timing_the_acceptance_tests_once_per_side():
    workloads = (*record_bench.WORKLOADS, record_bench.ACCEPTANCE)
    steps = record_bench.plan(workloads, "audit", 1, 314159, 4)
    run_one, calls = canned_runner()

    def timed(side, workload, seed):
        if workload != record_bench.ACCEPTANCE:
            return run_one(side, workload, seed)
        calls.append((side, workload, seed))
        k = sum(1 for call in calls if call == (side, workload, seed)) - 1
        return (10.0 if side == "parent" else 9.0) + k  # canned wall seconds

    runs = record_bench.collect(steps, timed)
    acceptance = runs.pop("seed1/acceptance")
    assert set(runs) == {f"seed1/{w}" for w in record_bench.WORKLOADS} | {"seed314159/audit"}
    # Round k times the acceptance tests after its workloads, the parent
    # first in even rounds.
    per_round = 2 * len(workloads)
    for k in range(4):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        round_calls = calls[k * per_round : (k + 1) * per_round]
        assert [call[0] for call in round_calls[-2:]] == order
        assert [call[1] for call in round_calls[-2:]] == [record_bench.ACCEPTANCE] * 2
    assert [pair["first"] for pair in acceptance] == ["parent", "change", "parent", "change"]

    summary = record_bench.acceptance_summary(acceptance)
    assert json.loads(json.dumps(summary)) == summary  # it is plain JSON
    assert summary["command"] == "python -m pytest -q -p no:cacheprovider tests/test_acceptance.py"
    assert summary["parent"] == {"median": 11.5, "quartiles": [10.25, 11.5, 12.75]}
    assert summary["change"] == {"median": 10.5, "quartiles": [9.25, 10.5, 11.75]}
    assert [pair["change"] for pair in summary["pairs"]] == [9.0, 10.0, 11.0, 12.0]


@pytest.mark.parametrize("returncode", [0, 1])
def test_acceptance_tests_run_against_the_sides_own_source(tmp_path, monkeypatch, returncode):
    seen = []

    def canned(args, cwd, env, **kwargs):
        seen.append((args[1:], cwd, env["PYTHONPATH"], env["PYTHONDONTWRITEBYTECODE"]))
        return subprocess.CompletedProcess(args, returncode, "canned output", "")

    monkeypatch.setattr(record_bench.subprocess, "run", canned)
    if returncode:
        with pytest.raises(RuntimeError, match="canned output"):
            record_bench.time_acceptance(tmp_path)
    else:
        assert record_bench.time_acceptance(tmp_path) >= 0.0
    assert seen == [(list(record_bench.ACCEPTANCE_COMMAND), tmp_path, "src", "1")]
