"""``scripts/record_bench.py`` on canned benchmark runs: the alternation, the
summary statistics and the schema of the file it writes, without running
the benchmark."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_script(name: str):
    """Module ``scripts/<name>.py``, registered under ``name`` so that a
    script importing it, as ``record_bench`` imports ``code_lines``, finds it."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = load_script("code_lines")
record_bench = load_script("record_bench")

METRICS = {
    metric["name"]: metric
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
        if workload == record_bench.ACCEPTANCE:
            return (10.0 if side == "parent" else 9.0) + k  # canned wall seconds
        return canned_run(side, workload, seed, trace, k)

    return run_one, calls


def keeping_runner(metas: dict):
    """``canned_runner``'s untraced runs as ``main`` keeps them, through
    ``keep_run``, which leaves each side's first meta in ``metas``."""
    run_one, calls = canned_runner()

    def keep(side, workload, seed):
        run = run_one(side, workload, seed)
        if workload == record_bench.ACCEPTANCE:
            return run
        return record_bench.keep_run(run, side, metas)

    return keep, calls


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


# The keys of a committed BENCH file, each level's set (the file's own, and
# those of its machine, a side, a label's summary, a metric's summary, a
# kept pair and one side's run in it, and a traced side and workload).
DOCUMENT_KEYS = {
    "what", "machine", "sides", "claim", "summary", "runs", "trace1", "acceptance_wall_s", "scale"
}
MACHINE_KEYS = {"cpu_model", "cpus_usable", "nproc", "numpy", "python"}
SIDE_KEYS = {"commit", "src_lines", "src_sha256", "src_code_lines", "cli_imports"}
SUMMARY_KEYS = {*METRICS, "ops", "failed_of_attempted", "all_correct"}
METRIC_SUMMARY_KEYS = {
    "better",
    "parent_median",
    "change_median",
    "parent_quartiles",
    "change_quartiles",
    "ratio_change_over_parent",
    "paired_ratios",
    "parent_iqr",
    "change_wins",
    "median_gap_exceeds_parent_iqr",
    "bound",
    "unresolved",
    "regressed",
}
PAIR_KEYS = {"first", "parent", "change"}
RUN_KEYS = {"correct", "ops", "attempted", "failed", *METRICS}
TRACE_KEYS = {
    "attempted", "failures", "gate_breaches", "metrics", "missing_wrap_points", "notes", "ops"
}


def test_document_has_the_committed_schema():
    workloads = (*record_bench.WORKLOADS, record_bench.ACCEPTANCE)
    steps = record_bench.plan(workloads, "audit", 1, 314159, 10)
    metas = {}
    runs = record_bench.collect(steps, keeping_runner(metas)[0])
    acceptance = runs.pop("seed1/acceptance")
    traced_one, _ = canned_runner(trace=1)
    traced = record_bench.collect([("audit", "audit", 1, k) for k in range(5)], traced_one)
    traces = {
        f"{side}/audit": [pair[side] for pair in traced["audit"]] for side in record_bench.SIDES
    }
    # As main() builds them: each side's commit, its src/ code lines and the
    # modules its command line imports.
    sides = {
        "parent": {"commit": "p", "src_code_lines": 80, "cli_imports": ["argparse", "eprqkd"]},
        "change": {"commit": "c", "src_code_lines": 70, "cli_imports": ["eprqkd"]},
    }
    claim = {"workload": "audit", "metric": "trials_per_s", "rule": "r"}
    scale = record_bench.scale_series(canned_scale()[0], (10, 100), 4, lambda: 1e9)
    doc = record_bench.document(
        "w", claim, sides, runs, metas, traces, acceptance, METRICS, scale
    )
    doc = json.loads(json.dumps(doc))  # it is plain JSON

    assert doc.keys() == DOCUMENT_KEYS
    assert doc["machine"].keys() == MACHINE_KEYS
    assert doc["sides"]["change"].keys() == SIDE_KEYS
    assert doc["sides"]["change"]["src_lines"] == 90
    assert doc["sides"]["change"]["src_code_lines"] == 70
    assert doc["sides"]["parent"]["cli_imports"] == ["argparse", "eprqkd"]
    label = "seed1/audit"
    assert doc["summary"][label].keys() == SUMMARY_KEYS
    for metric in METRICS:
        assert doc["summary"][label][metric].keys() == METRIC_SUMMARY_KEYS
    assert doc["runs"][label][0].keys() == PAIR_KEYS
    assert doc["runs"][label][0]["change"].keys() == RUN_KEYS
    assert set(doc["runs"]) == {f"seed1/{w}" for w in record_bench.WORKLOADS} | {"seed314159/audit"}
    assert set(doc["trace1"]["change/audit"]) >= TRACE_KEYS
    assert doc["acceptance_wall_s"] == record_bench.acceptance_summary(acceptance)
    assert doc["scale"] == scale and set(scale) == {"10", "100"}

    trials = doc["summary"][label]["trials_per_s"]
    # Parent runs read 100..109 trials/s, the change 10% more in every pair.
    assert trials["parent_median"] == 104.5
    assert trials["change_median"] == pytest.approx(1.1 * 104.5)
    assert trials["parent_quartiles"] == [101.75, 104.5, 107.25]
    assert trials["parent_iqr"] == 5.5
    assert trials["change_wins"] == "10 of 10"
    assert trials["median_gap_exceeds_parent_iqr"] is True
    assert all(abs(ratio - 1.1) < 1e-12 for ratio in trials["paired_ratios"])
    # A 5% spread resolves the 0.25 bound, and the change is better.
    assert trials["bound"] == 0.25
    assert trials["unresolved"] is False and trials["regressed"] is False
    # Lower is better for peak_rss_mb, and equal values win nothing.
    rss = doc["summary"][label]["peak_rss_mb"]
    assert rss["better"] == "lower"
    assert rss["change_wins"] == "0 of 10"
    assert rss["median_gap_exceeds_parent_iqr"] is False
    assert rss["unresolved"] is False and rss["regressed"] is False
    assert doc["summary"][label]["ops"]["parent"] == {"median": 14.5, "min": 10, "max": 19}
    assert doc["summary"][label]["failed_of_attempted"]["change"] == "0 of 580"
    assert doc["summary"][label]["all_correct"] is True

    trace = doc["trace1"]["parent/audit"]
    assert trace["runs"] == 5
    assert trace["metrics"]["report.render_s"] == 0.03  # the median of 0.01..0.05
    assert trace["metrics"]["quantum.measure_s"] is None
    assert trace["missing_wrap_points"] == ["a:b"]
    assert trace["notes"] == [f"run {k}" for k in range(5)]


def test_an_untraced_run_is_kept_as_its_values_alone():
    # A recording keeps no untraced record, whose per-op detail would grow
    # the recorder run by run: only each run's values, and one meta a side.
    metas = {}
    run_one, calls = keeping_runner(metas)
    steps = record_bench.plan(record_bench.WORKLOADS, "audit", 1, 314159, 3)
    runs = record_bench.collect(steps, run_one)
    for pairs in runs.values():
        for pair in pairs:
            assert pair.keys() == PAIR_KEYS
            assert pair["parent"].keys() == pair["change"].keys() == RUN_KEYS
    k = 2  # the third pair of detect at seed 1
    expected = record_bench.run_values(canned_run("change", "detect", 1, 0, k))
    assert runs["seed1/detect"][k]["change"] == expected
    first = calls[0][1]
    assert metas == {
        side: canned_run(side, first, 1, 0, 0)["record"]["meta"] for side in record_bench.SIDES
    }


# Ten parent runs 80..116 MB: median 98, quartiles 87 and 109, an IQR of 22%
# of the median, wider than a 0.10 bound.
WIDE_PARENT = [80.0 + 4 * k for k in range(10)]


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins():
    same = record_bench.summarize_metric(WIDE_PARENT, WIDE_PARENT, "lower", 0.10)
    assert same["parent_iqr"] == 22.0
    assert same["unresolved"] is True and same["regressed"] is False
    # Every change run below every parent run resolves it despite the spread.
    lower = [value - 40 for value in WIDE_PARENT]
    swept = record_bench.summarize_metric(WIDE_PARENT, lower, "lower", 0.10)
    assert swept["unresolved"] is False
    # One change run that does not beat the parent's best leaves it unresolved.
    unswept = record_bench.summarize_metric(WIDE_PARENT, [*lower[:-1], 80.0], "lower", 0.10)
    assert unswept["unresolved"] is True
    # The same runs resolve a bound wider than their spread.
    wide_bound = record_bench.summarize_metric(WIDE_PARENT, WIDE_PARENT, "lower", 0.25)
    assert wide_bound["unresolved"] is False


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_a_median_worse_by_more_than_the_bound_regressed(better):
    parent = [100.0 + k / 10 for k in range(10)]  # median 100.45, IQR 0.55
    worse = 0.7 if better == "higher" else 1.3
    for factor, regressed in ((worse, True), ((1 + worse) / 2, False), (1.0, False)):
        change = [factor * value for value in parent]
        summary = record_bench.summarize_metric(parent, change, better, 0.25)
        assert summary["regressed"] is regressed
        assert summary["unresolved"] is False


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
    runs = record_bench.collect(steps, run_one)
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


def canned_scale():
    """A stand-in for ``run_scale``: run k of a side at ``size`` pairs takes
    size / 10**6 + k / 100 s (the change 0.8 of it) and peaks at
    size / 10**5 + k MB (the change 1 MB lower)."""
    calls = []

    def run_one(side, size, seed):
        calls.append((side, size))
        k = calls.count((side, size)) - 1
        change = side == "change"
        return {
            "wall_s": (0.8 if change else 1.0) * (size / 10**6 + k / 100),
            "peak_mb": size / 10**5 + k - change,
        }

    return run_one, calls


def test_the_scale_series_alternates_and_summarizes_each_size():
    run_one, calls = canned_scale()
    series = record_bench.scale_series(run_one, (10**6, 10**7), 4, lambda: 10**6)
    assert json.loads(json.dumps(series)) == series  # it is plain JSON
    assert list(series) == ["1000000", "10000000"]
    # Every pair of the smaller size runs first, the parent first in even pairs.
    order = ["parent", "change", "change", "parent"] * 2
    assert calls == [(side, 10**6) for side in order] + [(side, 10**7) for side in order]
    assert [pair["first"] for pair in series["1000000"]["pairs"]] == [
        "parent", "change", "parent", "change"
    ]
    big = series["10000000"]
    assert big.keys() == {"pairs", "parent", "change"}
    # Peaks 100..103 MB: median 101.5, quartiles 100.25 and 102.75.
    assert big["parent"]["peak_mb"] == {
        "median": 101.5, "quartiles": [100.25, 101.5, 102.75], "iqr": 2.5
    }
    assert big["change"]["peak_mb"]["median"] == 100.5
    assert big["parent"]["wall_s"]["median"] == pytest.approx(10.015)
    assert big["change"]["wall_s"]["median"] == pytest.approx(0.8 * 10.015)
    assert big["parent"]["wall_s"]["iqr"] == pytest.approx(0.025)
    assert big["pairs"][1]["change"] == {"wall_s": 0.8 * 10.01, "peak_mb": 100.0}


def test_a_size_ten_times_past_free_memory_is_skipped_with_every_later_one():
    # The 10**6 runs peak at up to 13 MB, so 10**7 would need about 130 MB.
    run_one, calls = canned_scale()
    free = iter([1000.0, 129.0])
    series = record_bench.scale_series(run_one, (10**6, 10**7, 10**8), 4, lambda: next(free))
    assert {size for _, size in calls} == {10**6}
    assert series["1000000"]["parent"]["peak_mb"]["median"] == 11.5
    assert series["10000000"] == {
        "skipped": "ten times the size before's peak, 13.0 MB, exceeds MemAvailable, 129.0 MB"
    }
    assert series["100000000"] == {"skipped": "the size before it was skipped"}
    # With room for it, the next size runs.
    roomy = record_bench.scale_series(canned_scale()[0], (10**6, 10**7), 4, lambda: 130.0)
    assert "skipped" not in roomy["10000000"]


def test_a_scale_run_reads_the_childs_last_line_against_its_own_source(tmp_path, monkeypatch):
    seen = []

    def canned(args, cwd, env, **kwargs):
        seen.append((args[1:3], args[3:-1], cwd, env["PYTHONPATH"], env["PYTHONDONTWRITEBYTECODE"]))
        return subprocess.CompletedProcess(args, 0, "summary\n", "a warning\n0.25 71.5\n")

    monkeypatch.setattr(record_bench.subprocess, "run", canned)
    assert record_bench.run_scale(tmp_path, 10**6) == {"wall_s": 0.25, "peak_mb": 71.5}
    command = [*record_bench.SCALE_ARGS, "1000000", "--out"]
    assert seen == [(["-c", record_bench.SCALE_CHILD], command, tmp_path, "src", "1")]


def test_the_scale_child_runs_the_command_line_and_reads_its_peak(tmp_path):
    # The child itself, on a 20-pair run of this checkout's source.
    done = subprocess.run(
        [sys.executable, "-c", record_bench.SCALE_CHILD, *record_bench.SCALE_ARGS, "20",
         "--out", str(tmp_path / "r.json")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.returncode == 0, done.stderr
    seconds, peak = map(float, done.stderr.splitlines()[-1].split())
    assert 0 < seconds < 60 and 1 < peak < 1000
    assert json.loads((tmp_path / "r.json").read_text())["config"]["pairs"] == 20


def test_the_detect_sizes_alternate_a_run_then_a_verify():
    calls = []

    def run_one(side, step, trials):
        calls.append((side, step, trials))
        k = calls.count((side, step, trials)) - 1
        return {"wall_s": 1.0 + k + (step == "run"), "peak_mb": 200.0 + k - (side == "change")}

    series = record_bench.detect_series(run_one, 1000, 4)
    assert list(series) == ["detect-run-1000", "detect-verify-1000"]
    order = ["parent", "change", "change", "parent"] * 2
    assert calls == [(side, step, 1000) for step in ("run", "verify") for side in order]
    verify = series["detect-verify-1000"]
    assert [pair["first"] for pair in verify["pairs"]] == ["parent", "change"] * 2
    assert verify["parent"]["peak_mb"]["median"] == 201.5
    assert verify["change"]["peak_mb"]["median"] == 200.5
    assert series["detect-run-1000"]["parent"]["wall_s"]["median"] == 3.5


def test_a_detect_run_and_its_verify_read_their_children(tmp_path):
    # The children themselves, on 30 trials of this checkout's source: the
    # run writes its report where the verify reads it.
    run = record_bench.run_detect(ROOT, 30, "run", tmp_path)
    report = json.loads((tmp_path / "detect-30.json").read_text())
    assert report["config"]["trials"] == 30 and report["config"]["attack"]["kind"] == "fake-epr"
    verify = record_bench.run_detect(ROOT, 30, "verify", tmp_path)
    for measured in (run, verify):
        assert 0 < measured["wall_s"] < 60 and 1 < measured["peak_mb"] < 1000
    (tmp_path / "detect-30.json").write_text("{}")
    with pytest.raises(RuntimeError, match="eprqkd verify .* failed"):
        record_bench.run_detect(ROOT, 30, "verify", tmp_path)


# A module of 15 lines, 8 of them code: the import, the decorator, the def
# line, the two lines of one statement, a string that follows a statement (so
# no docstring), the return and the class line. Its docstrings, comments and
# blank lines are not counted.
CANNED_MODULE = '''"""A module docstring,
over two lines."""
import functools  # a trailing comment does not hide the code


@functools.cache
def f(x):
    """A function docstring."""
    # a comment line
    y = (x +
         1)
    "a string statement after the first"
    return y
class C:
    """Only a docstring."""
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path):
    assert code_lines.module_code_lines(CANNED_MODULE) == 8
    (tmp_path / "a.py").write_text(CANNED_MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.code_lines(tmp_path / "a.py") == 8
    assert code_lines.code_lines(tmp_path) == 9
    # Every node ast.walk visits counts, docstrings and contexts included:
    # x = 1 is Module, Assign, Name, Store and Constant.
    assert code_lines.module_ast_nodes(CANNED_MODULE) == 30
    assert code_lines.ast_nodes(tmp_path / "a.py") == 30
    assert code_lines.ast_nodes(tmp_path) == 35


def test_code_lines_print_each_module_of_a_directory_before_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(CANNED_MODULE)
    (tmp_path / "a.py").write_text("x = 1\n\n# end\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path), str(tmp_path / "b.py")]) == 0
    lines = [
        f"    1      5 {tmp_path / 'a.py'}",
        f"    8     30 {tmp_path / 'b.py'}",
        "17 code lines",
        "65 AST nodes",
    ]
    assert capsys.readouterr().out.splitlines() == lines
    # A module named alone prints the totals only.
    assert code_lines.main([str(tmp_path / "b.py")]) == 0
    assert capsys.readouterr().out == "8 code lines\n30 AST nodes\n"


@pytest.mark.parametrize("args", [["--help"], ["missing.py"], [".", "missing.py"], []])
def test_code_lines_print_their_usage_for_a_path_that_is_not_there(tmp_path, args):
    script = ROOT / "scripts" / "code_lines.py"
    done = subprocess.run(
        [sys.executable, str(script), *args], cwd=tmp_path, capture_output=True, text=True
    )
    assert done.returncode == 1
    assert (done.stdout, done.stderr) == ("", "usage: python scripts/code_lines.py PATH...\n")


def test_cli_imports_name_every_package_module():
    # The working tree's own src/, imported in a fresh interpreter.
    imported = record_bench.cli_imports(ROOT)
    assert imported == sorted(imported)
    modules = {f"eprqkd.{path.stem}" for path in (ROOT / "src" / "eprqkd").glob("*.py")}
    assert modules - {"eprqkd.__init__"} | {"eprqkd"} <= set(imported)
