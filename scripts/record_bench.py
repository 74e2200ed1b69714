#!/usr/bin/env python3
"""Record a BENCH_<n>.json: the benchmark on a change and on its parent, in alternating pairs.

Usage (from the repository root):

    python scripts/record_bench.py --out BENCH_<n>.json --claim WORKLOAD \
        --metric METRIC --what TEXT

The change is this working tree and the parent is ``HEAD``.
Each side runs from its own fresh copy of ``src/``, ``bench/``, ``tests/``
and ``BENCHMARK.json``: the change's copied from the tree, the parent's
extracted with ``git archive``, which leaves nothing behind in ``.git``.
Both run with PYTHONDONTWRITEBYTECODE=1 and no bytecode cache, because
``setup_s`` reads a cache that only one side has as set-up time saved.

Each run is ``python3 bench/run.py --workload W --seed S --trace 0`` in a
subprocess, so ``bench/run.py``'s own ``--seconds`` default sets the run
length. Round k (of ``PAIRS``) runs every workload at ``SEED`` once per
side, then times ``ACCEPTANCE_COMMAND`` (the acceptance tests, which must
pass) once per side, the parent first for even k and the change first for
odd k; the claimed workload's pairs at ``HELD_OUT_SEED`` run after all
rounds. Last, each side makes ``TRACE_RUNS`` traced runs of every workload,
and the file keeps the median of each per-layer metric, because one traced
run is noise.
``bench/run.py`` writes every run's record to the same
``.bench_out/result-<workload>-seed<N>-trace<T>.json`` path, which the next
run with that workload, seed and trace overwrites, so each record is read
the moment its run ends. Of an untraced run only its end-to-end values are
kept as it returns, and of each side's first such run its record's meta:
a record holds every op's detail samples, and a recorder that kept them
all would grow through a recording, and its children's ``ru_maxrss``
(which Linux carries across ``exec``) with it. Traced runs keep their
records, which ``trace_summary`` reads.

Then comes the ``scale`` series: ``eprqkd run --attack measure-resend
--pairs N --trials 1`` at each N of ``SCALE_SIZES``, ``PAIRS`` alternating
pairs of runs a size, each in a child interpreter that calls
``eprqkd.cli.main`` from the side's ``src/`` and then reads its own peak
RSS (``VmHWM`` in ``/proc/self/status``, which no ``exec`` carries over).
A size is skipped, and recorded as skipped, when ten times the largest
peak of the size before it exceeds the host's ``MemAvailable``, or when
that size was skipped. Its detect sizes follow, alternating the same way:
``eprqkd run --attack fake-epr --pairs 64 --trials N`` at N =
``DETECT_TRIALS``, then ``eprqkd verify`` of the report each side's last
such run wrote.

The file's keys are what, machine, sides, claim, summary, runs, trace1,
acceptance_wall_s and scale. ``sides[side]`` gives the side's commit, the
``src_lines`` (all lines) and ``src_sha256`` of its runs' records, and
``src_code_lines``, the code lines of its ``src/eprqkd`` as
``scripts/code_lines.py`` counts them (no docstrings, comments or blank
lines), and ``cli_imports``, the sorted names of the modules that a fresh
interpreter newly loads for ``import eprqkd.cli`` from the side's ``src/``,
under PYTHONDONTWRITEBYTECODE=1 as its runs are: a count that repeats
exactly, so it shows where a ``setup_s`` change comes from.
``summary[label][metric]`` gives each side's median and quartiles
(``statistics.quantiles``, n=4, exclusive method), the change/parent ratio
of the medians, the sorted per-pair ratios, the parent's interquartile
range, the change's wins (better in its pair; ties count for neither), and
whether the medians differ in the metric's better direction by more than
the parent's interquartile range. It also gives the metric's ``bound``
from ``BENCHMARK.json``, ``unresolved`` (the parent's interquartile range
exceeds bound × the parent's median, so a median cannot resolve the bound,
and not every change run beats every parent run) and ``regressed`` (the
change's median is worse than the parent's by more than bound × the
parent's median). ``runs[label]`` keeps every pair's
end-to-end values, ``trace1["<side>/<workload>"]`` the traced medians.
``acceptance_wall_s`` is no ``BENCHMARK.json`` metric: it gives the
acceptance tests' wall seconds, every pair's and each side's median and
quartiles. ``scale["<N>"]`` gives that size's pairs of runs, each run
``cli.main``'s wall seconds and the child's peak MB, and each side's
median, quartiles and interquartile range of both; a skipped size holds
only why it was skipped. ``scale["detect-run-<N>"]`` and
``scale["detect-verify-<N>"]`` give the detect sizes the same way.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from code_lines import code_lines

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bulk-resend", "detect", "audit")
PAIRS = 10
SEED = 1
HELD_OUT_SEED = 314159
TRACE_RUNS = 5
SIDES = ("parent", "change")
# What each side's copy holds: all that bench/run.py and the acceptance tests read.
TREE = ("src", "bench", "tests", "BENCHMARK.json")
# The round's last step, which times the acceptance tests, in place of a workload.
ACCEPTANCE = "acceptance"
ACCEPTANCE_COMMAND = ("-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_acceptance.py")
# Prints the modules that importing the command line adds, one name a line.
CLI_IMPORTS = (
    "import sys; before = set(sys.modules); import eprqkd.cli; "
    "print(*sorted(set(sys.modules) - before), sep='\\n')"
)
# The scale series' sizes, in pairs, smallest first, and the command line each runs.
SCALE_SIZES = (10**6, 10**7)
SCALE_ARGS = ("run", "--attack", "measure-resend", "--trials", "1", "--pairs")
# Its detect sizes: DETECT_TRIALS trials of 64 fake-EPR pairs, then a verify
# of that report; the command line of the run, less its trial count and --out.
DETECT_TRIALS = 10**5
DETECT_ARGS = ("run", "--attack", "fake-epr", "--pairs", "64", "--trials")
# Runs cli.main on its arguments, then prints its wall seconds and the
# interpreter's own peak RSS in MB as the last line of standard error.
SCALE_CHILD = (
    "import sys, time; from eprqkd.cli import main; started = time.perf_counter(); "
    "status = main(sys.argv[1:]); seconds = time.perf_counter() - started; "
    "peak = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')); "
    "print(seconds, int(peak.split()[1]) / 1024, file=sys.stderr); sys.exit(status)"
)
# The fields of a run record's meta that describe the host, and its side's source.
MACHINE = ("cpu_model", "cpus_usable", "nproc", "numpy", "python")
SOURCE = ("src_lines", "src_sha256")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", required=True, choices=WORKLOADS, help="the claimed workload")
    parser.add_argument("--metric", required=True, help="the claimed end-to-end metric")
    parser.add_argument("--what", required=True, help="what the change is and how it was measured")
    return parser.parse_args(argv)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout


def make_sides(workdir: Path) -> dict[str, Path]:
    """A fresh copy of the parent's and of the change's tree under ``workdir``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", "HEAD", *TREE], cwd=ROOT, capture_output=True, check=True
    ).stdout
    (workdir / "parent").mkdir()
    subprocess.run(["tar", "-x", "-C", str(workdir / "parent")], input=archive, check=True)
    ignore = shutil.ignore_patterns("__pycache__", ".bench_out", ".hypothesis")
    for name in TREE:
        source, target = ROOT / name, workdir / "change" / name
        if source.is_dir():
            shutil.copytree(source, target, ignore=ignore)
        else:
            shutil.copyfile(source, target)
    return {side: workdir / side for side in SIDES}


def run_bench(root: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``bench/run.py`` run in ``root``: its result line, its op count and
    its record, read before any later run can overwrite it."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=root,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"bench/run.py failed in {root}:\n{done.stdout}{done.stderr}")
    header = next(line for line in lines if line.startswith("bench: "))
    record = root / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return {
        "result": json.loads(lines[-1]),
        "ops": int(header.rsplit("ops=", 1)[1]),
        "record": json.loads(record.read_text()),
    }


def time_acceptance(root: Path) -> float:
    """The wall seconds of one passing run of the acceptance tests in ``root``,
    against its own ``src/``."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *ACCEPTANCE_COMMAND],
        cwd=root,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": "src"},
    )
    seconds = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(f"the acceptance tests failed in {root}:\n{done.stdout}{done.stderr}")
    return seconds


def run_child(root: Path, argv: list[str]) -> dict:
    """``cli.main(argv)`` in a child interpreter, against ``root``'s own
    ``src/``: its wall seconds and the child's peak RSS in MB."""
    done = subprocess.run(
        [sys.executable, "-c", SCALE_CHILD, *argv],
        cwd=root,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": "src"},
    )
    if done.returncode != 0:
        raise RuntimeError(f"eprqkd {' '.join(argv)} failed in {root}:\n{done.stdout}{done.stderr}")
    seconds, peak = done.stderr.splitlines()[-1].split()
    return {"wall_s": float(seconds), "peak_mb": float(peak)}


def run_scale(root: Path, pairs: int) -> dict:
    """``run_child`` of one ``pairs``-pair measure-resend trial."""
    with tempfile.TemporaryDirectory() as tmp:
        return run_child(root, [*SCALE_ARGS, str(pairs), "--out", str(Path(tmp) / "scale.json")])


def run_detect(root: Path, trials: int, step: str, out: Path) -> dict:
    """``run_child`` of step "run", ``trials`` detect trials writing their
    report into ``out``, or of step "verify" of that report."""
    report = out / f"detect-{trials}.json"
    if step == "run":
        return run_child(root, [*DETECT_ARGS, str(trials), "--out", str(report)])
    return run_child(root, ["verify", str(report)])


def mem_available_mb() -> float:
    """The host's ``MemAvailable``, in MB."""
    with open("/proc/meminfo") as meminfo:
        line = next(line for line in meminfo if line.startswith("MemAvailable:"))
    return int(line.split()[1]) / 1024


def cli_imports(root: Path) -> list[str]:
    """The sorted names of the modules that a fresh interpreter newly loads
    for ``import eprqkd.cli`` from ``root``'s own ``src/``."""
    done = subprocess.run(
        [sys.executable, "-c", CLI_IMPORTS],
        cwd=root,
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": "src"},
    )
    return done.stdout.split()


def run_values(run: dict) -> dict:
    """A run as ``runs`` keeps it: correctness, counts and end-to-end values."""
    result = run["result"]
    values = {
        "correct": result["correct"],
        "ops": run["ops"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }
    values.update((name, metric["value"]) for name, metric in result["metrics"].items())
    return values


def keep_run(run: dict, side: str, metas: dict) -> dict:
    """What a recording keeps of an untraced run of ``side`` as it returns:
    its ``run_values``, and its record's meta in ``metas[side]`` when that
    holds none yet."""
    metas.setdefault(side, run["record"]["meta"])
    return run_values(run)


def plan(workloads, claim: str, seed: int, held_out: int, pairs: int) -> list[tuple]:
    """(label, workload, seed, pair) of every untraced pair, in run order."""
    rounds = [(f"seed{seed}/{w}", w, seed, k) for k in range(pairs) for w in workloads]
    return rounds + [(f"seed{held_out}/{claim}", claim, held_out, k) for k in range(pairs)]


def collect(steps: list[tuple], run_one) -> dict[str, list]:
    """Run every pair of ``steps`` through ``run_one(side, workload, seed)``,
    the parent first in even pairs; ``runs`` by label."""
    runs: dict[str, list] = {}
    for label, workload, seed, k in steps:
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_one(side, workload, seed)
        runs.setdefault(label, []).append(pair)
    return runs


def summarize_metric(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1 if better == "higher" else -1
    parent_q = statistics.quantiles(parent, n=4)
    change_q = statistics.quantiles(change, n=4)
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    iqr = parent_q[2] - parent_q[0]
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    # The change's worst run against the parent's best, in the better direction.
    sweeps = min(sign * c for c in change) > max(sign * p for p in parent)
    return {
        "better": better,
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_quartiles": parent_q,
        "change_quartiles": change_q,
        "ratio_change_over_parent": change_median / parent_median,
        "paired_ratios": sorted(c / p for p, c in zip(parent, change)),
        "parent_iqr": iqr,
        "change_wins": f"{wins} of {len(parent)}",
        "median_gap_exceeds_parent_iqr": sign * (change_median - parent_median) > iqr,
        "bound": bound,
        "unresolved": iqr > bound * parent_median and not sweeps,
        "regressed": sign * (parent_median - change_median) > bound * parent_median,
    }


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """One label's summary: every end-to-end metric, op counts, failures."""
    summary = {
        name: summarize_metric(
            [pair["parent"][name] for pair in pairs],
            [pair["change"][name] for pair in pairs],
            metric["better"],
            metric["bound"],
        )
        for name, metric in metrics.items()
    }
    summary["ops"] = {}
    summary["failed_of_attempted"] = {}
    for side in SIDES:
        ops = [pair[side]["ops"] for pair in pairs]
        summary["ops"][side] = {"median": statistics.median(ops), "min": min(ops), "max": max(ops)}
        failed = sum(pair[side]["failed"] for pair in pairs)
        attempted = sum(pair[side]["attempted"] for pair in pairs)
        summary["failed_of_attempted"][side] = f"{failed} of {attempted}"
    summary["all_correct"] = all(pair[side]["correct"] for pair in pairs for side in SIDES)
    return summary


def trace_summary(traced: list[dict]) -> dict:
    """Traced runs of one side and workload: each metric's median (None
    where no run measured it), and every failure, gate breach, note and
    missing wrap point."""
    records = [run["record"] for run in traced]
    medians = {}
    for name in records[0]["metrics"]:
        values = [record["metrics"][name]["value"] for record in records]
        values = [value for value in values if value is not None]
        medians[name] = statistics.median(values) if values else None
    return {
        "runs": len(records),
        "ops": traced[0]["ops"],
        "attempted": records[0]["attempted"],
        "failures": [f for record in records for f in record["failures"]],
        "gate_breaches": [b for record in records for b in record["gate_breaches"]],
        "metrics": medians,
        "notes": [note for record in records for note in record["notes"]],
        "missing_wrap_points": sorted(
            {m for record in records for metric in record["metrics"].values()
             for m in metric.get("missing", ())}
        ),
    }


def spread(values: list[float]) -> dict:
    """The median and quartiles of ``values``."""
    return {"median": statistics.median(values), "quartiles": statistics.quantiles(values, n=4)}


def acceptance_summary(pairs: list[dict]) -> dict:
    """The acceptance tests' wall seconds: which side ran first and both
    sides' times in every pair, and each side's median and quartiles."""
    summary = {"command": " ".join(("python", *ACCEPTANCE_COMMAND)), "pairs": pairs}
    for side in SIDES:
        summary[side] = spread([pair[side] for pair in pairs])
    return summary


def scale_summary(pairs: list[dict]) -> dict:
    """One size of the scale series: its pairs of runs, and each side's
    median, quartiles and interquartile range of wall seconds and peak MB."""
    summary = {"pairs": pairs}
    for side in SIDES:
        summary[side] = {}
        for name in ("wall_s", "peak_mb"):
            values = spread([pair[side][name] for pair in pairs])
            values["iqr"] = values["quartiles"][2] - values["quartiles"][0]
            summary[side][name] = values
    return summary


def scale_series(run_one, sizes, pairs: int, available) -> dict:
    """The scale series by size: ``scale_summary`` of ``pairs`` alternating
    pairs of ``run_one(side, size, None)``, or why the size was skipped.
    ``available()`` gives the host's free memory in MB as the size starts."""
    series: dict[str, dict] = {}
    peak = 0.0  # the largest peak of the size before, None once one is skipped
    for size in sizes:
        label = str(size)
        if peak is None:
            series[label] = {"skipped": "the size before it was skipped"}
            continue
        free = available()
        if 10 * peak > free:
            series[label] = {
                "skipped": f"ten times the size before's peak, {peak:.1f} MB, exceeds "
                f"MemAvailable, {free:.1f} MB"
            }
            peak = None
            continue
        runs = collect([(label, size, None, k) for k in range(pairs)], run_one)[label]
        series[label] = scale_summary(runs)
        peak = max(pair[side]["peak_mb"] for pair in runs for side in SIDES)
    return series


def detect_series(run_one, trials: int, pairs: int) -> dict:
    """The scale series' detect sizes: ``scale_summary`` of ``pairs``
    alternating pairs of ``run_one(side, "run", trials)``, then of
    ``run_one(side, "verify", trials)``, under ``detect-<step>-<trials>``."""
    series = {}
    for step in ("run", "verify"):
        label = f"detect-{step}-{trials}"
        steps = [(label, step, trials, k) for k in range(pairs)]
        series[label] = scale_summary(collect(steps, run_one)[label])
    return series


def document(
    what: str,
    claim: dict,
    sides: dict,
    runs: dict,
    metas: dict,
    traces: dict,
    acceptance: list,
    metrics: dict,
    scale: dict,
) -> dict:
    """The BENCH file: ``runs`` and ``metas`` hold what ``keep_run`` kept,
    ``traces`` what ``run_bench`` returned, ``acceptance`` the acceptance
    tests' pairs of wall seconds, ``metrics`` the end-to-end metrics of
    ``BENCHMARK.json`` by name, and ``scale`` what ``scale_series`` gave."""
    machine = {key: metas["change"][key] for key in MACHINE}
    sides = {side: {**sides[side], **{key: metas[side][key] for key in SOURCE}} for side in SIDES}
    return {
        "what": what,
        "machine": machine,
        "sides": sides,
        "claim": claim,
        "summary": {label: summarize(pairs, metrics) for label, pairs in runs.items()},
        "runs": runs,
        "trace1": {key: trace_summary(traced) for key, traced in traces.items()},
        "acceptance_wall_s": acceptance_summary(acceptance),
        "scale": scale,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    if args.metric not in metrics:
        raise SystemExit(f"--metric must be one of {', '.join(metrics)}")
    dirty = git("status", "--porcelain", "--", *TREE).strip()
    head = git("rev-parse", "HEAD").strip()
    sides = {
        "parent": {"commit": head},
        "change": {"commit": f"the working tree on {head}" if dirty else head},
    }
    claim = {
        "workload": args.claim,
        "metric": args.metric,
        "rule": (
            "change wins at least nine tenths of the alternating pairs and the medians differ "
            f"by more than the parent's interquartile range, at seed {SEED} and again "
            f"at held-out seed {HELD_OUT_SEED}"
        ),
    }
    metas: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        roots = make_sides(Path(tmp))
        for side in SIDES:
            sides[side]["src_code_lines"] = code_lines(roots[side] / "src" / "eprqkd")
            sides[side]["cli_imports"] = cli_imports(roots[side])

        def run_one(side, workload, seed, trace=0):
            if workload == ACCEPTANCE:
                seconds = time_acceptance(roots[side])
                print(f"{side} acceptance tests: {seconds:.2f} s", file=sys.stderr)
                return seconds
            run = run_bench(roots[side], workload, seed, trace)
            correct = run["result"]["correct"]
            print(
                f"{side} {workload} seed {seed} trace {trace}: {run['ops']} ops, correct {correct}",
                file=sys.stderr,
            )
            return run if trace else keep_run(run, side, metas)

        steps = plan((*WORKLOADS, ACCEPTANCE), args.claim, SEED, HELD_OUT_SEED, PAIRS)
        runs = collect(steps, run_one)
        acceptance = runs.pop(f"seed{SEED}/{ACCEPTANCE}")
        traced = collect(
            [(w, w, SEED, k) for k in range(TRACE_RUNS) for w in WORKLOADS],
            lambda side, workload, seed: run_one(side, workload, seed, trace=1),
        )
        traces = {
            f"{side}/{w}": [pair[side] for pair in traced[w]] for w in WORKLOADS for side in SIDES
        }

        def run_size(side, size, _seed):
            run = run_scale(roots[side], size)
            print(f"{side} scale {size} pairs: {run['wall_s']:.2f} s, {run['peak_mb']:.1f} MB",
                  file=sys.stderr)
            return run

        scale = scale_series(run_size, SCALE_SIZES, PAIRS, mem_available_mb)

        def run_trials(side, step, trials):
            run = run_detect(roots[side], trials, step, roots[side])
            print(f"{side} detect {step} of {trials} trials: {run['wall_s']:.2f} s, "
                  f"{run['peak_mb']:.1f} MB", file=sys.stderr)
            return run

        scale.update(detect_series(run_trials, DETECT_TRIALS, PAIRS))
    result = document(args.what, claim, sides, runs, metas, traces, acceptance, metrics, scale)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
