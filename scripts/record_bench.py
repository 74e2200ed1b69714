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
the moment its run ends.

The file's keys are what, machine, sides, claim, summary, runs, trace1
and acceptance_wall_s.
``summary[label][metric]`` gives each side's median and quartiles
(``statistics.quantiles``, n=4, exclusive method), the change/parent ratio
of the medians, the sorted per-pair ratios, the parent's interquartile
range, the change's wins (better in its pair; ties count for neither), and
whether the medians differ in the metric's better direction by more than
the parent's interquartile range. ``runs[label]`` keeps every pair's
end-to-end values, ``trace1["<side>/<workload>"]`` the traced medians.
``acceptance_wall_s`` is no ``BENCHMARK.json`` metric: it gives the
acceptance tests' wall seconds, every pair's and each side's median and
quartiles.
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


def summarize_metric(parent: list[float], change: list[float], better: str) -> dict:
    sign = 1 if better == "higher" else -1
    parent_q = statistics.quantiles(parent, n=4)
    change_q = statistics.quantiles(change, n=4)
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    iqr = parent_q[2] - parent_q[0]
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
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
    }


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """One label's summary: every end-to-end metric, op counts, failures."""
    summary = {
        name: summarize_metric(
            [pair["parent"][name] for pair in pairs],
            [pair["change"][name] for pair in pairs],
            direction,
        )
        for name, direction in better.items()
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


def acceptance_summary(pairs: list[dict]) -> dict:
    """The acceptance tests' wall seconds: which side ran first and both
    sides' times in every pair, and each side's median and quartiles."""
    summary = {"command": " ".join(("python", *ACCEPTANCE_COMMAND)), "pairs": pairs}
    for side in SIDES:
        times = [pair[side] for pair in pairs]
        summary[side] = {
            "median": statistics.median(times),
            "quartiles": statistics.quantiles(times, n=4),
        }
    return summary


def document(what: str, claim: dict, sides: dict, runs: dict, traces: dict, better: dict) -> dict:
    """The BENCH file: ``runs`` and ``traces`` hold what ``run_bench`` returned."""
    metas = {side: next(iter(runs.values()))[0][side]["record"]["meta"] for side in SIDES}
    machine = {key: metas["change"][key] for key in MACHINE}
    sides = {side: {**sides[side], **{key: metas[side][key] for key in SOURCE}} for side in SIDES}
    kept = {
        label: [
            {"first": pair["first"], **{side: run_values(pair[side]) for side in SIDES}}
            for pair in pairs
        ]
        for label, pairs in runs.items()
    }
    return {
        "what": what,
        "machine": machine,
        "sides": sides,
        "claim": claim,
        "summary": {label: summarize(pairs, better) for label, pairs in kept.items()},
        "runs": kept,
        "trace1": {key: trace_summary(traced) for key, traced in traces.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    if args.metric not in better:
        raise SystemExit(f"--metric must be one of {', '.join(better)}")
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
    with tempfile.TemporaryDirectory() as tmp:
        roots = make_sides(Path(tmp))

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
            return run

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
    result = document(args.what, claim, sides, runs, traces, better)
    result["acceptance_wall_s"] = acceptance_summary(acceptance)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
