"""eprqkd benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload {bulk-resend,detect,audit} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics: it times several fresh
set-ups, then runs the workload's ops for S seconds in this process and
thread, checks every output, and re-runs op 0 to compare digests.
``--trace 1`` runs a fixed op list untraced, then again with the package's
entry points wrapped, and reports per-layer self times, counts and the
tracing overhead. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; a fuller record, with the
machine description and the spans, is written under ``.bench_out/``.

Exit status: 0 when every output and gate checked out, 1 when one did not
(the result line says correct=false), 2 when there is no eprqkd package
under ``src/`` to measure.
"""
from __future__ import annotations

import os

# The package is single-threaded; keep numpy's BLAS from starting a pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 10
TRACE_PASSES = 3
E2E_UNITS = {
    "pairs_per_s": "pairs/s",
    "trials_per_s": "trials/s",
    "verify_rows_per_s": "rows/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["bulk-resend", "detect", "audit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def best_rate(rates: list[float]) -> float:
    """The fastest op's rate (best of k).

    Other tenants of a shared host only ever slow an op, and their load
    comes and goes within seconds, so across runs the best of many short
    ops is far steadier than their median.
    """
    return max(rates, default=0.0)


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata() -> dict:
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    files = sorted(SRC.rglob("*.py"))
    src_hash = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        lines += len(data.splitlines())
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_lines": lines,
        "src_sha256": src_hash.hexdigest(),
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def pooled(results) -> Counter:
    stats: Counter = Counter()
    for result in results:
        stats.update(result.stats)
    return stats


def measure(workload, seed: int, seconds: float, workdir: Path) -> dict:
    """The untraced run: ops for ``seconds``, with set-up probes between them.

    The first probe fills the bytecode cache and is not kept. The others are
    spread over the window: set-up times on a shared host come in bursts
    like op times, and the best of probes spread out is the steadiest.
    """
    setup_seconds(workload.name, seed)
    setups = []
    results = []
    started = clock()
    deadline = started + seconds
    while not results or clock() < deadline:
        if clock() >= started + len(setups) * seconds / SETUP_PROBES:
            setups.append(setup_seconds(workload.name, seed))
        op = workload.op(seed, len(results), workdir)
        op.execute()
        results.append(op.check(digest=not results))
        op.discard()
    while len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(workload.name, seed))
    # Determinism: op 0 again, same inputs, must give the same bytes.
    op = workload.op(seed, 0, workdir)
    op.execute()
    rerun = op.check(digest=True)
    op.discard()
    problems = workload.gates(pooled(results))
    if rerun.digest != results[0].digest:
        problems.append(f"op 0 re-run digest {rerun.digest} != first run {results[0].digest}")

    timed = [r for r in results if r.seconds > 0 and r.verify_seconds > 0]
    samples = {
        "pairs_per_s": [r.pairs / r.seconds for r in timed],
        "trials_per_s": [r.completed_trials / r.seconds for r in timed],
        "verify_rows_per_s": [r.verify_rows / r.verify_seconds for r in timed],
    }
    values = {name: best_rate(rates) for name, rates in samples.items()}
    values["setup_s"] = min(setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes = [
        f"{name}: best of {len(rates)} ops; median {statistics.median(rates):.6g},"
        f" 10th percentile {statistics.quantiles(rates, n=10, method='inclusive')[0]:.6g}"
        for name, rates in samples.items()
        if len(rates) > 1
    ]
    notes.append(
        f"setup_s: best of {len(setups)} fresh interpreters; median {statistics.median(setups):.4g}"
    )
    return {
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()},
        "results": results,
        "problems": problems,
        "notes": notes,
        "detail": {"setup_s": setups, **samples},
    }


def op_list_pass(workload, seed: int, workdir: Path, recorder=None):
    """Run the traced run's fixed op list once, wrapped when a recorder is
    given; return the wall time and the checked results."""
    import workloads

    ops = [workload.op(seed, i, workdir) for i in range(workload.trace_ops)]
    if recorder is None:
        started = clock()
        for op in ops:
            op.execute()
        wall = clock() - started
    else:
        recorder.install(workloads.WRAP_POINTS)
        try:
            root = recorder.open(recorder.ROOT)
            for op in ops:
                op.execute()
            recorder.close(root)
        finally:
            recorder.restore()
        wall = recorder.ends[root] - recorder.starts[root]
    results = [op.check(digest=True) for op in ops]
    for op in ops:
        op.discard()
    return wall, results


def trace(workload, seed: int, workdir: Path) -> dict:
    """The traced run: a fixed op list, untraced and traced in turn.

    Each kind of pass runs TRACE_PASSES times; the fastest pass of each
    kind gives the overhead, and the fastest traced pass gives the spans.
    Every pass must reproduce the first one's bytes.
    """
    import workloads
    from recorder import Recorder, self_time_by_name

    untraced_s = []
    best = None
    digests = []
    for _ in range(TRACE_PASSES):
        seconds, results = op_list_pass(workload, seed, workdir)
        untraced_s.append(seconds)
        digests.append([r.digest for r in results])
        recorder = Recorder()
        wall, traced = op_list_pass(workload, seed, workdir, recorder)
        digests.append([r.digest for r in traced])
        if best is None or wall < best[0]:
            best = (wall, recorder, results)
    wall, recorder, results = best
    problems = workload.gates(pooled(results))
    if any(d != digests[0] for d in digests):
        problems.append("repeated passes of the op list, traced or not, gave different bytes")

    self_s = self_time_by_name(recorder.spans())
    unattributed = self_s.get(Recorder.ROOT, 0.0)
    values = {
        "trace.overhead": wall / min(untraced_s),
        "trace.wall_s": wall,
        "trace.unattributed_s": unattributed,
    }
    metrics = {}
    for name, unit in workloads.layer_metrics().items():
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            continue
        points = [p for p in workloads.WRAP_POINTS if name in (p.span, p.count)]
        missing = [p.target for p in points if p.target in recorder.missing]
        is_span = any(p.span == name for p in points)
        value = self_s.get(name, 0.0) if is_span else recorder.counts.get(name, 0)
        metrics[name] = {"value": None if len(missing) == len(points) else value, "unit": unit}
        if missing:
            metrics[name]["missing"] = missing
    added = wall - min(untraced_s)
    notes = [
        f"layer self times sum to {wall - unattributed:.4f} s of {wall:.4f} s traced wall;"
        f" the {unattributed:.4f} s left over is {'within' if unattributed <= added else 'ABOVE'}"
        f" the {added:.4f} s tracing added to {min(untraced_s):.4f} s untraced"
        f" (fastest of {TRACE_PASSES} passes each)",
    ]
    notes += [f"MISSING wrap point {target}" for target in recorder.missing]
    OUT.mkdir(exist_ok=True)
    recorder.write(OUT / f"spans-{workload.name}.json")
    return {"metrics": metrics, "results": results, "problems": problems, "notes": notes}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eprqkd" / "__init__.py").is_file():
        print(f"bench: no eprqkd package under {SRC}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eprqkd

    if Path(eprqkd.__file__).resolve().parent != SRC / "eprqkd":
        print(f"bench: imported eprqkd from {eprqkd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            run = trace(workload, args.seed, Path(tmp))
        else:
            run = measure(workload, args.seed, args.seconds, Path(tmp))

    results = run["results"]
    attempted = sum(r.attempted for r in results)
    failures = [f for r in results for f in r.failures]
    problems = run["problems"]
    correct = not problems and not failures
    meta = metadata()
    print(f"bench: workload={workload.name} seed={args.seed} trace={args.trace} ops={len(results)}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, metric in run["metrics"].items():
        flag = f"  MISSING {metric['missing']}" if "missing" in metric else ""
        print(f"  {name:28s} {metric['value']!r:>24} {metric['unit']}{flag}")
    print(f"  {'failed_frac':28s} {len(failures) / max(attempted, 1):>24} ratio"
          f" ({len(failures)} of {attempted} trials)")
    for note in run["notes"]:
        print("  " + note)
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    for problem in problems:
        print(f"GATE BREACHED {problem}", file=sys.stderr)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": meta,
        "metrics": run["metrics"],
        "attempted": attempted,
        "failures": failures,
        "gate_breaches": problems,
        "notes": run["notes"],
        "detail": run.get("detail"),
    }
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": run["metrics"],
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
