#!/usr/bin/env python3
"""Check that several interpreters write the same report and transcript bytes.

Usage (from the repository root):

    python scripts/cross_python.py PYTHON [PYTHON ...]
    python scripts/cross_python.py --list

Each interpreter, named by path, runs ``eprqkd run`` from this checkout's
``src/`` on every shape of ``SHAPES``, once without and once with
``--transcript``, and on ``LARGE``. Every file it writes is compared byte
for byte with the first interpreter's; for each file that differs, the
line and column where it first differs are printed, with a piece of both
lines. The exit status is 1 when any file differs or an interpreter fails,
else 0. ``--list`` prints ``SHAPES``, one shape a line, which is the list
CI's with/without ``--transcript`` loop runs. The script needs only the
standard library.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Each an ``eprqkd run`` argument string, without --out or --transcript:
# every attack, the fixed and the uniform fake label, random check bases,
# two and three parties, continuation, the check-size edges, and tabular
# output.
SHAPES = (
    "--attack fake-epr --pairs 64 --trials 50",
    "--attack measure-resend --pairs 400 --trials 20",
    "--attack fake-epr --fake-label uniform --pairs 64 --trials 50",
    "--attack measure-resend --randomize-check-basis --pairs 400 --trials 20",
    "--parties 3 --randomize-check-basis --pairs 200 --trials 4",
    "--attack measure-resend --eve-measures-second --pairs 400 --trials 20",
    "--attack measure-resend --eve-measures-second --pairs 5 --trials 20",
    "--attack opaque --destroy-prob 0.3 --loss-tolerance 0.9 --pairs 97 --trials 10 --seed 11",
    "--parties 3 --attack opaque --destroy-prob 0.3 --loss-tolerance 0.9 --pairs 97 --trials 10"
    " --seed 11",
    "--parties 3 --pairs 200 --trials 4",
    "--parties 3 --pairs 200 --trials 4 --format tabular",
    "--parties 3 --attack measure-resend --eve-measures-second --randomize-check-basis --pairs 300"
    " --trials 4",
    "--parties 3 --attack fake-epr --fake-label uniform --attack-hop 2 --pairs 300 --trials 4",
    "--attack fake-epr --continuation-mode --pairs 64 --trials 20",
    "--attack fake-epr --continuation-mode --fake-label uniform --pairs 64 --trials 20",
    "--min-check-size 1 --check-fraction-1 0.01 --check-fraction-2 0.01 --pairs 50 --trials 5",
    "--parties 3 --min-check-size 1 --check-fraction-1 0.01 --check-fraction-2 0.01 --pairs 60"
    " --trials 5",
    "--check-fraction-1 0.97 --pairs 64 --trials 20",
    "--min-check-size 1 --check-fraction-1 0.001 --pairs 5000 --trials 5",
)
# One large run, whose report sums many floats.
LARGE = "--attack measure-resend --pairs 100000 --trials 1"
# How many bytes of each differing line are shown.
WINDOW = 60
# Runs cli.main on each argument list of the JSON list it is given, in order.
CHILD = (
    "import json, sys; from eprqkd.cli import main\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    if main(argv):\n"
    "        sys.exit(f'eprqkd {\" \".join(argv)} failed')"
)


def commands(shapes, out: Path) -> list[list[str]]:
    """The ``eprqkd`` argument lists that write every file of ``shapes``
    into ``out``: each shape without and with ``--transcript``."""
    argvs = []
    for i, shape in enumerate(shapes):
        ext = "csv" if "tabular" in shape else "json"
        for suffix, extra in (("", []), ("-t", ["--transcript"])):
            argvs.append(["run", *shape.split(), "--out", str(out / f"{i}{suffix}.{ext}"), *extra])
    return argvs


def write_all(python: str, shapes, out: Path) -> str | None:
    """Run every shape under ``python`` into ``out``; why it failed, or None."""
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(
            [python, "-c", CHILD, json.dumps(commands(shapes, out))],
            capture_output=True,
            text=True,
            env=env,
        )
    except OSError as error:
        return f"{python} did not start: {error}"
    return None if done.returncode == 0 else f"{python} failed: {done.stderr.strip()}"


def first_difference(expected: Path, actual: Path) -> str | None:
    """None when the two files hold the same bytes; else where they first
    differ: the line and column, and ``WINDOW`` bytes of each line from a
    little before that column; or which file is missing."""
    if not actual.exists():
        return f"{actual.name}: missing"
    left, right = expected.read_bytes(), actual.read_bytes()
    if left == right:
        return None
    lines = zip(left.splitlines(keepends=True), right.splitlines(keepends=True))
    for number, (a, b) in enumerate(lines, 1):
        if a != b:
            column = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            start = max(0, column - WINDOW // 4)
            shown = f"{a[start : start + WINDOW]!r} != {b[start : start + WINDOW]!r}"
            return f"{expected.name} line {number}, column {column + 1}: {shown}"
    return f"{expected.name}: {len(left)} bytes != {len(right)} bytes"


def differences(first: Path, other: Path) -> list[str]:
    """``first_difference`` of every file ``first`` holds, in name order,
    and each file only ``other`` holds."""
    found = [first_difference(path, other / path.name) for path in sorted(first.iterdir())]
    extra = sorted({p.name for p in other.iterdir()} - {p.name for p in first.iterdir()})
    found += [f"{name}: not written by the first" for name in extra]
    return [line for line in found if line]


def compare(pythons: list[str], shapes) -> list[str]:
    """Every failure and difference of ``pythons`` on ``shapes``, each
    compared with the first interpreter."""
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / str(i) for i in range(len(pythons))]
        for python, out in zip(pythons, outs):
            if failed := write_all(python, shapes, out):
                problems.append(failed)
        if problems:
            return problems
        for python, out in zip(pythons[1:], outs[1:]):
            problems += [f"{python}: {line}" for line in differences(outs[0], out)]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pythons", nargs="*", metavar="PYTHON")
    parser.add_argument("--list", action="store_true", help="print SHAPES, one shape a line")
    args = parser.parse_args(argv)
    if args.list:
        print(*SHAPES, sep="\n")
        return 0
    if not args.pythons:
        parser.error("name at least one interpreter")
    shapes = (*SHAPES, LARGE)
    problems = compare(args.pythons, shapes)
    for line in problems:
        print(line)
    verdict = f"{len(problems)} problems" if problems else "the files are the same"
    print(f"{len(shapes)} shapes under {len(args.pythons)} interpreters: {verdict}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
