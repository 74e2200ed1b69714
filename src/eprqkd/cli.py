"""Command-line front end.

``eprqkd run`` executes a batch of simulated runs and writes a report;
``eprqkd verify`` re-derives a structured report's aggregate block from its
own trial rows. Attack detection is a simulation result, not a failure:
``run`` exits 0 whenever the simulation itself completed. A run or a
rendering that runs out of memory is one ``error:`` line and exit 1, and
leaves no report behind; so is a ``verify`` that runs out of memory. A
command whose stdout the reader closed exits 1, with no traceback.

The ``run`` flags are the config fields: each option's dest is a field of
``RunConfig`` or ``AttackStrategy``, and its type, default and whether it is
a switch come from that field. Only ``--out``, ``--format`` and
``--transcript`` are not config; they say where and how to write the report.

The parsers are built once per process, on the first command, and every
later ``main`` call reuses them; parsing a command leaves no state in them.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

from .adversary import FAKE_LABELS, AttackKind, AttackStrategy
from .config import ATTACK_HOPS, PARTIES, RunConfig
from .errors import ConfigurationError
from .record import FIELD_KINDS
from .report import emit_report, emit_transcripts, verify_report
from .runner import RunReport, run


# (flag, config field, help line) of each ``run`` option that sets a field.
_CONFIG_OPTIONS = (
    ("--pairs", "pairs", "pairs per trial"),
    ("--trials", "trials", "independent trials"),
    ("--seed", "seed", "64-bit root seed"),
    ("--attack", "kind", "adversary strategy on the quantum channel"),
    ("--destroy-prob", "destroy_probability",
     "per-particle destruction probability (opaque attack)"),
    ("--fake-label", "fake_label", "pair state the fake-EPR attack plants"),
    ("--eve-measures-second", "measure_second_sequence",
     "measure-resend variant: also measure the second sequence"),
    ("--check-fraction-1", "check_fraction_1", None),
    ("--check-fraction-2", "check_fraction_2", None),
    ("--threshold-1", "threshold_1", None),
    ("--threshold-2", "threshold_2", None),
    ("--loss-tolerance", "loss_tolerance",
     "tolerated fraction of undelivered particles before aborting"),
    ("--parties", "parties", None),
    ("--attack-hop", "attack_hop", "which hop the adversary attacks in a 3-party chain"),
    ("--min-check-size", "min_check_size", "minimum pairs consumed per eavesdropping check"),
    ("--continuation-mode", "continuation_mode",
     "study mode: keep running past a failed first check"),
    ("--randomize-check-basis", "randomize_check_basis",
     "extension: draw Z or X per pair in the first check"),
)
_CHOICES = {
    "kind": [kind.value for kind in AttackKind],
    "fake_label": list(FAKE_LABELS),
    "parties": PARTIES,
    "attack_hop": ATTACK_HOPS,
}


@cache
def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The top-level parser and its ``run`` subparser, which reports the
    errors of a ``run`` command under its own usage line."""
    defaults = RunConfig().to_dict()
    defaults.update(defaults.pop("attack"))
    types = {**RunConfig.TYPES, **AttackStrategy.TYPES}
    kinds = {name: FIELD_KINDS.get(kind) for name, kind in types.items()}
    parser = argparse.ArgumentParser(
        prog="eprqkd",
        description="Simulate a two-step entangled-pair key distribution protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute trials and write a report")
    for flag, name, help_line in _CONFIG_OPTIONS:
        if kinds[name] is bool:
            how = {"action": "store_true"}
        else:
            choices = _CHOICES.get(name)
            # A value is named after its flag (DESTROY_PROB), not its dest.
            metavar = None if choices else flag[2:].upper().replace("-", "_")
            how = {"type": kinds[name], "choices": choices, "metavar": metavar}
        runp.add_argument(flag, dest=name, default=defaults[name], help=help_line, **how)
    runp.add_argument("--out", type=Path, default=None, help="report output path")
    runp.add_argument("--format", choices=["structured", "tabular"], default="structured")
    runp.add_argument(
        "--transcript",
        action="store_true",
        help="also write per-trial event transcripts next to the report",
    )

    verifyp = sub.add_parser(
        "verify", help="check a structured report's aggregate against its rows"
    )
    verifyp.add_argument("report", type=Path, help="structured report file")
    return parser, runp


def _config_from_args(args) -> RunConfig:
    data = {name: getattr(args, name) for name in RunConfig.FIELDS if name != "attack"}
    data["attack"] = {name: getattr(args, name) for name in AttackStrategy.FIELDS}
    return RunConfig.from_dict(data)


def _fmt(value, pattern="{:.4f}") -> str:
    return "n/a" if value is None else pattern.format(value)


def _print_summary(report: RunReport):
    config = report.config
    agg = report.aggregate
    print(
        f"eprqkd: {config.trials} trial(s) x {config.pairs} pairs, "
        f"attack={config.attack.kind.value}, parties={config.parties}, seed={config.seed}"
    )
    print(
        f"  completed {agg['completed']}/{agg['trials']}"
        f" (abort rate {agg['abort_rate']:.4f},"
        f" detection rate {agg['detection_rate']:.4f})"
    )
    for name, label in (("check1", "check 1"), ("check2", "check 2")):
        block = agg[name]
        if block is None:
            print(f"  {label}: not reached")
        else:
            print(
                f"  {label}: error rate {block['error_rate']:.4f}"
                f" +/- {block['stderr']:.4f} over {block['samples']} samples"
            )
    print(
        f"  key: mean length {_fmt(agg['mean_key_length'], '{:.1f}')} bits,"
        f" agreement rate {_fmt(agg['key_agreement_rate'])}"
    )
    print(
        f"  mutual information: sender/receiver {_fmt(agg['mutual_information_ab'])} bits,"
        f" sender/eve {_fmt(agg['mutual_information_ae'])} bits"
    )
    print(f"  efficiency: {agg['efficiency']:.2f}")
    print(f"  wall time: {report.wall_time_s:.2f} s")


def _run_command(args, parser: argparse.ArgumentParser) -> int:
    if args.transcript and args.out is None:
        parser.error("--transcript requires --out")
    try:
        config = _config_from_args(args)
    except ConfigurationError as exc:
        parser.error(str(exc))
    try:
        report = run(config, collect_transcripts=args.transcript)
    except MemoryError:
        print(f"error: out of memory running {config.pairs} pairs per trial", file=sys.stderr)
        return 1
    _print_summary(report)
    if args.out is None:
        return 0
    # The report is written last, so a run whose transcripts could not be
    # written leaves no report behind.
    what, tpath = "transcripts", None
    try:
        if args.transcript:
            tpath = emit_transcripts(report, args.out.with_suffix(".transcript.jsonl"))
        what = "report"
        path = emit_report(report, args.out, args.format)
    except (OSError, MemoryError) as exc:
        print(f"error: could not write {what}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    print(f"  report written to {path}")
    if tpath is not None:
        print(f"  transcripts written to {tpath}")
    return 0


def _verify_command(args) -> int:
    try:
        document = json.loads(args.report.read_text())
    # ValueError covers undecodable bytes, bad JSON and over-long integers;
    # RecursionError covers over-deep nesting.
    except (OSError, ValueError, RecursionError, MemoryError) as exc:
        print(f"error: could not read report: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    try:
        problems = verify_report(document)
    except (ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory verifying the report'}", file=sys.stderr)
        return 1
    if problems:
        for problem in problems:
            print(f"MISMATCH {problem}")
        return 1
    print(f"OK {args.report}: aggregate matches its {len(document['trials'])} trial rows")
    return 0


def main(argv=None) -> int:
    parser, run_parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run_command(args, run_parser) if args.command == "run" else _verify_command(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``eprqkd run | head -1``). As the Python
        # docs advise, stdout then points at devnull, so the interpreter's
        # flush at exit neither fails nor prints ``Exception ignored``.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
