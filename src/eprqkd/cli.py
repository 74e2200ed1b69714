"""Command-line front end.

``eprqkd run`` executes a batch of simulated runs and writes a report;
``eprqkd verify`` re-derives a structured report's aggregate block from its
own trial rows. Attack detection is a simulation result, not a failure:
``run`` exits 0 whenever the simulation itself completed.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .adversary import FAKE_LABELS, AttackKind, AttackStrategy
from .config import RunConfig
from .errors import ConfigurationError
from .report import emit_report, emit_transcripts, verify_report
from .runner import RunReport, run


def _build_parser() -> argparse.ArgumentParser:
    # Option defaults come from the config dataclasses; each option's dest is
    # the config field it sets, so ``_config_from_args`` can collect them.
    defaults = RunConfig()
    attack = defaults.attack.to_dict()
    parser = argparse.ArgumentParser(
        prog="eprqkd",
        description="Simulate a two-step entangled-pair key distribution protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute trials and write a report")
    runp.add_argument("--pairs", type=int, default=defaults.pairs, help="pairs per trial")
    runp.add_argument("--trials", type=int, default=defaults.trials, help="independent trials")
    runp.add_argument("--seed", type=int, default=defaults.seed, help="64-bit root seed")
    runp.add_argument(
        "--attack",
        dest="kind",
        choices=[kind.value for kind in AttackKind],
        default=attack["kind"],
        help="adversary strategy on the quantum channel",
    )
    runp.add_argument(
        "--destroy-prob",
        dest="destroy_probability",
        metavar="DESTROY_PROB",
        type=float,
        default=attack["destroy_probability"],
        help="per-particle destruction probability (opaque attack)",
    )
    runp.add_argument(
        "--fake-label",
        choices=list(FAKE_LABELS),
        default=attack["fake_label"],
        help="pair state the fake-EPR attack plants",
    )
    runp.add_argument(
        "--eve-measures-second",
        dest="measure_second_sequence",
        action="store_true",
        default=attack["measure_second_sequence"],
        help="measure-resend variant: also measure the second sequence",
    )
    for name in ("check_fraction_1", "check_fraction_2", "threshold_1", "threshold_2"):
        runp.add_argument("--" + name.replace("_", "-"), type=float, default=getattr(defaults, name))
    runp.add_argument(
        "--loss-tolerance",
        type=float,
        default=defaults.loss_tolerance,
        help="tolerated fraction of undelivered particles before aborting",
    )
    runp.add_argument("--parties", type=int, choices=[2, 3], default=defaults.parties)
    runp.add_argument(
        "--attack-hop",
        choices=["1", "2", "both"],
        default=defaults.attack_hop,
        help="which hop the adversary attacks in a 3-party chain",
    )
    runp.add_argument(
        "--min-check-size",
        type=int,
        default=defaults.min_check_size,
        help="minimum pairs consumed per eavesdropping check",
    )
    runp.add_argument(
        "--continuation-mode",
        action="store_true",
        default=defaults.continuation_mode,
        help="study mode: keep running past a failed first check",
    )
    runp.add_argument(
        "--randomize-check-basis",
        action="store_true",
        default=defaults.randomize_check_basis,
        help="extension: draw Z or X per pair in the first check",
    )
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
    return parser


def _config_from_args(args) -> RunConfig:
    data = {f.name: getattr(args, f.name) for f in fields(RunConfig) if f.name != "attack"}
    data["attack"] = {f.name: getattr(args, f.name) for f in fields(AttackStrategy)}
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
    report = run(config, collect_transcripts=args.transcript)
    _print_summary(report)
    if args.out is not None:
        try:
            path = emit_report(report, args.out, args.format)
            print(f"  report written to {path}")
            if args.transcript:
                tpath = emit_transcripts(report, args.out.with_suffix(".transcript.jsonl"))
                print(f"  transcripts written to {tpath}")
        except OSError as exc:
            print(f"error: could not write report: {exc}", file=sys.stderr)
            return 1
    return 0


def _verify_command(args) -> int:
    try:
        document = json.loads(args.report.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: could not read report: {exc}", file=sys.stderr)
        return 1
    try:
        problems = verify_report(document)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if problems:
        for problem in problems:
            print(f"MISMATCH {problem}")
        return 1
    print(f"OK {args.report}: aggregate matches its {len(document['trials'])} trial rows")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run_command(args, parser)
    return _verify_command(args)


if __name__ == "__main__":
    sys.exit(main())
