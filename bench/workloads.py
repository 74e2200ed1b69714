"""The benchmark's workloads, their correctness gates and the traced wrap points.

Each workload is a sequence of ops. An op drives the package only through
its public functions; ``execute`` is the part that is timed (and traced),
``check`` turns what it produced into tallies for the gates without being
timed. Op i draws its inputs from ``op_seed(seed, workload, i)``.

Failures are counted per trial (per run for bulk-resend): a trial fails
when it raises, ends with neither a key nor an abort reason, completes with
keys that disagree or with the wrong key length, or, in audit, when a CLI
command exits non-zero. Statistical gates are distributional and pooled
over the distinct ops of one run; they never compare draws across commits.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import configs
import eprqkd.cli
import eprqkd.report
import eprqkd.runner
from recorder import WrapPoint

clock = time.perf_counter

# A normal-theory gate at 3 sigma trips on 0.27% of honest runs, and the
# benchmark is run dozens of times per change; 5 sigma trips on 6e-7.
Z_GATE = 5.0
# False-alarm probability of the exact binomial gate on rare events.
TAIL_GATE = 1e-7
FAKE_EPR_MISS = 2.0**-16
THRESHOLD_1 = configs.bulk_config(0).threshold_1


def op_seed(seed: int, workload: str, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class OpResult:
    """What one op did, as the benchmark measured and checked it."""

    seconds: float = 0.0  # timed work: runner.run, or `eprqkd run`
    verify_seconds: float = 0.0  # timed verify of the op's report
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    pairs: int = 0  # pairs prepared, summed over trials and hops
    verify_rows: int = 0
    digest: str | None = None
    stats: Counter = field(default_factory=Counter)

    @property
    def completed_trials(self) -> int:
        return self.attempted - len(self.failures)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


# -- per-trial classification and pooled statistics ---------------------------


def trial_failure(row: dict, pairs: int) -> str | None:
    """Why a report row counts as a failed trial, or None when it did not fail."""
    reason = row["abort_reason"]
    if reason is not None:
        return None
    if row["key_length"] == 0:
        return f"trial {row['trial']}: neither a key nor an abort reason"
    if row["keys_agree"] is not True:
        return f"trial {row['trial']}: completed with keys_agree={row['keys_agree']!r}"
    unchecked = pairs - row["check1"]["sample_size"] - row["check2"]["sample_size"]
    hop2 = row["hop2"]
    if hop2 is not None:
        # The relay re-encodes one pair per unchecked first-hop pair.
        unchecked -= hop2["check1"]["sample_size"] + hop2["check2"]["sample_size"]
    if row["key_length"] != 2 * unchecked:
        return (
            f"trial {row['trial']}: key_length {row['key_length']} != 2 x {unchecked} unchecked pairs"
        )
    return None


def pairs_prepared(row: dict, pairs: int) -> int:
    """Pairs prepared in one trial, summed over hops."""
    if row["hop2"] is None:
        return pairs
    return pairs + pairs - row["check1"]["sample_size"] - row["check2"]["sample_size"]


def pool_rows(rows: list[dict], stats: Counter):
    for row in rows:
        stats["trials"] += 1
        stats[f"abort:{row['abort_reason']}"] += 1
        for name in ("check1", "check2"):
            check = row[name]
            if check is not None:
                stats[f"{name}_samples"] += check["sample_size"]
                stats[f"{name}_mismatches"] += check["mismatches"]
                stats[f"{name}_size:{check['sample_size']}"] += 1


def tally_rows(result: OpResult, rows: list[dict], config):
    """Count a report's failed trials, pairs and pooled check statistics."""
    result.verify_rows = len(rows)
    result.failures += [f for row in rows if (f := trial_failure(row, config.pairs))]
    if len(rows) != config.trials:
        result.failures.append(f"{len(rows)} rows for {config.trials} trials")
    result.pairs = sum(pairs_prepared(row, config.pairs) for row in rows)
    pool_rows(rows, result.stats)


def within_z(mismatches: int, samples: int, p: float) -> bool:
    if samples == 0:
        return False
    return abs(mismatches / samples - p) <= Z_GATE * math.sqrt(p * (1 - p) / samples)


def binomial_limit(n: int, p: float, alpha: float = TAIL_GATE) -> int:
    """Smallest k with P(X > k) < alpha for X ~ Binomial(n, p)."""
    pmf = (1.0 - p) ** n
    cdf = pmf
    k = 0
    while 1.0 - cdf >= alpha and k < n:
        pmf *= (n - k) / (k + 1) * p / (1.0 - p)
        k += 1
        cdf += pmf
    return k


def bulk_gates(stats: Counter) -> list[str]:
    trials = stats["trials"]
    breaches = []
    if trials == 0:
        return ["no trial finished"]
    if stats["check1_mismatches"] > THRESHOLD_1 * stats["check1_samples"]:
        breaches.append(
            f"check-1 error {stats['check1_mismatches']}/{stats['check1_samples']} above threshold"
        )
    if not within_z(stats["check2_mismatches"], stats["check2_samples"], 0.5):
        breaches.append(
            f"check-2 error {stats['check2_mismatches']}/{stats['check2_samples']}"
            f" not within {Z_GATE} sigma of 0.5"
        )
    if stats["abort:check2_failed"] != trials:
        breaches.append(
            f"{trials - stats['abort:check2_failed']} of {trials} runs did not abort with check2_failed"
        )
    return breaches


def detect_gates(stats: Counter) -> list[str]:
    trials = stats["trials"]
    breaches = []
    if trials == 0:
        return ["no trial finished"]
    if stats["check1_size:16"] != trials:
        breaches.append(f"{trials - stats['check1_size:16']} of {trials} check-1 samples are not 16")
    if not within_z(stats["check1_mismatches"], stats["check1_samples"], 0.5):
        breaches.append(
            f"check-1 error {stats['check1_mismatches']}/{stats['check1_samples']}"
            f" not within {Z_GATE} sigma of 0.5"
        )
    # The first check misses the attack when all 16 sampled pairs agree.
    escaped = trials - stats["abort:check1_failed"]
    limit = binomial_limit(trials, FAKE_EPR_MISS)
    if escaped > limit:
        breaches.append(
            f"{escaped} of {trials} attacked trials passed check 1; at 2^-16 per trial"
            f" more than {limit} has probability < {TAIL_GATE}"
        )
    return breaches


def audit_gates(stats: Counter) -> list[str]:
    trials = stats["trials"]
    breaches = []
    if trials == 0:
        return ["no trial finished"]
    if stats["abort:None"] != trials:
        breaches.append(f"{trials - stats['abort:None']} of {trials} clean trials aborted")
    if stats["check1_mismatches"] or stats["check2_mismatches"]:
        breaches.append("a clean channel produced check mismatches")
    if stats["transcript_pairs"] != stats["row_pairs"]:
        breaches.append(
            f"transcripts prepare {stats['transcript_pairs']} pairs, rows imply {stats['row_pairs']}"
        )
    return breaches


# -- ops -----------------------------------------------------------------------


class LibraryOp:
    """``eprqkd.runner.run`` on one config, then ``verify_report`` on its report."""

    def __init__(self, config):
        self.config = config
        self.report = None
        self.error: str | None = None
        self.seconds = self.verify_seconds = 0.0
        self.problems: list[str] = []

    def execute(self):
        try:
            started = clock()
            self.report = eprqkd.runner.run(self.config)
            self.seconds = clock() - started
            document = self.report.to_dict()
            started = clock()
            self.problems = eprqkd.report.verify_report(document)
            self.verify_seconds = clock() - started
        except Exception:
            self.error = traceback.format_exc(limit=3)

    def check(self, digest: bool = False) -> OpResult:
        config = self.config
        result = OpResult(attempted=config.trials)
        if self.error is not None:
            result.failures = [f"raised: {self.error}"] * config.trials
            return result
        result.seconds, result.verify_seconds = self.seconds, self.verify_seconds
        tally_rows(result, self.report.rows, config)
        result.failures += [f"verify: {problem}" for problem in self.problems]
        if digest:
            result.digest = _digest(eprqkd.report.render_structured(self.report).encode())
        return result

    def discard(self):
        self.report = None


class AuditOp:
    """``eprqkd run ... --out F --transcript`` then ``eprqkd verify F``, via cli.main."""

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.config = configs.audit_config(seed)
        self.out = out
        self.codes: list[int | str] = []
        self.verify_output = ""
        self.seconds = self.verify_seconds = 0.0

    @staticmethod
    def _main(argv: list[str]) -> tuple[int | str, str]:
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = eprqkd.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "raised: " + traceback.format_exc(limit=3)
        return code, buffer.getvalue()

    def execute(self):
        started = clock()
        code, _ = self._main(configs.audit_argv(self.seed, self.out))
        self.seconds = clock() - started
        self.codes.append(code)
        started = clock()
        code, self.verify_output = self._main(["verify", str(self.out)])
        self.verify_seconds = clock() - started
        self.codes.append(code)

    @property
    def transcript_path(self) -> Path:
        return self.out.with_suffix(".transcript.jsonl")

    def check(self, digest: bool = False) -> OpResult:
        config = self.config
        result = OpResult(attempted=config.trials)
        if any(code != 0 for code in self.codes):
            result.failures = [f"exit codes {self.codes}"] * config.trials
            return result
        report_bytes = self.out.read_bytes()
        transcript_bytes = self.transcript_path.read_bytes()
        result.seconds, result.verify_seconds = self.seconds, self.verify_seconds
        tally_rows(result, json.loads(report_bytes)["trials"], config)
        if not self.verify_output.startswith("OK "):
            result.failures.append(f"verify printed {self.verify_output!r}")
        result.stats["row_pairs"] += result.pairs
        for line in transcript_bytes.splitlines():
            event = json.loads(line)
            if event["event"] == "prepare":
                result.stats["transcript_pairs"] += event["payload"]["pairs"]
        if digest:
            result.digest = _digest(report_bytes, transcript_bytes)
        return result

    def discard(self):
        for path in (self.out, self.transcript_path):
            with contextlib.suppress(FileNotFoundError):
                path.unlink()


@dataclass(frozen=True)
class Workload:
    """A named op sequence; BENCHMARK.json says why each one is there."""

    name: str
    gates: Callable[[Counter], list[str]]
    trace_ops: int  # ops in the fixed list the traced run repeats

    def op(self, seed: int, index: int, workdir: Path):
        if self.name == "audit":
            return AuditOp(op_seed(seed, self.name, index), workdir / f"audit-{index}.json")
        return LibraryOp(configs.CONFIGS[self.name](op_seed(seed, self.name, index)))


# bulk-resend: per-pair kernels dominate and per-trial costs are paid once.
# detect: per-trial fixed costs (seeding, ledgers, rows, aggregation) weigh in.
# audit: the CLI path, the only one through key extraction, three-party
# reconciliation, rendering, transcripts and file I/O; its channel is clean.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("bulk-resend", bulk_gates, trace_ops=12),
        Workload("detect", detect_gates, trace_ops=20),
        Workload("audit", audit_gates, trace_ops=16),
    )
}


# -- traced run ----------------------------------------------------------------


def _sample_size(args, kwargs, result) -> int:
    return len(result)


def _file_size(args, kwargs, result) -> int:
    return os.path.getsize(result)


# Each point is the binding a caller looks up: protocol steps as run_protocol
# finds them, kernels as protocol and adversary find them, and so on.
WRAP_POINTS = [
    WrapPoint("eprqkd.protocol:alice_prepare", span="protocol.prepare_s"),
    WrapPoint("eprqkd.protocol:prepare_from_labels", span="protocol.prepare_s"),
    WrapPoint("eprqkd.protocol:transmit_first_sequence", span="protocol.transmit1_s"),
    WrapPoint("eprqkd.protocol:first_check", span="protocol.check1_s"),
    WrapPoint("eprqkd.protocol:transmit_second_sequence", span="protocol.transmit2_s"),
    WrapPoint("eprqkd.protocol:bob_decode", span="protocol.decode_s"),
    WrapPoint("eprqkd.protocol:second_check", span="protocol.check2_s"),
    WrapPoint("eprqkd.protocol:extract_key", span="protocol.extract_s"),
    WrapPoint("eprqkd.protocol:sender_key_material", span="protocol.extract_s"),
    WrapPoint("eprqkd.runner:run_protocol", span="protocol.run_self_s"),
    WrapPoint("eprqkd.protocol:run_protocol", span="protocol.run_self_s"),
    WrapPoint("eprqkd.runner:run_multiparty", span="protocol.run_self_s"),
    WrapPoint("eprqkd.adversary:AdversaryChannel.interpose", span="adversary.interpose_s"),
    WrapPoint("eprqkd.runner:eve_guess_counts", span="adversary.guess_counts_s"),
    WrapPoint("eprqkd.protocol:measure_qubit", span="quantum.measure_s", count="quantum.measure_calls"),
    WrapPoint("eprqkd.protocol:measure_bell_basis", span="quantum.measure_s", count="quantum.measure_calls"),
    WrapPoint("eprqkd.adversary:measure_qubit_z", span="quantum.measure_s", count="quantum.measure_calls"),
    WrapPoint("eprqkd.adversary:measure_bell_basis", span="quantum.measure_s", count="quantum.measure_calls"),
    WrapPoint("eprqkd.rng:RandomSource.__init__", span="rng.seed_s", count="rng.streams"),
    WrapPoint("eprqkd.rng:RandomSource.random", count="rng.draws"),
    WrapPoint("eprqkd.rng:RandomSource.bernoulli", count="rng.draws"),
    WrapPoint("eprqkd.rng:RandomSource.uniform_index", count="rng.draws"),
    WrapPoint("eprqkd.rng:RandomSource.categorical", count="rng.draws"),
    WrapPoint("eprqkd.rng:RandomSource.sample_without_replacement", count="rng.draws", tally=_sample_size),
    WrapPoint("eprqkd.runner:trial_row", span="runner.trial_row_s"),
    WrapPoint("eprqkd.runner:aggregate_rows", span="runner.aggregate_s"),
    WrapPoint("eprqkd.report:aggregate_rows", span="runner.aggregate_s"),
    WrapPoint("eprqkd.runner:run", span="runner.run_self_s"),
    WrapPoint("eprqkd.cli:run", span="runner.run_self_s"),
    WrapPoint("eprqkd.analysis:mutual_information", span="analysis.mi_s"),
    WrapPoint("eprqkd.ledger:Transcript.log", count="ledger.transcript_events"),
    WrapPoint("eprqkd.ledger:Transcript.to_jsonl", span="ledger.transcript_jsonl_s"),
    WrapPoint("eprqkd.report:render_structured", span="report.render_s"),
    WrapPoint("eprqkd.report:render_tabular", span="report.render_s"),
    WrapPoint("eprqkd.cli:emit_report", span="report.write_s", count="report.bytes_written", tally=_file_size),
    WrapPoint("eprqkd.cli:emit_transcripts", span="report.write_s", count="report.bytes_written", tally=_file_size),
    WrapPoint("eprqkd.cli:verify_report", span="report.verify_s"),
    WrapPoint("eprqkd.report:verify_report", span="report.verify_s"),
    WrapPoint("eprqkd.cli:main", span="cli.self_s"),
]

# Per-layer metrics in output order: span metrics are self times in seconds
# summed over the traced op list, count metrics are totals over it.
TRACE_METRICS = {"trace.overhead": "ratio", "trace.wall_s": "s", "trace.unattributed_s": "s"}


def layer_metrics() -> dict[str, str]:
    units: dict[str, str] = {}
    for point in WRAP_POINTS:
        if point.span is not None:
            units.setdefault(point.span, "s")
        if point.count is not None:
            units.setdefault(point.count, "bytes" if point.tally is _file_size else "count")
    return {**units, **TRACE_METRICS}
