import argparse
import dataclasses
import enum
import hashlib
import json
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from eprqkd.adversary import FAKE_LABELS, AttackKind, AttackStrategy
from eprqkd.cli import _build_parser, main
from eprqkd.config import RunConfig
from eprqkd.errors import ConfigurationError
from eprqkd.protocol import run_multiparty
from eprqkd.report import (
    TABULAR_COLUMNS,
    emit_report,
    emit_transcripts,
    render_structured,
    render_tabular,
    verify_report,
)
from eprqkd.runner import SCHEMA_VERSION, aggregate_rows, run, trial_row
from test_golden import golden_configs


# Every attack variant: a clean channel, measure-resend of the first sequence
# and of both, fake-EPR with a fixed and with uniform labels, and opaque.
ATTACK_VARIANTS = [
    AttackStrategy(),
    AttackStrategy(kind=AttackKind.MEASURE_RESEND),
    AttackStrategy(kind=AttackKind.MEASURE_RESEND, measure_second_sequence=True),
    AttackStrategy(kind=AttackKind.FAKE_EPR),
    AttackStrategy(kind=AttackKind.FAKE_EPR, fake_label=None),
    AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=0.3),
]

# The aggregate blocks of aggregate_configs(), less the two mutual-information
# fields, which go through the platform's log2 (as in tests/test_golden.py).
AGGREGATE_SHA256 = "224d22c047b5c44e4449b5e145601ad631783e265d97bb847484b9cb88513a1a"
MI_FIELDS = ("mutual_information_ab", "mutual_information_ae")
SRC = Path(__file__).resolve().parent.parent / "src"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


@dataclasses.dataclass
class Document:
    """Anything with a ``to_dict``, as ``render_structured`` reads a report."""

    value: object

    def to_dict(self):
        return self.value


# JSON documents with string keys: every scalar kind (an IntEnum among the
# ints; -0.0, the smallest subnormal, NaN and the infinities among the
# floats; non-ASCII and lone-surrogate text), lists, tuples and empty
# containers.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from(list(Level))
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf])
    | st.text()
    | st.text(st.characters(categories=["Cs", "Lo", "Cc", "Po"])),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=20,
)


def aggregate_configs():
    """Clean, measure-resend, fake-EPR, an opaque stall (no trial completes),
    three parties and the randomized check basis."""
    measure_resend = AttackStrategy(kind=AttackKind.MEASURE_RESEND)
    opaque = AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=0.3)
    yield RunConfig(pairs=200, trials=3, seed=21)
    yield RunConfig(pairs=200, trials=3, seed=22, attack=measure_resend)
    yield RunConfig(pairs=64, trials=20, seed=23, attack=AttackStrategy(kind=AttackKind.FAKE_EPR))
    yield RunConfig(pairs=200, trials=3, seed=43, attack=opaque)
    yield RunConfig(pairs=200, trials=3, seed=24, parties=3)
    yield RunConfig(pairs=200, trials=3, seed=25, attack=measure_resend, randomize_check_basis=True)


def test_aggregate_digest_pins_every_field_but_mutual_information():
    digest = hashlib.sha256()
    for config in aggregate_configs():
        aggregate = run(config).aggregate
        block = {key: value for key, value in aggregate.items() if key not in MI_FIELDS}
        digest.update(json.dumps(block, sort_keys=True).encode())
    assert digest.hexdigest() == AGGREGATE_SHA256


class TestRunner:
    def test_clean_aggregate(self):
        report = run(RunConfig(pairs=200, trials=5, seed=40))
        agg = report.aggregate
        assert agg["trials"] == 5
        assert agg["completed"] == 5
        assert agg["abort_rate"] == 0.0
        assert agg["detection_rate"] == 0.0
        assert agg["key_agreement_rate"] == 1.0
        assert agg["check1"]["error_rate"] == 0.0
        assert agg["check2"]["error_rate"] == 0.0
        assert agg["efficiency"] == 1.0
        assert agg["mutual_information_ae"] == 0.0
        assert abs(agg["mutual_information_ab"] - 2.0) < 0.1

    def test_aggregate_recomputes_from_rows(self):
        report = run(
            RunConfig(
                pairs=300,
                trials=4,
                seed=41,
                attack=AttackStrategy(kind=AttackKind.MEASURE_RESEND),
            )
        )
        assert aggregate_rows(report.rows) == report.aggregate

    def test_means_add_left_to_right(self):
        # Ten 0.1s added left to right from 0.0 make 0.9999999999999999;
        # builtins.sum rounds them to 1.0 from Python 3.12 on, which would
        # make the report's bytes depend on the interpreter.
        rows = run(RunConfig(pairs=40, trials=10, seed=42)).rows
        for row in rows:
            row["receipt_fraction_1"] = 0.1
        assert aggregate_rows(rows)["mean_receipt_fraction_1"] == 0.09999999999999999

    def test_detection_rates(self):
        report = run(
            RunConfig(
                pairs=200,
                trials=30,
                seed=42,
                attack=AttackStrategy(kind=AttackKind.MEASURE_RESEND),
            )
        )
        assert report.aggregate["detection_rate"] == 1.0
        assert report.aggregate["abort_rate"] == 1.0
        assert all(row["abort_reason"] == "check2_failed" for row in report.rows)

    def test_stall_counts_as_abort_not_detection(self):
        report = run(
            RunConfig(
                pairs=200,
                trials=10,
                seed=43,
                attack=AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=0.3),
            )
        )
        assert report.aggregate["abort_rate"] == 1.0
        assert report.aggregate["detection_rate"] == 0.0
        assert report.aggregate["check1"] is None
        assert report.aggregate["mutual_information_ab"] is None
        # No trial completed, so there is no key to measure or compare.
        assert report.aggregate["key_agreement_rate"] is None
        assert report.aggregate["mean_key_length"] is None

    def test_zero_thresholds_pass_a_clean_channel(self):
        # A clean check finds error rate 0.0, which passes a threshold of 0.0.
        report = run(RunConfig(pairs=200, trials=4, seed=45, threshold_1=0.0, threshold_2=0.0))
        assert report.aggregate["completed"] == 4
        assert report.aggregate["key_agreement_rate"] == 1.0

    def test_trials_are_independent_of_order(self):
        # Trial t depends only on (seed, t): a one-trial run at seed^0
        # reproduces trial 0 of a many-trial run.
        many = run(RunConfig(pairs=100, trials=3, seed=44))
        one = run(RunConfig(pairs=100, trials=1, seed=44))
        assert many.rows[0]["check1"] == one.rows[0]["check1"]
        assert many.rows[0]["key_length"] == one.rows[0]["key_length"]

    @settings(max_examples=40, deadline=None)
    @given(
        attack=st.sampled_from(ATTACK_VARIANTS),
        parties=st.sampled_from([2, 3]),
        attack_hop=st.sampled_from(["1", "2", "both"]),
        pairs=st.integers(20, 80),
        trials=st.integers(1, 5),
        bounds=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_a_trial_run_alone_matches_its_batch(
        self, attack, parties, attack_hop, pairs, trials, bounds, seed
    ):
        # run_multiparty(config, t) is the whole of trial t: rows and
        # transcripts of any slice of trials equal the batch's slice.
        assume(not (parties == 2 and attack_hop == "2"))
        a, b = sorted(min(bound, trials) for bound in bounds)
        cfg = RunConfig(
            pairs=pairs,
            trials=trials,
            seed=seed,
            attack=attack,
            parties=parties,
            attack_hop=attack_hop,
        )
        report = run(cfg, True)
        alone = [run_multiparty(cfg, t, True) for t in range(a, b)]
        assert [trial_row(outcome) for outcome in alone] == report.rows[a:b]
        transcripts = [
            "".join([hop.ledger.transcript.to_jsonl() for hop in o.hops]) for o in alone
        ]
        assert transcripts == report.transcripts[a:b]

    def test_multiparty_rows_carry_hop2(self):
        report = run(RunConfig(pairs=200, trials=2, seed=45, parties=3))
        for row in report.rows:
            assert row["hop2"] is not None
            assert row["hop2"]["check1"]["passed"]
        assert report.aggregate["key_agreement_rate"] == 1.0

    def test_wall_time_present_but_not_serialized(self):
        report = run(RunConfig(pairs=50, trials=1, seed=46))
        assert report.wall_time_s > 0
        assert "wall_time" not in json.dumps(report.to_dict())


class TestReportFormats:
    def make_report(self, **kwargs):
        return run(RunConfig(**{"pairs": 120, "trials": 3, "seed": 47, **kwargs}))

    def test_structured_shape(self):
        report = self.make_report()
        doc = json.loads(render_structured(report))
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["config"]["pairs"] == 120
        assert len(doc["trials"]) == 3
        assert doc["aggregate"]["trials"] == 3

    def test_structured_is_byte_stable(self):
        a = render_structured(self.make_report())
        b = render_structured(self.make_report())
        assert a == b

    def test_structured_is_the_indented_json_dump(self):
        # No digest covers the structured bytes; these are json's own.
        for config in golden_configs():
            report = run(config)
            expected = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
            assert render_structured(report) == expected

    @settings(max_examples=150, deadline=None)
    @given(value=JSON_VALUES)
    def test_structured_renders_any_document_as_json_does(self, value):
        document = Document(value)
        assert render_structured(document) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    def test_tabular_is_byte_stable_and_well_formed(self):
        report = self.make_report()
        text = render_tabular(report)
        assert text == render_tabular(self.make_report())
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(TABULAR_COLUMNS)
        assert len(lines) == 1 + 3
        first = lines[1].split(",")
        assert first[0] == SCHEMA_VERSION
        assert first[1] == "0"

    def test_tabular_columns_are_fixed(self):
        assert TABULAR_COLUMNS == [
            "schema_version",
            "trial",
            "abort_reason",
            "receipt_fraction_1",
            "receipt_fraction_2",
            "check1_sample_size",
            "check1_mismatches",
            "check1_error_rate",
            "check1_passed",
            "check2_sample_size",
            "check2_mismatches",
            "check2_error_rate",
            "check2_passed",
            "key_length",
            "keys_agree",
            "hop2_abort_reason",
            "hop2_check1_sample_size",
            "hop2_check1_mismatches",
            "hop2_check1_error_rate",
            "hop2_check1_passed",
            "hop2_check2_sample_size",
            "hop2_check2_mismatches",
            "hop2_check2_error_rate",
            "hop2_check2_passed",
        ]

    def test_tabular_multiparty_fills_hop2_columns(self):
        report = self.make_report(parties=3, pairs=200)
        lines = render_tabular(report).strip().split("\n")
        row = dict(zip(TABULAR_COLUMNS, lines[1].split(",")))
        assert row["hop2_check1_sample_size"] != ""
        assert row["hop2_check2_passed"] == "true"

    def test_tabular_row_of_a_trial_whose_checks_never_ran(self):
        # The opaque attack starves the first transmission, so neither check,
        # the key nor a second hop ever runs: their cells are empty.
        strategy = AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=0.9)
        report = run(RunConfig(pairs=100, seed=0, attack=strategy, loss_tolerance=0.0))
        assert report.rows[0]["check1"] is None
        lines = render_tabular(report).strip().split("\n")
        row = dict(zip(TABULAR_COLUMNS, lines[1].split(",")))
        assert row["abort_reason"] == "stall_transmission_1"
        empty = [
            "receipt_fraction_2",
            "keys_agree",
            *(name for name in TABULAR_COLUMNS if name.startswith(("check", "hop2_"))),
        ]
        assert {name: row[name] for name in empty} == dict.fromkeys(empty, "")
        assert lines[1] == "eprqkd-report/1,0,stall_transmission_1,0.04,,,,,,,,,,0,,,,,,,,,,"

    def test_config_echo_reproduces_the_run(self):
        report = self.make_report(attack=AttackStrategy(kind=AttackKind.FAKE_EPR))
        doc = json.loads(render_structured(report))
        echoed = RunConfig.from_dict(doc["config"])
        assert echoed == report.config
        again = run(echoed)
        assert render_structured(again) == render_structured(report)

    def test_transcripts_round_trip(self, tmp_path):
        report = run(RunConfig(pairs=60, trials=2, seed=48), collect_transcripts=True)
        path = emit_transcripts(report, tmp_path / "t.jsonl")
        lines = path.read_text().strip().split("\n")
        events = [json.loads(line) for line in lines]
        assert {e["trial"] for e in events} == {0, 1}
        assert all(
            set(e) == {"trial", "step", "actor", "event", "payload"} for e in events
        )

    def test_transcripts_absent_unless_collected(self):
        report = run(RunConfig(pairs=60, trials=1, seed=48))
        assert report.transcripts is None
        with pytest.raises(ValueError):
            emit_transcripts(report, "unused.jsonl")

    def test_emit_report_formats(self, tmp_path):
        report = self.make_report()
        structured = emit_report(report, tmp_path / "r.json", "structured")
        tabular = emit_report(report, tmp_path / "r.csv", "tabular")
        assert json.loads(structured.read_text())["aggregate"] == report.aggregate
        assert tabular.read_text().startswith(TABULAR_COLUMNS[0])
        with pytest.raises(ValueError):
            emit_report(report, tmp_path / "r.x", "yaml")


class TestVerifyReport:
    def test_valid_report_verifies(self):
        report = run(RunConfig(pairs=100, trials=2, seed=49))
        doc = json.loads(render_structured(report))
        assert verify_report(doc) == []

    def test_tampered_aggregate_is_caught(self):
        report = run(RunConfig(pairs=100, trials=2, seed=49))
        doc = json.loads(render_structured(report))
        doc["aggregate"]["detection_rate"] = 0.5
        problems = verify_report(doc)
        assert any("detection_rate" in p for p in problems)

    def test_schema_version_checked(self):
        report = run(RunConfig(pairs=100, trials=1, seed=49))
        doc = json.loads(render_structured(report))
        doc["schema_version"] = "something-else"
        assert any("schema_version" in p for p in verify_report(doc))

    @pytest.mark.parametrize(
        "mangle, stored",
        [
            (lambda doc: doc.pop("config"), "None"),
            (lambda doc: doc["config"].update(trials=3), "3"),
            (lambda doc: doc["config"].update(trials=2.0), "2.0"),
        ],
        ids=["config-missing", "config-trials-wrong", "config-trials-float"],
    )
    def test_config_trials_must_count_the_rows(self, mangle, stored):
        report = run(RunConfig(pairs=100, trials=2, seed=49))
        doc = json.loads(render_structured(report))
        mangle(doc)
        assert verify_report(doc) == [f"config.trials: stored {stored}, counted 2"]

    def test_a_key_one_aggregate_lacks_is_a_mismatch(self):
        # Every fake-EPR trial aborts at the first check, so these three keys
        # recompute as None; a missing key must not read as that None, nor a
        # stray None as a key the recomputed aggregate lacks.
        cfg = RunConfig(pairs=64, trials=2, seed=49, attack=AttackStrategy(kind=AttackKind.FAKE_EPR))
        doc = json.loads(render_structured(run(cfg)))
        for key in ("key_agreement_rate", "mean_key_length", "check2"):
            del doc["aggregate"][key]
        doc["aggregate"]["stray"] = None
        assert verify_report(doc) == [
            "aggregate.check2: stored <missing>, recomputed None",
            "aggregate.key_agreement_rate: stored <missing>, recomputed None",
            "aggregate.mean_key_length: stored <missing>, recomputed None",
            "aggregate.stray: stored None, recomputed <missing>",
        ]

    def test_config_not_an_object_is_malformed(self):
        report = run(RunConfig(pairs=100, trials=1, seed=49))
        doc = json.loads(render_structured(report))
        doc["config"] = []
        with pytest.raises(ValueError, match="^malformed report: config is a list, not an object$"):
            verify_report(doc)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RunConfig(pairs=0)
        with pytest.raises(ConfigurationError):
            RunConfig(trials=0)
        with pytest.raises(ConfigurationError):
            RunConfig(check_fraction_1=0.0)
        with pytest.raises(ConfigurationError):
            RunConfig(check_fraction_2=1.0)
        with pytest.raises(ConfigurationError):
            RunConfig(threshold_1=1.5)
        with pytest.raises(ConfigurationError):
            RunConfig(loss_tolerance=-0.1)
        with pytest.raises(ConfigurationError):
            RunConfig(parties=4)
        with pytest.raises(ConfigurationError):
            RunConfig(seed=2**64)
        with pytest.raises(ConfigurationError):
            RunConfig(attack_hop="3")
        with pytest.raises(ConfigurationError, match="attack_hop"):
            RunConfig(parties=2, attack_hop="2")
        with pytest.raises(ConfigurationError, match="min_check_size"):
            RunConfig(min_check_size=0)

    def test_pairs_stop_below_2_to_the_25(self):
        # A trial holds about 70 bytes per pair, over 2 GB at this bound.
        assert RunConfig(pairs=2**25 - 1).pairs == 2**25 - 1
        for pairs in (2**25, 10**23):
            with pytest.raises(ConfigurationError, match=r"2\*\*25 = 33554432") as exc:
                RunConfig(pairs=pairs)
            assert str(pairs) in str(exc.value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pairs", True),
            ("pairs", 10.0),
            ("trials", "3"),
            ("seed", None),
            ("loss_tolerance", False),
            ("check_fraction_1", "0.25"),
            ("continuation_mode", 1),
        ],
    )
    def test_wrong_types_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            RunConfig(**{field: value})
        with pytest.raises(ConfigurationError, match="destroy_probability"):
            AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=True)

    @pytest.mark.parametrize(
        "fields, field",
        [
            ({"kind": "fake-epr"}, "kind"),
            ({"kind": AttackKind.FAKE_EPR, "fake_label": 7}, "fake_label"),
            ({"kind": AttackKind.FAKE_EPR, "fake_label": 2}, "fake_label"),
            ({"kind": AttackKind.FAKE_EPR, "fake_label": 25}, "fake_label"),
        ],
        ids=[
            "kind-a-string",
            "fake_label-a-product-state",
            "fake_label-an-int-code",
            "fake_label-no-state",
        ],
    )
    def test_attack_fields_of_the_wrong_kind_rejected(self, fields, field):
        # Rejected at construction, not inside a run or in to_dict after it.
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            AttackStrategy(**fields)

    def test_attack_not_an_attack_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="^attack must be an AttackStrategy"):
            RunConfig(attack="x")

    @pytest.mark.parametrize("cls", [RunConfig, AttackStrategy], ids=lambda cls: cls.__name__)
    def test_every_typed_field_rejects_a_wrong_type(self, cls):
        # The resolved annotations, so that the test still finds the typed
        # fields if the record stops annotating them as strings.
        hints = typing.get_type_hints(cls)
        wrong = {bool: 1, int: 1.5, float: "0.5"}
        typed = [name for name in cls.FIELDS if hints[name] in wrong]
        assert typed
        for name in typed:
            with pytest.raises(ConfigurationError, match=f"^{name} must be"):
                cls(**{name: wrong[hints[name]]})

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"bogus": 1}, "bogus"),
            ({"pairs": "10"}, "pairs"),
            ({"attack": {"kind": "nope"}}, "attack.kind"),
            ({"attack": {"fake_label": "psi9"}}, "attack.fake_label"),
            ({"attack": {"sneaky": True}}, "sneaky"),
            ({"attack": "opaque"}, "attack"),
        ],
    )
    def test_from_dict_names_the_offending_key(self, data, key):
        with pytest.raises(ConfigurationError, match=key):
            RunConfig.from_dict(data)

    def test_round_trip(self):
        config = RunConfig(
            pairs=123,
            trials=7,
            seed=99,
            attack=AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=0.25),
            loss_tolerance=0.4,
            parties=3,
            attack_hop="2",
        )
        assert RunConfig.from_dict(config.to_dict()) == config


class TestCli:
    @pytest.mark.parametrize("fake_label", list(FAKE_LABELS))
    def test_run_writes_report_and_exits_zero(self, tmp_path, capsys, fake_label):
        out = tmp_path / "report.json"
        code = main(
            [
                "run",
                "--pairs", "80",
                "--trials", "2",
                "--seed", "7",
                "--attack", "measure-resend",
                "--fake-label", fake_label,
                "--out", str(out),
            ]
        )
        assert code == 0  # detection is a result, not a failure
        assert json.loads(out.read_text())["config"]["attack"]["fake_label"] == fake_label
        stdout = capsys.readouterr().out
        assert "detection rate 1.0000" in stdout

    def test_default_run_echoes_the_default_config(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["run", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"] == RunConfig().to_dict()

    def test_run_without_out_prints_the_summary_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--pairs", "40", "--trials", "2"]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("eprqkd: 2 trial(s) x 40 pairs")
        assert "written" not in stdout
        assert list(tmp_path.iterdir()) == []

    def test_run_then_verify(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["run", "--pairs", "80", "--seed", "3", "--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0

    def test_verify_catches_tampering(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["run", "--pairs", "80", "--seed", "3", "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["aggregate"]["completed"] = 0
        out.write_text(json.dumps(doc))
        assert main(["verify", str(out)]) == 1
        # An int field and a nested block: one line each, in sorted key order.
        doc["aggregate"]["check1"]["mismatches"] += 1
        check1 = doc["aggregate"]["check1"]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        recomputed = aggregate_rows(doc["trials"])
        assert capsys.readouterr().out.splitlines() == [
            f"MISMATCH aggregate.check1: stored {check1!r}, recomputed {recomputed['check1']!r}",
            f"MISMATCH aggregate.completed: stored 0, recomputed {recomputed['completed']!r}",
        ]

    def test_opaque_report_bytes_are_pinned(self, tmp_path):
        # Its mean_receipt_fraction_1 is a float sum that builtins.sum rounds
        # differently from Python 3.12 on; these are its bytes on every
        # interpreter.
        out = tmp_path / "r.json"
        argv = ["run", "--pairs", "97", "--trials", "10", "--seed", "11",
                "--loss-tolerance", "0.9", "--attack", "opaque", "--destroy-prob", "0.3"]
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "2ddd6b2b0d26511ca181802edc8e63693e7035bc7b94086e66c7091bc54858f6"
        )
        assert main(["verify", str(out)]) == 0

    def test_verify_missing_file(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_a_closed_stdout_exits_one_without_a_traceback(self, tmp_path, command):
        out = tmp_path / "r.json"
        assert main(["run", "--pairs", "20", "--trials", "1", "--out", str(out)]) == 0
        argv = ["run", "--pairs", "20", "--trials", "1"] if command == "run" else ["verify", str(out)]
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        # The pipe's read end is closed before the child starts, so its
        # first write to stdout fails.
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "eprqkd.cli", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": path},
                text=True,
                timeout=120,
            )
        finally:
            os.close(write)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr

    @pytest.mark.parametrize(
        "out, transcript, what",
        [("missing/r.json", False, "report"), ("r.json", True, "transcripts")],
        ids=["report-in-missing-dir", "transcripts-onto-a-dir"],
    )
    def test_failed_write_names_the_file(self, tmp_path, capsys, out, transcript, what):
        (tmp_path / "r.transcript.jsonl").mkdir()
        argv = ["run", "--pairs", "20", "--out", str(tmp_path / out)]
        assert main(argv + ["--transcript"] * transcript) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: could not write {what}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        # The report is written last, so a failed write leaves none.
        assert not (tmp_path / out).exists()

    @pytest.mark.parametrize("transcript", [False, True], ids=["report", "with-transcripts"])
    @pytest.mark.parametrize("where", ["run", "emit_report"])
    def test_out_of_memory_is_one_line_error(
        self, tmp_path, capsys, monkeypatch, where, transcript
    ):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(f"eprqkd.cli.{where}", exhausted)
        out = tmp_path / "r.json"
        argv = ["run", "--pairs", "20", "--out", str(out)]
        assert main(argv + ["--transcript"] * transcript) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "out of memory" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["json.loads", "verify_report"])
    def test_verify_out_of_memory_is_one_line_error(self, tmp_path, capsys, monkeypatch, where):
        out = tmp_path / "r.json"
        assert main(["run", "--pairs", "20", "--out", str(out)]) == 0

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(f"eprqkd.cli.{where}", exhausted)
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "out of memory" in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert not captured.out

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda doc: doc["trials"][0].pop("abort_reason"),
            lambda doc: doc.update(trials=[1, 2]),
            None,  # the whole report inside a list
            lambda doc: doc["trials"][0].update(ab_counts={"00": {"00": float("nan")}}),
            lambda doc: doc["trials"][0].update(receipt_fraction_1=float("nan")),
            lambda doc: doc["trials"][0]["check1"].update(mismatches=float("nan")),
            lambda doc: doc["trials"][0].update(key_length=float("inf")),
            lambda doc: doc["trials"][0].update(keys_agree=float("nan")),
            lambda doc: doc["trials"][0].update(keys_agree="no"),
            lambda doc: doc["trials"][0].update(key_length=10**400),
            lambda doc: doc["trials"][0]["check1"].update(sample_size=10**400),
            # Each key length fits a float, but their sum does not.
            lambda doc: doc.update(trials=[dict(doc["trials"][0], key_length=10**308)] * 2),
            lambda doc: doc["trials"][0].update(receipt_fraction_1=10**400),
            lambda doc: doc.update(aggregate=0),
            lambda doc: doc.update(aggregate=[]),
            lambda doc: doc.update(aggregate=""),
            lambda doc: doc.update(aggregate=False),
            lambda doc: doc.update(aggregate=None),
            lambda doc: doc.update(aggregate=5),
            lambda doc: doc.update(aggregate=[1]),
            lambda doc: doc.update(trials={"a": 1}),
            lambda doc: doc.update(config=[]),
            lambda doc: doc.update(config=None),
            lambda doc: doc["trials"][0]["ab_counts"]["00"].update({"00": True}),
            lambda doc: doc["trials"][0]["ab_counts"]["00"].update({"00": -1}),
            lambda doc: doc["trials"][0]["ab_counts"]["00"].update({"00": 1.5}),
            lambda doc: doc["trials"][0]["ab_counts"].update({"00": [12]}),
            lambda doc: doc["trials"][0].update(ae_counts=[]),
            # A number of the wrong type; all but the last equal the row's value.
            lambda doc: doc["trials"][0]["check1"].update(mismatches=False)
            or doc["trials"][0]["check2"].update(mismatches=False),
            lambda doc: doc["trials"][0]["check1"].update(sample_size=20.0),
            lambda doc: doc["trials"][0].update(receipt_fraction_1=True),
            lambda doc: doc["trials"][0].update(key_length=88.0),
            lambda doc: doc["trials"][0]["check1"].update(sample_size=True),
        ],
        ids=[
            "row-missing-abort-reason",
            "trials-not-rows",
            "top-level-list",
            "nan-count",
            "nan-receipt-fraction",
            "nan-check-mismatches",
            "infinite-key-length",
            "nan-keys-agree",
            "string-keys-agree",
            "over-large-key-length",
            "over-large-check-sample-size",
            "key-lengths-overflow-their-mean",
            "over-large-receipt-fraction",
            "aggregate-zero",
            "aggregate-empty-list",
            "aggregate-empty-string",
            "aggregate-false",
            "aggregate-null",
            "aggregate-int",
            "aggregate-list",
            "trials-object",
            "config-list",
            "config-null",
            "bool-count",
            "negative-count",
            "fractional-count",
            "ab-counts-row-list",
            "ae-counts-list",
            "bool-check-mismatches",
            "float-check-sample-size",
            "bool-receipt-fraction",
            "float-key-length",
            "bool-check-sample-size",
        ],
    )
    def test_verify_malformed_report_is_one_line_error(self, tmp_path, capsys, mangle):
        out = tmp_path / "report.json"
        main(["run", "--pairs", "80", "--seed", "3", "--out", str(out)])
        doc = json.loads(out.read_text())
        if mangle is None:
            doc = [doc]
        else:
            mangle(doc)
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: malformed report")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.out + captured.err

    def test_verify_reports_the_first_error_of_the_fold(self, tmp_path, capsys):
        # Sender/receiver counts that pool to a zero-sum table, and a bool
        # count in Eve's: the fold pools both tables before it computes
        # either information, so the bool count is the error reported.
        out = tmp_path / "report.json"
        main(["run", "--pairs", "80", "--seed", "3", "--out", str(out)])
        doc = json.loads(out.read_text())
        for row in doc["trials"]:
            row["ab_counts"] = {}
        doc["trials"][0]["ab_counts"] = {"00": {"00": 0}}
        doc["trials"][0]["ae_counts"] = {"00": {"0": True}}
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: malformed report: rows do not fit eprqkd-report/1 "
            "(ValueError: counts must be nonnegative ints, got True)\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "table, out, err",
        [
            (
                {"00": {}},
                "",
                "error: malformed report: rows do not fit eprqkd-report/1 "
                "(ValueError: cannot build a joint distribution from empty counts)\n",
            ),
            (
                {"00": {"00": 0}},
                "",
                "error: malformed report: rows do not fit eprqkd-report/1 "
                "(ValueError: counts sum to zero)\n",
            ),
            (
                {},
                "MISMATCH aggregate.mutual_information_ab: "
                "stored 1.9883943082078948, recomputed None\n",
                "",
            ),
        ],
        ids=["empty-row", "zero-sum", "empty-table"],
    )
    def test_verify_on_an_invalid_pooled_count_table(self, tmp_path, capsys, table, out, err):
        # A pooled sender/receiver table with no column or no positive count
        # is malformed; one with no row has no information to recompute.
        path = tmp_path / "report.json"
        main(["run", "--pairs", "80", "--seed", "3", "--out", str(path)])
        doc = json.loads(path.read_text())
        for row in doc["trials"]:
            row["ab_counts"] = {}
        doc["trials"][0]["ab_counts"] = table
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err)

    @pytest.mark.parametrize(
        "mangle, line",
        [
            (lambda doc: doc.pop("config"), "MISMATCH config.trials: stored None, counted 1"),
            (lambda doc: doc["config"].update(trials=2), "MISMATCH config.trials: stored 2, counted 1"),
            (lambda doc: doc.update(trials=[]), "MISMATCH trials: missing or empty"),
        ],
        ids=["config-missing", "config-trials-wrong", "trials-empty"],
    )
    def test_verify_mismatch_is_one_line(self, tmp_path, capsys, mangle, line):
        out = tmp_path / "report.json"
        main(["run", "--pairs", "80", "--seed", "3", "--out", str(out)])
        doc = json.loads(out.read_text())
        mangle(doc)
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == line + "\n"
        assert captured.err == ""

    def test_verify_undecodable_file_is_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        assert main(["verify", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: could not read report:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000, '{"trials": [' + "9" * 5_000 + "]}"],
        ids=["over-deep-nesting", "over-long-integer"],
    )
    def test_verify_unparsable_json_is_one_line_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["verify", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: could not read report:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.out + captured.err

    def test_run_flags_are_the_config_fields(self):
        # Every config field is set by exactly one ``run`` option, whose
        # default, switch-ness and type follow the field.
        run_parser = _build_parser()[1]
        dests = [action.dest for action in run_parser._actions]
        actions = {action.dest: action for action in run_parser._actions}
        defaults = RunConfig().to_dict()
        defaults.update(defaults.pop("attack"))
        hints = {**typing.get_type_hints(RunConfig), **typing.get_type_hints(AttackStrategy)}
        for name, default in defaults.items():
            assert dests.count(name) == 1, name
            action = actions[name]
            assert action.default == default, name
            assert isinstance(action, argparse._StoreTrueAction) == (hints[name] is bool), name
            if hints[name] in (int, float):
                args = run_parser.parse_args([action.option_strings[0], str(default)])
                parsed = getattr(args, name)
                assert type(parsed) is hints[name] and parsed == default, name

    def test_parsers_are_built_once(self):
        first, second = _build_parser(), _build_parser()
        assert first[0] is second[0] and first[1] is second[1]

    def test_commands_carry_no_state_across_calls(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", "--continuation-mode", "--out", str(a)]) == 0
        assert main(["run", "--out", str(b)]) == 0
        assert json.loads(a.read_text())["config"]["continuation_mode"] is True
        assert json.loads(b.read_text())["config"] == RunConfig().to_dict()

    def test_bad_config_after_a_run_is_usage_error(self, tmp_path, capsys):
        assert main(["run", "--pairs", "80", "--out", str(tmp_path / "r.json")]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["run", "--pairs", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: eprqkd run")

    def test_transcript_flag(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(
            ["run", "--pairs", "60", "--seed", "1", "--out", str(out), "--transcript"]
        ) == 0
        assert (tmp_path / "r.transcript.jsonl").exists()

    def test_transcript_requires_out(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--pairs", "60", "--transcript"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("pairs", ["33554432", "99999999999999999999999"])
    def test_too_many_pairs_is_one_line_usage_error(self, capsys, monkeypatch, pairs):
        def refuse(*args, **kwargs):
            raise AssertionError("started a trial of too many pairs")

        monkeypatch.setattr("eprqkd.cli.run", refuse)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--pairs", pairs])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: eprqkd run") and "Traceback" not in err
        errors = [line for line in err.splitlines() if "error" in line]
        assert errors == [f"eprqkd run: error: pairs must be below 2**25 = 33554432, got {pairs}"]

    def test_invalid_config_is_usage_error(self, capsys):
        # Reported under the run subcommand's usage line, not the top-level one.
        for argv in (["--pairs", "0"], ["--parties", "2", "--attack-hop", "2"], ["--transcript"]):
            with pytest.raises(SystemExit) as exc:
                main(["run", *argv])
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith("usage: eprqkd run")

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["--pairs", "1"], "insufficient_pairs"),
            (["--pairs", "16"], "insufficient_pairs"),
            (["--pairs", "20"], "insufficient_pairs"),
            (["--parties", "3", "--pairs", "40"], "hop2_insufficient_pairs"),
            (
                ["--attack", "opaque", "--destroy-prob", "0.9", "--loss-tolerance", "1.0",
                 "--pairs", "100"],
                "insufficient_pairs",
            ),
        ],
        ids=["pairs-1", "pairs-16", "pairs-20", "three-party-40", "opaque-total-loss"],
    )
    def test_unworkable_trial_aborts_and_exits_zero(self, tmp_path, argv, reason):
        # The checks leave nothing to check or to keep: each trial aborts,
        # the batch finishes, and a shortfall is not a detection.
        out = tmp_path / "r.json"
        assert main(["run", "--trials", "3", *argv, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [row["abort_reason"] for row in doc["trials"]] == [reason] * 3
        assert doc["aggregate"]["detection_rate"] == 0.0
        assert main(["verify", str(out)]) == 0

    def test_unknown_attack_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--attack", "quantum-hammer"])
        assert exc.value.code == 2

    def test_tabular_output(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(
            ["run", "--pairs", "60", "--seed", "2", "--format", "tabular", "--out", str(out)]
        ) == 0
        assert out.read_text().startswith("schema_version,")

    def test_three_party_run(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(
            ["run", "--pairs", "150", "--parties", "3", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["parties"] == 3
        assert doc["trials"][0]["hop2"] is not None
