import json

import pytest

from eprqkd.adversary import FAKE_LABELS, AttackKind, AttackStrategy
from eprqkd.cli import main
from eprqkd.config import RunConfig
from eprqkd.errors import ConfigurationError
from eprqkd.report import (
    TABULAR_COLUMNS,
    emit_report,
    emit_transcripts,
    render_structured,
    render_tabular,
    verify_report,
)
from eprqkd.runner import SCHEMA_VERSION, aggregate_rows, run


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

    def test_trials_are_independent_of_order(self):
        # Trial t depends only on (seed, t): a one-trial run at seed^0
        # reproduces trial 0 of a many-trial run.
        many = run(RunConfig(pairs=100, trials=3, seed=44))
        one = run(RunConfig(pairs=100, trials=1, seed=44))
        assert many.rows[0]["check1"] == one.rows[0]["check1"]
        assert many.rows[0]["key_length"] == one.rows[0]["key_length"]

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

    def test_tabular_multiparty_fills_hop2_columns(self):
        report = self.make_report(parties=3, pairs=200)
        lines = render_tabular(report).strip().split("\n")
        row = dict(zip(TABULAR_COLUMNS, lines[1].split(",")))
        assert row["hop2_check1_sample_size"] != ""
        assert row["hop2_check2_passed"] == "true"

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

    def test_run_then_verify(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["run", "--pairs", "80", "--seed", "3", "--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0

    def test_verify_catches_tampering(self, tmp_path):
        out = tmp_path / "report.json"
        main(["run", "--pairs", "80", "--seed", "3", "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["aggregate"]["completed"] = 0
        out.write_text(json.dumps(doc))
        assert main(["verify", str(out)]) == 1

    def test_verify_missing_file(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda doc: doc["trials"][0].pop("abort_reason"),
            lambda doc: doc.update(trials=[1, 2]),
            lambda doc: [doc],
            lambda doc: doc["trials"][0].update(ab_counts={"00": {"00": float("nan")}}),
            lambda doc: doc["trials"][0].update(receipt_fraction_1=float("nan")),
            lambda doc: doc["trials"][0]["check1"].update(mismatches=float("nan")),
            lambda doc: doc["trials"][0].update(key_length=float("inf")),
        ],
        ids=[
            "row-missing-abort-reason",
            "trials-not-rows",
            "top-level-list",
            "nan-count",
            "nan-receipt-fraction",
            "nan-check-mismatches",
            "infinite-key-length",
        ],
    )
    def test_verify_malformed_report_is_one_line_error(self, tmp_path, capsys, mangle):
        out = tmp_path / "report.json"
        main(["run", "--pairs", "80", "--seed", "3", "--out", str(out)])
        doc = json.loads(out.read_text())
        mangled = mangle(doc)
        out.write_text(json.dumps(mangled if isinstance(mangled, list) else doc))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: malformed report")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.out + captured.err

    def test_verify_undecodable_file_is_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        assert main(["verify", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: could not read report:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.out + captured.err

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

    def test_invalid_config_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--pairs", "0"])
        assert exc.value.code == 2

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
