"""The column engine against the per-pair object engine it replaced.

Both engines make the same draws from the same streams, so for every config
and seed the report rows and transcripts must agree byte for byte. A step
that visits pairs in another order, or a wrong table entry in
``eprqkd.quantum`` that some later outcome depends on, shows up here as a
differing row or transcript line. A post state nothing reads again (a pair
consumed by the check that measured it) cannot show here;
``test_quantum.py`` pins every table entry directly.
"""
import json

from hypothesis import given, settings, strategies as st

import eprqkd.ledger
import object_engine
from eprqkd.adversary import AttackKind, AttackStrategy
from eprqkd.config import RunConfig
from eprqkd.quantum import BELL_LABELS
from eprqkd.runner import run

ATTACKS = [
    AttackStrategy(),
    AttackStrategy(kind=AttackKind.MEASURE_RESEND),
    AttackStrategy(kind=AttackKind.MEASURE_RESEND, measure_second_sequence=True),
    AttackStrategy(kind=AttackKind.FAKE_EPR),
    AttackStrategy(kind=AttackKind.FAKE_EPR, fake_label=None),
    AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=0.3),
]


def assert_engines_agree(config: RunConfig):
    report = run(config, collect_transcripts=True)
    rows, transcripts = object_engine.run(config)
    assert json.dumps(report.rows, sort_keys=True) == json.dumps(rows, sort_keys=True)
    assert report.transcripts == transcripts


def test_every_attack_variant_matches_the_object_engine():
    for attack in ATTACKS:
        for parties in (2, 3):
            for continuation_mode in (False, True):
                for randomize_check_basis in (False, True):
                    assert_engines_agree(
                        RunConfig(
                            pairs=64,
                            trials=2,
                            seed=5,
                            attack=attack,
                            parties=parties,
                            min_check_size=4,
                            loss_tolerance=0.5,
                            continuation_mode=continuation_mode,
                            randomize_check_basis=randomize_check_basis,
                        )
                    )


def test_run_path_builds_no_pair_records(monkeypatch):
    # Records are a view for readers; the engine itself works on columns.
    def refuse(*args):
        raise AssertionError("a PairRecord was built on the run path")

    monkeypatch.setattr(eprqkd.ledger, "PairRecord", refuse)
    for attack in ATTACKS:
        for parties in (2, 3):
            run(RunConfig(pairs=64, trials=2, attack=attack, parties=parties, min_check_size=4))


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(list(AttackKind)),
    fake_label=st.sampled_from([None, *BELL_LABELS]),
    destroy_probability=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    measure_second_sequence=st.booleans(),
    pairs=st.integers(1, 120),
    trials=st.integers(1, 3),
    check_fraction_1=st.floats(0.01, 0.99),
    check_fraction_2=st.floats(0.01, 0.99),
    threshold_1=st.one_of(st.just(0.02), st.floats(0.0, 1.0)),
    threshold_2=st.one_of(st.just(0.02), st.floats(0.0, 1.0)),
    min_check_size=st.integers(1, 24),
    loss_tolerance=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    continuation_mode=st.booleans(),
    randomize_check_basis=st.booleans(),
    parties=st.sampled_from([2, 3]),
    attack_hop=st.sampled_from(["1", "2", "both"]),
    seed=st.integers(0, 2**64 - 1),
)
def test_rows_and_transcripts_match_the_object_engine(
    kind, fake_label, destroy_probability, measure_second_sequence, **fields
):
    attack = AttackStrategy(kind, fake_label, destroy_probability, measure_second_sequence)
    assert_engines_agree(RunConfig(attack=attack, **fields))
