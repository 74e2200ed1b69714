"""The column engine against the per-pair object engine it replaced.

Both engines make the same draws from the same streams, so for every config
and seed the report rows and transcripts must agree byte for byte, and each
hop's check reports must be equal objects. A step
that visits pairs in another order, or a wrong table entry in
``eprqkd.quantum`` that some later outcome depends on, shows up here as a
differing row or transcript line. A post state nothing reads again (a pair
consumed by the check that measured it) cannot show here;
``test_quantum.py`` pins every table entry directly.
"""
import json

from hypothesis import assume, given, settings, strategies as st

import eprqkd.adversary
import eprqkd.ledger
import object_engine
from eprqkd.adversary import AttackKind, AttackStrategy
from eprqkd.config import RunConfig
from eprqkd.ledger import Disposition
from eprqkd.protocol import run_multiparty
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


# A channel that destroys every particle in flight. With all loss tolerated,
# hop 1 has no pair left for its first check (insufficient_pairs at step 3);
# with half tolerated, it stalls at the first transmission (step 2).
DESTROY_ALL = AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=1.0)


def test_every_attack_variant_matches_the_object_engine():
    for config in engine_grid():
        assert_engines_agree(config)


def engine_grid():
    """The configs of the engine test above: every attack variant, for 2 and
    3 parties, with continuation and the randomized check basis off and on;
    then ``DESTROY_ALL``, for 2 and 3 parties and on hop 2 alone, with all
    and with half the loss tolerated; then the boundary configs that reach
    the rest of ``GRID_ABORT_PATHS``."""
    for attack in ATTACKS:
        for parties in (2, 3):
            for continuation_mode in (False, True):
                for randomize_check_basis in (False, True):
                    yield RunConfig(
                        pairs=64,
                        trials=2,
                        seed=23,
                        attack=attack,
                        parties=parties,
                        min_check_size=4,
                        loss_tolerance=0.5,
                        continuation_mode=continuation_mode,
                        randomize_check_basis=randomize_check_basis,
                    )
    for parties, attack_hop in ((2, "both"), (3, "both"), (3, "2")):
        for loss_tolerance in (1.0, 0.5):
            yield RunConfig(
                pairs=64,
                trials=2,
                seed=23,
                attack=DESTROY_ALL,
                parties=parties,
                min_check_size=4,
                loss_tolerance=loss_tolerance,
                attack_hop=attack_hop,
            )
    # Hop 2's first check fails, with and without continuation, and its
    # second check fails under measure-resend, while hop 1 runs clean.
    for attack, continuation_mode in (
        (AttackStrategy(kind=AttackKind.FAKE_EPR), False),
        (AttackStrategy(kind=AttackKind.FAKE_EPR), True),
        (AttackStrategy(kind=AttackKind.MEASURE_RESEND), False),
    ):
        yield RunConfig(
            pairs=64,
            trials=2,
            seed=23,
            attack=attack,
            parties=3,
            min_check_size=4,
            loss_tolerance=0.5,
            continuation_mode=continuation_mode,
            attack_hop="2",
        )
    # An opaque channel on hop 1 whose second transmission stalls in a trial
    # whose first one was delivered, for 2 and 3 parties.
    for parties, loss_tolerance in ((2, 0.17), (3, 0.3)):
        yield RunConfig(
            pairs=64,
            trials=2,
            seed=23,
            attack=AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=0.2),
            parties=parties,
            min_check_size=4,
            loss_tolerance=loss_tolerance,
        )
    # No pair is left for hop 1's key: of 16 pairs the first check takes all
    # and the second finds none; of 20 the first takes 16 and the second the
    # 4 left.
    for parties in (2, 3):
        for pairs in (16, 20):
            yield RunConfig(pairs=pairs, trials=2, seed=23, parties=parties)


# The (hop, reason, step) of every abort event that the grid's transcripts
# log. A grid edit that stops reaching one of them fails the test below.
GRID_ABORT_PATHS = {
    (1, "stall_transmission_1", 2),
    (1, "insufficient_pairs", 3),
    (1, "check1_failed", 4),
    (1, "check1_failed", 7),
    (1, "check2_failed", 7),
    (2, "stall_transmission_2", 5),
    (2, "insufficient_pairs", 7),
    (1, "stall_transmission_2", 5),
    (1, "insufficient_pairs", 7),
    (2, "stall_transmission_1", 2),
    (2, "insufficient_pairs", 3),
    (2, "check1_failed", 4),
    (2, "check1_failed", 7),
    (2, "check2_failed", 7),
}

# The abort paths of run_protocol that no config reaches. check1_failed at
# step 5 needs a hop's first check to fail and its second transmission to
# stall, but a hop's one attack either causes mismatches or destroys
# particles, never both.
UNREACHABLE_ABORT_PATHS = {(1, "check1_failed", 5), (2, "check1_failed", 5)}


def test_every_abort_path_is_reached_or_unreachable():
    # run_protocol has 8 (reason, step) abort paths, each open on either hop.
    assert len(GRID_ABORT_PATHS | UNREACHABLE_ABORT_PATHS) == 2 * 8
    assert not GRID_ABORT_PATHS & UNREACHABLE_ABORT_PATHS


def test_the_grid_reaches_every_listed_abort_path():
    reached = set()
    for config in engine_grid():
        for transcript in run(config, collect_transcripts=True).transcripts:
            for event in map(json.loads, transcript.splitlines()):
                if event["event"] == "abort":
                    payload = event["payload"]
                    # A two-party run tags no hop: its one hop is hop 1.
                    reached.add((payload.get("hop", 1), payload["reason"], event["step"]))
    assert reached == GRID_ABORT_PATHS


def oracle_hops(config: RunConfig, trial: int) -> list:
    """The object engine's hops of one trial, seeded as ``object_engine.run``
    seeds them."""
    rng = object_engine.Stream(config.seed, f"trial/{trial}")
    if config.parties == 3:
        hop1, hop2, *_ = object_engine.run_multiparty(config, rng, trial)
        return [hop for hop in (hop1, hop2) if hop is not None]
    return [object_engine.run_protocol(config, rng, trial=trial)]


def settled_ordinals(ledger, disposition) -> tuple[int, ...]:
    """The pair ordinals of the ledger's one settle to ``disposition``, as
    ``PairLedger.ordinals`` rebuilds them from its settle log: a check's
    sample for CHECKED_1 or CHECKED_2, and a completed hop's key pairs for
    KEY."""
    (ordinals,) = [ordinals for ordinals, fate in ledger.ordinals()[1] if fate is disposition]
    return tuple(ordinals)


def test_check_reports_match_the_object_engine():
    # Rows and transcripts hold each report's summary; this compares the
    # reports themselves, with the sample's ordinals from the settle log:
    # sample, size, mismatches and threshold. The announced bases are the
    # transcript's, which the transcript comparisons below check.
    for config in engine_grid():
        for trial in range(config.trials):
            hops = run_multiparty(config, trial).hops
            oracle = oracle_hops(config, trial)
            assert len(hops) == len(oracle)
            for hop, reference in zip(hops, oracle):
                checks = (
                    (hop.check1, reference.ledger.check1, Disposition.CHECKED_1),
                    (hop.check2, reference.ledger.check2, Disposition.CHECKED_2),
                )
                for report, expected, disposition in checks:
                    if expected is None:
                        assert report is None
                        continue
                    size, mismatches, threshold = report
                    sample = settled_ordinals(hop.ledger, disposition)
                    kept = expected.sample_indices, expected.mismatches, expected.threshold
                    assert (sample, mismatches, threshold) == kept
                    assert size == len(expected.sample_indices)


def test_rows_do_not_depend_on_collecting_transcripts():
    # Recording a transcript makes no draw, so a run that records none gives
    # the same rows.
    for config in engine_grid():
        plain = run(config)
        assert plain.transcripts is None
        assert plain.rows == run(config, collect_transcripts=True).rows


def test_run_without_transcripts_logs_no_event(monkeypatch):
    # Without collection no step or attack logs an event or builds a payload.
    def refuse(*args):
        raise AssertionError("an event was logged on a run that collects no transcripts")

    interpose = eprqkd.adversary.AdversaryChannel.interpose

    def interpose_without_payload(self, transmission, ledger):
        payload = interpose(self, transmission, ledger)
        assert payload is None, "an attack built a payload nothing reads"
        return payload

    monkeypatch.setattr(eprqkd.ledger.Transcript, "log", refuse)
    monkeypatch.setattr(eprqkd.adversary.AdversaryChannel, "interpose", interpose_without_payload)
    for config in engine_grid():
        run(config)


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
    loss_tolerance=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    continuation_mode=st.booleans(),
    randomize_check_basis=st.booleans(),
    parties=st.sampled_from([2, 3]),
    attack_hop=st.sampled_from(["1", "2", "both"]),
    seed=st.integers(0, 2**64 - 1),
)
def test_rows_and_transcripts_match_the_object_engine(
    kind, fake_label, destroy_probability, measure_second_sequence, **fields
):
    # A two-party run has no second hop to attack; RunConfig rejects it.
    assume(not (fields["parties"] == 2 and fields["attack_hop"] == "2"))
    attack = AttackStrategy(kind, fake_label, destroy_probability, measure_second_sequence)
    assert_engines_agree(RunConfig(attack=attack, **fields))
