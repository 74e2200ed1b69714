"""A batch of trials gives each trial what it gives alone.

``runner.run`` hands ``run_multiparty`` its trials in batches of at most
``runner.BATCH_PAIRS`` pairs. Each trial of a batch keeps its own streams
and draws, and only the byte work after each draw is shared over the
batch's joined columns, cut at each trial's own length. So every row and
every transcript must be what ``run_multiparty(config, t)`` gives for the
trial alone, however the trials fall into batches, and so must every
party's key and what each hop's ledger reads: its logs, its state and the
pair records rebuilt from them.
"""
import pytest
from hypothesis import given, settings, strategies as st

import eprqkd.runner
from eprqkd.adversary import AttackKind, AttackStrategy
from eprqkd.config import RunConfig
from eprqkd.protocol import run_multiparty
from eprqkd.runner import run, trial_row

FAKE_EPR = AttackStrategy(kind=AttackKind.FAKE_EPR)
RESEND = AttackStrategy(kind=AttackKind.MEASURE_RESEND)
OPAQUE = AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=0.3)
# Every attack, two and three parties, continuation, and the check-size edges
# of CI's with/without --transcript loop: a sample of one pair (in three
# parties hop 2's checks too), a first check of nearly every pair, and one
# that samples 5 of 5,000. Opaque losses make the trials of a batch differ in
# length, and so does hop 2 of a chain.
SHAPES = {
    "fake-epr": dict(pairs=64, attack=FAKE_EPR),
    "fake-epr-uniform": dict(pairs=64, attack=FAKE_EPR.replace(fake_label=None)),
    "fake-epr-continuation": dict(pairs=64, attack=FAKE_EPR, continuation_mode=True),
    "fake-epr-uniform-continuation": dict(
        pairs=64, attack=FAKE_EPR.replace(fake_label=None), continuation_mode=True
    ),
    "resend": dict(pairs=90, attack=RESEND),
    "resend-both": dict(pairs=90, attack=RESEND.replace(measure_second_sequence=True)),
    "resend-both-5": dict(pairs=5, attack=RESEND.replace(measure_second_sequence=True)),
    "random-bases": dict(pairs=90, attack=RESEND, randomize_check_basis=True),
    "opaque-losses": dict(pairs=97, attack=OPAQUE, loss_tolerance=0.9),
    "opaque-stalls": dict(pairs=97, attack=OPAQUE, loss_tolerance=0.25),
    "three-party": dict(pairs=120, parties=3),
    "three-party-random-bases": dict(
        pairs=120, parties=3, attack=RESEND.replace(measure_second_sequence=True),
        randomize_check_basis=True,
    ),
    "three-party-opaque": dict(pairs=97, parties=3, attack=OPAQUE, loss_tolerance=0.9),
    "three-party-hop-2": dict(
        pairs=120, parties=3, attack=FAKE_EPR.replace(fake_label=None), attack_hop="2"
    ),
    "min-check-1": dict(
        pairs=50, min_check_size=1, check_fraction_1=0.01, check_fraction_2=0.01
    ),
    "three-party-min-check-1": dict(
        pairs=60, parties=3, min_check_size=1, check_fraction_1=0.01, check_fraction_2=0.01
    ),
    "check-63-of-64": dict(pairs=64, check_fraction_1=0.97),
    "check-5-of-5000": dict(pairs=5000, min_check_size=1, check_fraction_1=0.001),
}


def alone(config: RunConfig, collect_transcripts: bool) -> tuple[list, list | None]:
    """The rows, and the transcripts when collected, of each trial run by
    itself, as ``runner.run`` would report them."""
    outcomes = [run_multiparty(config, t, collect_transcripts) for t in range(config.trials)]
    return reported(outcomes, collect_transcripts)


def reported(outcomes: list, collect_transcripts: bool) -> tuple[list, list | None]:
    """The rows, and the transcripts when collected, of ``outcomes``."""
    rows = [trial_row(outcome) for outcome in outcomes]
    if not collect_transcripts:
        return rows, None
    jsonl = ["".join(hop.ledger.transcript.to_jsonl() for hop in o.hops) for o in outcomes]
    return rows, jsonl


def ledger_facts(ledger) -> tuple:
    """What a hop's ledger reads once its hop ended: its settle and fill
    logs, phase, receipts and check reports, the ordinals and disposition
    counts rebuilt from its cuts, and its pair records."""
    return (
        ledger.settled,
        ledger.fills,
        ledger.phase,
        ledger.receipt_1,
        ledger.receipt_2,
        ledger.check1,
        ledger.check2,
        ledger.ordinals(),
        ledger.disposition_counts(),
        ledger.records,
    )


def trial_facts(outcome) -> tuple:
    """Every party's key of a trial, and each hop's abort reason, key and
    ledger facts."""
    hops = [(hop.abort_reason, hop.receiver_key, ledger_facts(hop.ledger)) for hop in outcome.hops]
    return outcome.trial, outcome.abort_reason, outcome.keys, hops


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    trials=st.integers(4, 7),
    per_batch=st.sampled_from([1, 2, 3]),
    collect_transcripts=st.booleans(),
)
def test_a_batch_gives_each_trial_what_it_gives_alone(
    shape, seed, trials, per_batch, collect_transcripts
):
    config = RunConfig(seed=seed, trials=trials, **shape)
    batched = []

    def recording(*args):
        outcomes = run_multiparty(*args)
        batched.extend(outcomes)
        return outcomes

    # Batches of per_batch trials; 4-7 trials leave an odd remainder of 2 or 3.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eprqkd.runner, "BATCH_PAIRS", per_batch * config.pairs)
        patch.setattr(eprqkd.runner, "run_multiparty", recording)
        report = run(config, collect_transcripts)
    outcomes = [run_multiparty(config, t, collect_transcripts) for t in range(config.trials)]
    assert (report.rows, report.transcripts) == reported(outcomes, collect_transcripts)
    assert list(map(trial_facts, batched)) == list(map(trial_facts, outcomes))


def test_a_run_of_a_range_is_its_trials_run_alone():
    # run_multiparty of a range is one batch; its outcomes are each trial's.
    config = RunConfig(seed=5, trials=6, **SHAPES["three-party-opaque"])
    batch = run_multiparty(config, range(1, 6), collect_transcripts=True)
    assert [outcome.trial for outcome in batch] == [1, 2, 3, 4, 5]
    rows, jsonl = alone(config, collect_transcripts=True)
    assert [trial_row(outcome) for outcome in batch] == rows[1:]
    assert ["".join(h.ledger.transcript.to_jsonl() for h in o.hops) for o in batch] == jsonl[1:]
