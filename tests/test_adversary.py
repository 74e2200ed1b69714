import pytest

from eprqkd.adversary import (
    AdversaryChannel,
    AttackKind,
    AttackStrategy,
    eve_guess_counts,
)
from eprqkd.analysis import JointDistribution, mutual_information
from eprqkd.config import RunConfig
from eprqkd.errors import ConfigurationError
from eprqkd.ledger import UNSET, Disposition
from eprqkd.protocol import (
    alice_prepare,
    first_check,
    run_protocol,
    transmit_first_sequence,
    transmit_second_sequence,
)
from eprqkd.quantum import (
    BELL_LABELS,
    CODES,
    PRODUCTS,
    BellState,
    basis_state,
    bell_overlap_probabilities,
    make_bell_state,
    qubit_z_probabilities,
)
from eprqkd.rng import RandomSource, three_sigma
from eprqkd.runner import run


def channel(kind=AttackKind.NONE, seed=0, **kwargs):
    return AdversaryChannel(AttackStrategy(kind=kind, **kwargs), RandomSource(seed, "eve"))


def with_disposition(ledger, disposition):
    return [rec for rec in ledger.records if rec.disposition is disposition]


def sent_ledger(n, seed=0, chan=None):
    ledger = alice_prepare(n, RandomSource(seed, "alice"))
    transmit_first_sequence(ledger, chan or channel())
    return ledger


class TestStrategyValidation:
    def test_destroy_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=1.5)
        with pytest.raises(ConfigurationError):
            AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=-0.1)

    def test_round_trips_through_dict(self):
        for strategy in (
            AttackStrategy(),
            AttackStrategy(kind=AttackKind.FAKE_EPR, fake_label=None),
            AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=0.3),
            AttackStrategy(kind=AttackKind.MEASURE_RESEND, measure_second_sequence=True),
        ):
            assert AttackStrategy.from_dict(strategy.to_dict()) == strategy

    def test_bad_transmission_rejected(self):
        ledger = alice_prepare(2, RandomSource(0))
        with pytest.raises(ConfigurationError):
            channel().interpose(3, ledger)


class TestIdentityChannel:
    def test_nothing_changes(self):
        chan = channel()
        ledger = alice_prepare(5, RandomSource(3, "alice"))
        transmit_first_sequence(ledger, chan)
        assert all(rec.carrier == make_bell_state(rec.prepared) for rec in ledger.records)
        assert all(rec.disposition is Disposition.IN_FLIGHT_1 for rec in ledger.records)
        assert all(rec.fake_carrier is None for rec in ledger.records)
        assert ledger.receipt_1 == 1.0
        assert not ledger.guesses and ledger.guess_alphabet == CODES


class TestMeasureResend:
    def test_collapses_to_correlated_products(self):
        chan = channel(AttackKind.MEASURE_RESEND, seed=1)
        ledger = sent_ledger(500, seed=1, chan=chan)
        products = {
            True: {basis_state("00"), basis_state("11")},
            False: {basis_state("01"), basis_state("10")},
        }
        for rec in ledger.records:
            assert rec.carrier in products[rec.prepared.correlated]
            assert PRODUCTS[rec.carrier - len(BELL_LABELS)][1] == ("z", ledger.guesses[rec.index])
        assert UNSET not in ledger.guesses and len(ledger.guesses) == 500
        assert ledger.guess_alphabet == ("0", "1")
        bits = ledger.guesses
        assert abs(sum(bits) / 500 - 0.5) < three_sigma(0.5, 500)

    def test_parity_class_exactly_preserved(self):
        # The collapsed carrier has zero overlap outside the prepared
        # state's parity class, for every pair.
        chan = channel(AttackKind.MEASURE_RESEND, seed=2)
        ledger = sent_ledger(200, seed=2, chan=chan)
        correlated = {BellState.PSI1, BellState.PSI2}
        for rec in ledger.records:
            probs = bell_overlap_probabilities(rec.carrier)
            in_class = sum(
                probs[l] for l in (correlated if rec.prepared.correlated else set(BELL_LABELS) - correlated)
            )
            assert in_class == pytest.approx(1.0, abs=1e-12)

    def test_forwards_to_receiver(self):
        ledger = sent_ledger(50, chan=channel(AttackKind.MEASURE_RESEND))
        # The collapsed genuine particle goes on; nothing is planted or lost.
        assert all(rec.disposition is Disposition.IN_FLIGHT_1 for rec in ledger.records)
        assert all(rec.fake_carrier is None for rec in ledger.records)
        assert ledger.receipt_1 == 1.0

    def test_single_bit_carries_no_code_information(self):
        # Exact statement: the transmitted half's Z marginal is uniform for
        # every preparation choice, so Eve's bit is independent of the code.
        for label in BELL_LABELS:
            p0, p1 = qubit_z_probabilities(make_bell_state(label), "second")
            assert p0 == pytest.approx(0.5, abs=1e-12)


class TestFakeEpr:
    def test_substitutes_and_captures(self):
        chan = channel(AttackKind.FAKE_EPR, seed=3)
        ledger = sent_ledger(20, seed=3, chan=chan)
        for rec in ledger.records:
            # The receiver gets the planted half; Eve keeps the genuine one,
            # whose pair state she has not touched yet.
            assert rec.disposition is Disposition.IN_FLIGHT_1
            assert rec.fake_carrier == make_bell_state(BellState.PSI1)
            assert rec.carrier == make_bell_state(rec.prepared)
        # Nothing learned until the second sequence.
        assert not ledger.guesses and ledger.guess_alphabet == CODES
        assert ledger.receipt_1 == 1.0  # the receiver cannot tell yet

    def test_first_check_mismatch_probability_is_exactly_half(self):
        # Enumerate every (prepared, planted) combination: the receiver's
        # bit comes from the planted pair and is uniform, the sender's from
        # the genuine pair and is uniform, and they are independent, so the
        # observed relation contradicts the prepared one with probability
        # exactly 1/2.
        for prepared in BELL_LABELS:
            for planted in BELL_LABELS:
                sender = qubit_z_probabilities(make_bell_state(prepared), "first")
                receiver = qubit_z_probabilities(make_bell_state(planted), "second")
                mismatch = 0.0
                for a in (0, 1):
                    for b in (0, 1):
                        if (a == b) != prepared.correlated:
                            mismatch += sender[a] * receiver[b]
                assert mismatch == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "fake_label", [BellState.PSI1, BellState.PSI2, BellState.PSI3, BellState.PSI4, None]
    )
    def test_first_check_rate_is_half_for_any_planted_state(self, fake_label):
        config = RunConfig(
            pairs=4000,
            seed=17,
            attack=AttackStrategy(kind=AttackKind.FAKE_EPR, fake_label=fake_label),
        )
        outcome = run_protocol(config, RandomSource(17))
        assert outcome.check1.sample_size == 1000
        assert abs(outcome.check1.error_rate - 0.5) <= 0.05

    def test_completed_attack_reads_the_whole_key(self):
        config = RunConfig(
            pairs=2000,
            seed=5,
            attack=AttackStrategy(kind=AttackKind.FAKE_EPR),
            continuation_mode=True,
        )
        outcome = run_protocol(config, RandomSource(5))
        guesses = outcome.ledger.guesses
        decoded = [rec for rec in outcome.ledger.records if rec.outcome is not None]
        assert len(decoded) > 0
        inferred = [i for i, code in enumerate(guesses) if code != UNSET]
        assert inferred == [rec.index for rec in decoded]
        for rec in decoded:
            assert guesses[rec.index] == rec.prepared


class TestOpaque:
    def test_receipt_fraction_tracks_survival_probability(self):
        chan = channel(AttackKind.OPAQUE, seed=6, destroy_probability=0.3)
        ledger = sent_ledger(10_000, seed=6, chan=chan)
        assert abs(ledger.receipt_1 - 0.7) < three_sigma(0.7, 10_000)
        # Every pair is either destroyed or delivered, and the receipt
        # counts exactly the delivered ones.
        dropped = with_disposition(ledger, Disposition.DROPPED)
        delivered = with_disposition(ledger, Disposition.IN_FLIGHT_1)
        assert len(dropped) + len(delivered) == 10_000
        assert ledger.receipt_1 == len(delivered) / 10_000

    def test_total_destruction(self):
        chan = channel(AttackKind.OPAQUE, seed=7, destroy_probability=1.0)
        ledger = sent_ledger(100, seed=7, chan=chan)
        assert ledger.receipt_1 == 0.0
        assert len(with_disposition(ledger, Disposition.DROPPED)) == 100

    def test_survivors_untouched(self):
        chan = channel(AttackKind.OPAQUE, seed=8, destroy_probability=0.5)
        ledger = alice_prepare(200, RandomSource(8, "alice"))
        transmit_first_sequence(ledger, chan)
        survivors = [r for r in ledger.records if r.disposition is not Disposition.DROPPED]
        assert survivors
        assert all(rec.carrier == make_bell_state(rec.prepared) for rec in survivors)


class TestEveInformation:
    def run_with(self, kind, pairs=4000, seed=9, **kwargs):
        config = RunConfig(
            pairs=pairs,
            seed=seed,
            attack=AttackStrategy(kind=kind, **kwargs),
            continuation_mode=True,
        )
        return run_protocol(config, RandomSource(seed))

    def eve_mi(self, outcome):
        counts = eve_guess_counts(outcome.ledger)
        return mutual_information(JointDistribution.from_counts(counts))

    def test_no_attack_scores_zero_exactly(self):
        outcome = self.run_with(AttackKind.NONE)
        assert eve_guess_counts(outcome.ledger) == {}
        # An empty score pools to exactly zero bits in the aggregate.
        report = run(RunConfig(pairs=400, trials=2, seed=9))
        assert report.aggregate["mutual_information_ae"] == 0.0

    def test_fake_epr_scores_two_bits(self):
        outcome = self.run_with(AttackKind.FAKE_EPR, pairs=10_000)
        assert self.eve_mi(outcome) == pytest.approx(2.0, abs=0.05)

    def test_measure_resend_scores_nothing(self):
        outcome = self.run_with(AttackKind.MEASURE_RESEND, pairs=10_000)
        assert self.eve_mi(outcome) == pytest.approx(0.0, abs=0.05)

    def test_measuring_both_sequences_leaks_exactly_the_parity_bit(self):
        outcome = self.run_with(
            AttackKind.MEASURE_RESEND, pairs=10_000, measure_second_sequence=True
        )
        assert self.eve_mi(outcome) == pytest.approx(1.0, abs=0.05)

    def test_guess_counts_use_only_scored_pairs(self):
        outcome = self.run_with(AttackKind.FAKE_EPR, pairs=400)
        counts = eve_guess_counts(outcome.ledger)
        total = sum(n for row in counts.values() for n in row.values())
        guesses = outcome.ledger.guesses
        assert total == len(guesses) - guesses.count(UNSET)

    def test_single_bits_stand_when_check_one_consumes_every_pair(self):
        # Five pairs are all sampled by the first check, so none is in flight
        # when Eve measures the second sequence: her first-sequence Z bits
        # stay her guesses, scored one bit each.
        attack = AttackStrategy(kind=AttackKind.MEASURE_RESEND, measure_second_sequence=True)
        report = run(RunConfig(pairs=5, trials=1, seed=1, attack=attack))
        assert report.rows[0]["check1"]["sample_size"] == 5
        assert report.rows[0]["ae_counts"] == {
            "01": {"1": 1, "0": 1},
            "11": {"0": 2},
            "00": {"1": 1},
        }

    def test_second_sequence_measured_alone_scores_single_bits(self):
        # The first sequence went through a clean channel, so Eve holds only
        # her Z bits of the second: each is a one-bit guess.
        ledger = sent_ledger(40, seed=4)
        first_check(ledger, RunConfig(), RandomSource(4, "check"))
        chan = channel(AttackKind.MEASURE_RESEND, seed=4, measure_second_sequence=True)
        transmit_second_sequence(ledger, chan, RunConfig())
        live = [rec.index for rec in with_disposition(ledger, Disposition.IN_FLIGHT_2)]
        assert ledger.guess_alphabet == ("0", "1")
        assert [i for i, bit in enumerate(ledger.guesses) if bit != UNSET] == live
        counts = eve_guess_counts(ledger)
        assert set(counts) <= set(CODES)
        assert {guess for row in counts.values() for guess in row} <= {"0", "1"}
        assert sum(n for row in counts.values() for n in row.values()) == len(live)


class TestReplay:
    def test_eve_state_replays_identically(self):
        def run_once():
            config = RunConfig(
                pairs=300, seed=21, attack=AttackStrategy(kind=AttackKind.FAKE_EPR),
                continuation_mode=True,
            )
            ledger = run_protocol(config, RandomSource(21)).ledger
            return ledger.guesses, ledger.guess_alphabet

        first = run_once()
        assert first[0]
        assert first == run_once()
