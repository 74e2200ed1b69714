import pytest
from hypothesis import given, settings, strategies as st

from eprqkd.adversary import AdversaryChannel, AttackKind, AttackStrategy
from eprqkd.config import RunConfig
from eprqkd.errors import ConfigurationError, ProtocolOrderError
from eprqkd.ledger import CheckReport, Disposition, PairLedger, Phase
from eprqkd.protocol import (
    alice_prepare,
    bob_decode,
    extract_key,
    first_check,
    prepare_from_labels,
    run_multiparty,
    run_protocol,
    second_check,
    sender_key_material,
    transmit_first_sequence,
    transmit_second_sequence,
)
from eprqkd.quantum import BELL_LABELS, BellState, make_bell_state
from eprqkd.rng import RandomSource, three_sigma


def clean_channel(seed=0):
    return AdversaryChannel(AttackStrategy(), RandomSource(seed, "eve"))


def config(**kwargs):
    return RunConfig(**{"pairs": 400, "seed": 0, **kwargs})


def with_disposition(ledger, disposition):
    return [rec for rec in ledger.records if rec.disposition is disposition]


class TestPrepare:
    def test_structure(self):
        ledger = alice_prepare(4, RandomSource(1, "alice"))
        assert ledger.n_total == 4
        assert [rec.index for rec in ledger.records] == [0, 1, 2, 3]
        assert ledger.phase is Phase.CREATED and ledger.receipt_1 is None
        for rec in ledger.records:
            assert rec.disposition is Disposition.PREPARED
            assert rec.carrier == make_bell_state(rec.prepared)
            assert rec.fake_carrier is None

    def test_single_pair(self):
        ledger = alice_prepare(1, RandomSource(2))
        assert ledger.n_total == 1
        assert ledger.records[0].disposition is Disposition.PREPARED

    def test_zero_pairs_rejected(self):
        with pytest.raises(ConfigurationError):
            alice_prepare(0, RandomSource(0))
        with pytest.raises(ConfigurationError):
            prepare_from_labels([])

    def test_labels_drawn_uniformly(self):
        n = 100_000
        ledger = alice_prepare(n, RandomSource(3, "alice"))
        for label in BELL_LABELS:
            freq = sum(1 for rec in ledger.records if rec.prepared is label) / n
            assert abs(freq - 0.25) < 0.01  # 3 sigma is about 0.004

    def test_prepare_from_labels_preserves_order(self):
        labels = [BellState.PSI4, BellState.PSI1, BellState.PSI3]
        ledger = prepare_from_labels(labels)
        assert [rec.prepared for rec in ledger.records] == labels


class TestTransmissions:
    def test_first_transmission_moves_custody(self):
        ledger = alice_prepare(10, RandomSource(4, "alice"))
        transmit_first_sequence(ledger, clean_channel())
        assert all(rec.disposition is Disposition.IN_FLIGHT_1 for rec in ledger.records)
        assert all(rec.carrier == make_bell_state(rec.prepared) for rec in ledger.records)
        assert ledger.receipt_1 == 1.0
        assert ledger.phase is Phase.SENT_1

    def test_first_transmission_requires_created_phase(self):
        ledger = alice_prepare(10, RandomSource(4))
        transmit_first_sequence(ledger, clean_channel())
        with pytest.raises(ProtocolOrderError):
            transmit_first_sequence(ledger, clean_channel())

    def test_second_transmission_requires_first_check(self):
        ledger = alice_prepare(10, RandomSource(4))
        transmit_first_sequence(ledger, clean_channel())
        with pytest.raises(ProtocolOrderError):
            transmit_second_sequence(ledger, clean_channel())

    def test_second_transmission_refuses_failed_check(self):
        ledger = alice_prepare(10, RandomSource(4))
        transmit_first_sequence(ledger, clean_channel())
        ledger.check1 = CheckReport("first", (0,), 1, 0.02)
        assert ledger.check1.error_rate == 1.0 and not ledger.check1.passed
        ledger.phase = Phase.CHECKED_1
        ledger.settle([0], Disposition.CHECKED_1)
        with pytest.raises(ProtocolOrderError):
            transmit_second_sequence(ledger, clean_channel())
        # Study mode is allowed through.
        transmit_second_sequence(ledger, clean_channel(), continuation=True)
        assert ledger.phase is Phase.SENT_2

    def test_full_custody_after_second_transmission(self):
        ledger = alice_prepare(20, RandomSource(5, "alice"))
        transmit_first_sequence(ledger, clean_channel())
        report = first_check(ledger, 0.25, 0.02, RandomSource(5, "bob"), min_size=4)
        transmit_second_sequence(ledger, clean_channel())
        in_flight = with_disposition(ledger, Disposition.IN_FLIGHT_2)
        assert len(in_flight) == 20 - report.sample_size
        assert ledger.receipt_2 == 1.0
        for rec in in_flight:
            assert rec.carrier == make_bell_state(rec.prepared)
            assert rec.fake_carrier is None


class TestFirstCheck:
    def test_clean_run_has_zero_errors(self):
        for seed in (1, 2, 3):
            for n in (40, 200):
                ledger = alice_prepare(n, RandomSource(seed, "alice"))
                transmit_first_sequence(ledger, clean_channel())
                report = first_check(ledger, 0.25, 0.02, RandomSource(seed, "bob"))
                assert report.mismatches == 0
                assert report.error_rate == 0.0
                assert report.passed

    def test_sample_size_honors_fraction_and_minimum(self):
        ledger = alice_prepare(64, RandomSource(6, "alice"))
        transmit_first_sequence(ledger, clean_channel())
        report = first_check(ledger, 0.25, 0.02, RandomSource(6, "bob"), min_size=16)
        assert report.sample_size == 16

        ledger = alice_prepare(8, RandomSource(6, "alice"))
        transmit_first_sequence(ledger, clean_channel())
        report = first_check(ledger, 0.25, 0.02, RandomSource(6, "bob"), min_size=16)
        assert report.sample_size == 8  # capped at what exists

    def test_checked_pairs_are_consumed(self):
        ledger = alice_prepare(40, RandomSource(7, "alice"))
        transmit_first_sequence(ledger, clean_channel())
        report = first_check(ledger, 0.5, 0.02, RandomSource(7, "bob"), min_size=4)
        checked = {rec.index for rec in with_disposition(ledger, Disposition.CHECKED_1)}
        assert checked == set(report.sample_indices)
        transmit_second_sequence(ledger, clean_channel())
        in_flight = {rec.index for rec in with_disposition(ledger, Disposition.IN_FLIGHT_2)}
        assert in_flight.isdisjoint(checked)

    def test_no_available_pairs_is_a_configuration_error(self):
        chan = AdversaryChannel(
            AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=1.0),
            RandomSource(8, "eve"),
        )
        ledger = alice_prepare(10, RandomSource(8, "alice"))
        transmit_first_sequence(ledger, chan)
        with pytest.raises(ConfigurationError):
            first_check(ledger, 0.25, 0.02, RandomSource(8, "bob"))

    def test_fake_epr_mismatch_rate(self):
        chan = AdversaryChannel(
            AttackStrategy(kind=AttackKind.FAKE_EPR), RandomSource(9, "eve")
        )
        ledger = alice_prepare(4000, RandomSource(9, "alice"))
        transmit_first_sequence(ledger, chan)
        report = first_check(ledger, 0.25, 0.02, RandomSource(9, "bob"))
        assert report.sample_size == 1000
        assert abs(report.error_rate - 0.5) < 0.05
        assert not report.passed


class TestDecodeAndSecondCheck:
    def run_to_decode(self, n=60, seed=10, chan_seed=10):
        ledger = alice_prepare(n, RandomSource(seed, "alice"))
        transmit_first_sequence(ledger, clean_channel(chan_seed))
        first_check(ledger, 0.25, 0.02, RandomSource(seed, "bob"), min_size=4)
        transmit_second_sequence(ledger, clean_channel(chan_seed))
        bob_decode(ledger, RandomSource(seed, "bob-decode"))
        return ledger

    def test_clean_decode_reproduces_preparation(self):
        ledger = self.run_to_decode()
        for rec in with_disposition(ledger, Disposition.DECODED):
            assert rec.outcome is rec.prepared

    def test_second_check_clean(self):
        ledger = self.run_to_decode()
        report = second_check(ledger, 0.25, 0.02, RandomSource(12, "bob"), min_size=4)
        assert report.error_rate == 0.0
        assert report.passed

    def test_second_check_requires_decode(self):
        ledger = alice_prepare(10, RandomSource(13))
        with pytest.raises(ProtocolOrderError):
            second_check(ledger, 0.25, 0.02, RandomSource(13))

    def test_measure_resend_second_check_rate(self):
        chan = AdversaryChannel(
            AttackStrategy(kind=AttackKind.MEASURE_RESEND), RandomSource(14, "eve")
        )
        ledger = alice_prepare(6000, RandomSource(14, "alice"))
        transmit_first_sequence(ledger, chan)
        report1 = first_check(ledger, 0.25, 0.02, RandomSource(14, "bob"))
        assert report1.error_rate == 0.0  # invisible to the first check
        transmit_second_sequence(ledger, chan)
        bob_decode(ledger, RandomSource(14, "bob-decode"))
        report2 = second_check(ledger, 0.25, 0.02, RandomSource(14, "bob2"))
        assert abs(report2.error_rate - 0.5) < 0.05
        assert not report2.passed
        # Mismatches never leave the prepared state's parity class.
        for rec in ledger.records:
            if rec.outcome is not None:
                assert rec.outcome.correlated == rec.prepared.correlated


class TestExtractKey:
    def synthetic_decoded_ledger(self, labels):
        ledger = prepare_from_labels(labels)
        ledger.outcome = list(ledger.prepared)
        ledger.advance(Disposition.DECODED)
        ledger.phase = Phase.CHECKED_2
        ledger.check1 = CheckReport("first", (0,), 0, 0.02)
        ledger.check2 = CheckReport("second", (0,), 0, 0.02)
        return ledger

    def test_key_is_code_concatenation_in_order(self):
        ledger = self.synthetic_decoded_ledger(
            [BellState.PSI1, BellState.PSI3, BellState.PSI4]
        )
        key = extract_key(ledger)
        assert key.bits == "001011"
        assert key.source_indices == (0, 1, 2)

    def test_sender_key_matches_prepared_codes(self):
        ledger = self.synthetic_decoded_ledger([BellState.PSI2, BellState.PSI2])
        key = extract_key(ledger)
        assert sender_key_material(ledger, key.source_indices).bits == "0101"

    def test_refuses_failed_checks(self):
        ledger = self.synthetic_decoded_ledger([BellState.PSI1])
        ledger.check2 = CheckReport("second", (0, 1), 1, 0.02)
        with pytest.raises(ProtocolOrderError):
            extract_key(ledger)

    def test_refuses_wrong_phase(self):
        ledger = prepare_from_labels([BellState.PSI1])
        with pytest.raises(ProtocolOrderError):
            extract_key(ledger)


class TestRunProtocol:
    def test_clean_run(self):
        outcome = run_protocol(config(pairs=400, seed=20), RandomSource(20))
        assert outcome.completed
        assert outcome.abort_reason is None
        assert outcome.check1.error_rate == 0.0
        assert outcome.check2.error_rate == 0.0
        assert outcome.keys_agree
        assert outcome.receiver_key.bits == outcome.sender_key.bits

    def test_conservation_and_exclusivity(self):
        outcome = run_protocol(config(pairs=500, seed=21), RandomSource(21))
        counts = outcome.ledger.disposition_counts()
        assert (
            counts["checked-1"] + counts["checked-2"] + counts["key"] + counts["dropped"]
            == 500
        )
        key_indices = set(outcome.receiver_key.source_indices)
        assert key_indices.isdisjoint(outcome.check1.sample_indices)
        assert key_indices.isdisjoint(outcome.check2.sample_indices)

    def test_key_indices_are_increasing_and_shared(self):
        outcome = run_protocol(config(pairs=300, seed=22), RandomSource(22))
        indices = list(outcome.receiver_key.source_indices)
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)
        assert outcome.sender_key.source_indices == outcome.receiver_key.source_indices

    def test_key_length_accounts_for_checks(self):
        outcome = run_protocol(config(pairs=400, seed=23), RandomSource(23))
        surviving = 400 - outcome.check1.sample_size - outcome.check2.sample_size
        assert len(outcome.receiver_key.bits) == 2 * surviving

    @pytest.mark.parametrize(
        "kind", [AttackKind.NONE, AttackKind.MEASURE_RESEND], ids=lambda kind: kind.value
    )
    def test_steps_log_what_run_protocol_logs(self, kind):
        # The ledger owns the transcript, so the seven steps called directly
        # on run_protocol's substreams log the same events it does.
        cfg = config(pairs=120, seed=25, attack=AttackStrategy(kind=kind))
        outcome = run_protocol(cfg, RandomSource(25))

        rng = RandomSource(25)
        bob = rng.substream("bob")
        channel = AdversaryChannel(cfg.attack, rng.substream("eve"))
        ledger = alice_prepare(cfg.pairs, rng.substream("alice"))
        transmit_first_sequence(ledger, channel)
        first_check(ledger, cfg.check_fraction_1, cfg.threshold_1, bob)
        transmit_second_sequence(ledger, channel)
        bob_decode(ledger, bob)
        report = second_check(ledger, cfg.check_fraction_2, cfg.threshold_2, bob)
        assert report.passed == (kind is AttackKind.NONE)  # measure-resend fails here
        expected = outcome.transcript.events
        if report.passed:
            extract_key(ledger)
        else:
            # Only run_protocol decides to abort, and says so last.
            assert expected[-1]["event"] == "abort"
            expected = expected[:-1]
        assert ledger.transcript.events == expected

    def test_transcript_replays_bit_for_bit(self):
        cfg = config(pairs=200, seed=24, attack=AttackStrategy(kind=AttackKind.MEASURE_RESEND))
        a = run_protocol(cfg, RandomSource(24)).transcript.to_jsonl()
        b = run_protocol(cfg, RandomSource(24)).transcript.to_jsonl()
        assert a == b
        c = run_protocol(cfg, RandomSource(25)).transcript.to_jsonl()
        assert a != c

    def test_measure_resend_aborts_at_second_check(self):
        cfg = config(pairs=400, seed=26, attack=AttackStrategy(kind=AttackKind.MEASURE_RESEND))
        outcome = run_protocol(cfg, RandomSource(26))
        assert outcome.abort_reason == "check2_failed"
        assert outcome.check1.passed
        assert outcome.receiver_key is None

    def test_fake_epr_aborts_at_first_check(self):
        cfg = config(pairs=400, seed=27, attack=AttackStrategy(kind=AttackKind.FAKE_EPR))
        outcome = run_protocol(cfg, RandomSource(27))
        assert outcome.abort_reason == "check1_failed"
        assert outcome.check2 is None

    def test_continuation_mode_reaches_second_check(self):
        cfg = config(
            pairs=2000,
            seed=28,
            attack=AttackStrategy(kind=AttackKind.FAKE_EPR),
            continuation_mode=True,
        )
        outcome = run_protocol(cfg, RandomSource(28))
        assert outcome.abort_reason == "check1_failed"
        assert outcome.check2 is not None
        # The planted pairs decode independently of the preparation:
        # three quarters of the comparisons mismatch.
        assert abs(outcome.check2.error_rate - 0.75) < 0.05
        assert outcome.receiver_key is None

    def test_opaque_stalls_with_zero_tolerance(self):
        cfg = config(
            pairs=300,
            seed=29,
            attack=AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=0.3),
        )
        outcome = run_protocol(cfg, RandomSource(29))
        assert outcome.abort_reason == "stall_transmission_1"
        assert outcome.check1 is None
        assert outcome.ledger.receipt_1 < 1.0
        counts = outcome.ledger.disposition_counts()
        assert counts["dropped"] == 300

    def test_opaque_can_stall_the_second_transmission(self):
        # Drive the ops directly with a channel that only bites on the
        # second transmission: delivery succeeds, then everything vanishes.
        ledger = alice_prepare(30, RandomSource(60, "alice"))
        transmit_first_sequence(ledger, clean_channel())
        report = first_check(ledger, 0.25, 0.02, RandomSource(60, "bob"), min_size=4)
        destroyer = AdversaryChannel(
            AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=1.0),
            RandomSource(60, "eve"),
        )
        transmit_second_sequence(ledger, destroyer)
        assert ledger.receipt_2 == 0.0
        dropped = with_disposition(ledger, Disposition.DROPPED)
        assert len(dropped) == 30 - report.sample_size
        assert not with_disposition(ledger, Disposition.IN_FLIGHT_2)

    def test_checks_exhausting_every_pair_abort_the_trial(self):
        # With 16 pairs the minimum-size first check consumes all of them,
        # so the second check has nothing to sample.
        outcome = run_protocol(RunConfig(pairs=16, seed=61), RandomSource(61))
        assert outcome.abort_reason == "insufficient_pairs"
        assert outcome.check1.passed and outcome.check2 is None
        # With 20 the second check takes the last 4 and no key is left.
        outcome = run_protocol(RunConfig(pairs=20, seed=61), RandomSource(61))
        assert outcome.abort_reason == "insufficient_pairs"
        assert outcome.check2.passed and outcome.receiver_key is None
        # Nothing delivered, and nothing missed either at full loss tolerance.
        cfg = config(
            attack=AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=1.0),
            loss_tolerance=1.0,
        )
        outcome = run_protocol(cfg, RandomSource(62))
        assert outcome.abort_reason == "insufficient_pairs"
        assert outcome.check1 is None
        assert outcome.ledger.disposition_counts()["dropped"] == 400

    def test_opaque_completes_with_loss_tolerance(self):
        cfg = config(
            pairs=2000,
            seed=30,
            attack=AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=0.3),
            loss_tolerance=0.5,
        )
        outcome = run_protocol(cfg, RandomSource(30))
        assert outcome.completed
        assert outcome.keys_agree
        assert abs(outcome.ledger.receipt_1 - 0.7) < three_sigma(0.7, 2000)
        counts = outcome.ledger.disposition_counts()
        total = sum(
            counts[k] for k in ("checked-1", "checked-2", "key", "dropped")
        )
        assert total == 2000


class TestRandomizedCheckBasis:
    def test_clean_run_still_error_free(self):
        cfg = config(pairs=400, seed=50, randomize_check_basis=True)
        outcome = run_protocol(cfg, RandomSource(50))
        assert outcome.completed
        assert outcome.check1.error_rate == 0.0
        assert outcome.keys_agree
        assert set(outcome.check1.bases) == {"z", "x"}

    def test_exposes_measure_resend_at_the_first_check(self):
        # Eve's Z collapse randomizes X correlations, so half the X-basis
        # comparisons mismatch: a 25% rate overall.
        cfg = config(
            pairs=4000,
            seed=51,
            attack=AttackStrategy(kind=AttackKind.MEASURE_RESEND),
            randomize_check_basis=True,
        )
        outcome = run_protocol(cfg, RandomSource(51))
        assert abs(outcome.check1.error_rate - 0.25) < 0.05
        assert outcome.abort_reason == "check1_failed"

    def test_fake_epr_rate_unchanged(self):
        cfg = config(
            pairs=4000,
            seed=52,
            attack=AttackStrategy(kind=AttackKind.FAKE_EPR),
            randomize_check_basis=True,
        )
        outcome = run_protocol(cfg, RandomSource(52))
        assert abs(outcome.check1.error_rate - 0.5) < 0.05

    def test_default_is_single_basis(self):
        outcome = run_protocol(config(pairs=100, seed=53), RandomSource(53))
        assert set(outcome.check1.bases) == {"z"}


class TestMultiparty:
    def test_requires_three_parties(self):
        with pytest.raises(ConfigurationError):
            run_multiparty(config(parties=2), RandomSource(0))

    def test_clean_chain_shares_one_key(self):
        cfg = config(pairs=300, seed=31, parties=3)
        outcome = run_multiparty(cfg, RandomSource(31))
        assert outcome.completed
        assert outcome.keys_agree
        assert outcome.alice_key.bits == outcome.bob_key.bits == outcome.clare_key.bits
        assert len(outcome.alice_key.bits) > 0

    def test_key_accounting_against_ledgers(self):
        cfg = RunConfig(pairs=100, seed=32, parties=3)
        outcome = run_multiparty(cfg, RandomSource(32))
        hop2_key_pairs = len(outcome.hop2.receiver_key.source_indices)
        assert len(outcome.clare_key.bits) == 2 * hop2_key_pairs
        # Alice's and Bob's positions refer to first-hop ordinals.
        assert outcome.alice_key.source_indices == outcome.bob_key.source_indices
        hop1_key = set(outcome.hop1.receiver_key.source_indices)
        assert set(outcome.alice_key.source_indices) <= hop1_key

    def test_relay_prepares_its_own_key_bits(self):
        cfg = config(pairs=300, seed=33, parties=3)
        outcome = run_multiparty(cfg, RandomSource(33))
        relayed = "".join(rec.prepared.code for rec in outcome.hop2.ledger.records)
        assert relayed == outcome.hop1.receiver_key.bits

    def test_attack_on_second_hop_is_detected_there(self):
        cfg = config(
            pairs=400,
            seed=34,
            parties=3,
            attack=AttackStrategy(kind=AttackKind.MEASURE_RESEND),
            attack_hop="2",
        )
        outcome = run_multiparty(cfg, RandomSource(34))
        assert outcome.hop1.completed
        assert outcome.abort_reason == "hop2_check2_failed"
        assert outcome.alice_key is None and outcome.clare_key is None

    def test_attack_on_first_hop_only(self):
        cfg = config(
            pairs=400,
            seed=35,
            parties=3,
            attack=AttackStrategy(kind=AttackKind.MEASURE_RESEND),
            attack_hop="1",
        )
        outcome = run_multiparty(cfg, RandomSource(35))
        assert outcome.abort_reason == "check2_failed"
        assert outcome.hop2 is None

    def test_second_hop_shortfall_is_prefixed(self):
        # 40 pairs leave 8 key pairs to relay; the relay's first check
        # consumes all 8.
        outcome = run_multiparty(RunConfig(pairs=40, seed=37, parties=3), RandomSource(37))
        assert outcome.hop1.completed
        assert outcome.abort_reason == "hop2_insufficient_pairs"
        assert outcome.clare_key is None

    def test_transcript_tags_hops(self):
        cfg = config(pairs=200, seed=36, parties=3)
        outcome = run_multiparty(cfg, RandomSource(36))
        hops = {event["payload"].get("hop") for event in outcome.transcript.events}
        assert hops == {1, 2}
        actors = {event["actor"] for event in outcome.transcript.events}
        assert {"alice", "bob", "clare", "public"} <= actors


def assert_hop_finished(hop):
    """Every pair terminal; two key bits per unchecked, undropped pair; an
    abort reason exactly when there is no key."""
    counts = hop.ledger.disposition_counts()
    spent = counts["checked-1"] + counts["checked-2"] + counts["dropped"]
    assert spent + counts["key"] == hop.ledger.n_total
    key_length = len(hop.receiver_key.bits) if hop.receiver_key else 0
    assert key_length == 2 * (hop.ledger.n_total - spent)
    assert (hop.abort_reason is None) == (hop.receiver_key is not None)
    assert (hop.abort_reason is None) == (key_length > 0)


@settings(max_examples=50, deadline=None)
@given(
    kind=st.sampled_from(list(AttackKind)),
    fake_label=st.sampled_from([None, *BELL_LABELS]),
    destroy_probability=st.floats(0.0, 1.0),
    measure_second_sequence=st.booleans(),
    pairs=st.integers(1, 200),
    check_fraction_1=st.floats(0.01, 0.99),
    check_fraction_2=st.floats(0.01, 0.99),
    min_check_size=st.integers(1, 64),
    loss_tolerance=st.floats(0.0, 1.0),
    continuation_mode=st.booleans(),
    randomize_check_basis=st.booleans(),
    parties=st.sampled_from([2, 3]),
    attack_hop=st.sampled_from(["1", "2", "both"]),
    seed=st.integers(0, 2**64 - 1),
)
def test_every_valid_config_finishes_every_trial(
    kind, fake_label, destroy_probability, measure_second_sequence, seed, **fields
):
    attack = AttackStrategy(kind, fake_label, destroy_probability, measure_second_sequence)
    cfg = RunConfig(seed=seed, attack=attack, **fields)
    if cfg.parties == 2:
        outcome = run_protocol(cfg, RandomSource(seed))
        assert outcome.ledger.n_total == cfg.pairs
        assert_hop_finished(outcome)
        return
    outcome = run_multiparty(cfg, RandomSource(seed))
    assert outcome.hop1.ledger.n_total == cfg.pairs
    assert_hop_finished(outcome.hop1)
    if outcome.hop2 is not None:
        assert_hop_finished(outcome.hop2)
    assert (outcome.abort_reason is None) == (outcome.clare_key is not None)
