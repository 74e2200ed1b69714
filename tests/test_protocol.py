import json

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from eprqkd.adversary import AdversaryChannel, AttackKind, AttackStrategy, eve_guess_counts
from eprqkd.config import RunConfig
from eprqkd.errors import ConfigurationError, ProtocolOrderError
from eprqkd.ledger import (
    UNSET,
    CheckReport,
    Disposition,
    KeyMaterial,
    PairLedger,
    Phase,
    Transcript,
    joint_counts,
)
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
from eprqkd.quantum import BELL_LABELS, CODES, BellState, make_bell_state
from eprqkd.rng import RandomSource, three_sigma


# An event line ends where the next begins with this; payloads that hold it
# (in a string, or between dicts keyed "actor" in a list) must not split.
EVENT_BOUNDARY = '},{"actor":'
# Payload values: every JSON scalar kind, text that holds the event boundary,
# lists, dicts, and lists of dicts keyed "actor".
PAYLOAD_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.text().map(lambda text: text + EVENT_BOUNDARY + text),
    lambda children: st.lists(children)
    | st.dictionaries(st.text(), children)
    | st.lists(st.fixed_dictionaries({"actor": children}, optional={"": children})),
    max_leaves=8,
)


def logged_events(transcript):
    """The events a transcript logged, each line parsed back to its dict."""
    return [json.loads(line) for line in transcript.lines]


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

    @pytest.mark.parametrize("bad", [-1, 3.7, "1", 4, 5, None])
    def test_labels_that_are_not_pair_states_rejected(self, bad):
        # Each of these once ran, completed with a key, or raised IndexError
        # or TypeError from deep inside the run.
        with pytest.raises(ConfigurationError):
            run_protocol(config(pairs=40), RandomSource(0), prepared_labels=[bad] * 40)


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
            transmit_second_sequence(ledger, clean_channel(), RunConfig())

    def test_second_transmission_refuses_failed_check(self):
        ledger = alice_prepare(10, RandomSource(4))
        transmit_first_sequence(ledger, clean_channel())
        ledger.check1 = CheckReport("first", (0,), 1, 0.02)
        assert ledger.check1.error_rate == 1.0 and not ledger.check1.passed
        ledger.phase = Phase.CHECKED_1
        ledger.settle([0], Disposition.CHECKED_1)
        with pytest.raises(ProtocolOrderError):
            transmit_second_sequence(ledger, clean_channel(), RunConfig())
        # Study mode is allowed through.
        transmit_second_sequence(ledger, clean_channel(), RunConfig(continuation_mode=True))
        assert ledger.phase is Phase.SENT_2

    def test_the_channel_sees_the_pairs_in_flight(self, monkeypatch):
        channel = clean_channel()
        interpose, seen = channel.interpose, []

        def spy(transmission, ledger):
            seen.append((transmission, ledger.stage))
            return interpose(transmission, ledger)

        monkeypatch.setattr(channel, "interpose", spy)
        ledger = alice_prepare(20, RandomSource(5, "alice"))
        transmit_first_sequence(ledger, channel)
        first_check(ledger, RunConfig(min_check_size=4), RandomSource(5, "bob"))
        transmit_second_sequence(ledger, channel, RunConfig())
        assert seen == [(1, Disposition.IN_FLIGHT_1), (2, Disposition.IN_FLIGHT_2)]

    def test_full_custody_after_second_transmission(self):
        ledger = alice_prepare(20, RandomSource(5, "alice"))
        transmit_first_sequence(ledger, clean_channel())
        report = first_check(ledger, RunConfig(min_check_size=4), RandomSource(5, "bob"))
        transmit_second_sequence(ledger, clean_channel(), RunConfig())
        in_flight = with_disposition(ledger, Disposition.IN_FLIGHT_2)
        assert len(in_flight) == 20 - report.sample_size
        assert ledger.receipt_2 == 1.0
        for rec in in_flight:
            assert rec.carrier == make_bell_state(rec.prepared)
            assert rec.fake_carrier is None


class TestCheckThreshold:
    @pytest.mark.parametrize(
        "mismatches, size, threshold",
        [(1, 4, 0.25), (0, 4, 0.0), (2, 100, 0.02), (4, 4, 1.0)],
    )
    def test_error_rate_equal_to_the_threshold_passes(self, mismatches, size, threshold):
        report = CheckReport("first", tuple(range(size)), mismatches, threshold)
        assert report.error_rate == threshold
        assert report.passed
        assert report.to_dict()["passed"] is True
        # Keyword construction gives the same report and the same summary.
        keyword = CheckReport(
            check_id="first",
            sample_indices=tuple(range(size)),
            mismatches=mismatches,
            threshold=threshold,
        )
        assert keyword == report and keyword.bases == ""
        assert keyword.to_dict() == {
            "sample_size": size,
            "mismatches": mismatches,
            "error_rate": threshold,
            "threshold": threshold,
            "passed": True,
        }
        fields = ["sample_size", "mismatches", "error_rate", "threshold", "passed"]
        assert list(keyword.to_dict()) == fields


class TestFirstCheck:
    def test_clean_run_has_zero_errors(self):
        for seed in (1, 2, 3):
            for n in (40, 200):
                ledger = alice_prepare(n, RandomSource(seed, "alice"))
                transmit_first_sequence(ledger, clean_channel())
                report = first_check(ledger, RunConfig(), RandomSource(seed, "bob"))
                assert report.mismatches == 0
                assert report.error_rate == 0.0
                assert report.passed

    def test_sample_size_honors_fraction_and_minimum(self):
        ledger = alice_prepare(64, RandomSource(6, "alice"))
        transmit_first_sequence(ledger, clean_channel())
        report = first_check(ledger, RunConfig(min_check_size=16), RandomSource(6, "bob"))
        assert report.sample_size == 16

        ledger = alice_prepare(8, RandomSource(6, "alice"))
        transmit_first_sequence(ledger, clean_channel())
        report = first_check(ledger, RunConfig(min_check_size=16), RandomSource(6, "bob"))
        assert report.sample_size == 8  # capped at what exists

    def test_checked_pairs_are_consumed(self):
        ledger = alice_prepare(40, RandomSource(7, "alice"))
        transmit_first_sequence(ledger, clean_channel())
        cfg = RunConfig(check_fraction_1=0.5, min_check_size=4)
        report = first_check(ledger, cfg, RandomSource(7, "bob"))
        checked = {rec.index for rec in with_disposition(ledger, Disposition.CHECKED_1)}
        assert checked == set(report.sample_indices)
        # A column built by spread holds its values at the live pairs, in
        # order, and UNSET at a checked pair.
        values = bytes(j % UNSET for j in range(len(ledger.live)))
        column = ledger.spread(values)
        assert len(column) == ledger.n_total
        assert bytes(column[i] for i in ledger.live) == values
        assert all(column[i] == UNSET for i in checked)
        transmit_second_sequence(ledger, clean_channel(), RunConfig())
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
            first_check(ledger, RunConfig(), RandomSource(8, "bob"))

    def test_fake_epr_mismatch_rate(self):
        chan = AdversaryChannel(
            AttackStrategy(kind=AttackKind.FAKE_EPR), RandomSource(9, "eve")
        )
        ledger = alice_prepare(4000, RandomSource(9, "alice"))
        transmit_first_sequence(ledger, chan)
        report = first_check(ledger, RunConfig(), RandomSource(9, "bob"))
        assert report.sample_size == 1000
        assert abs(report.error_rate - 0.5) < 0.05
        assert not report.passed


class TestDecodeAndSecondCheck:
    def run_to_decode(self, n=60, seed=10, chan_seed=10):
        ledger = alice_prepare(n, RandomSource(seed, "alice"))
        transmit_first_sequence(ledger, clean_channel(chan_seed))
        first_check(ledger, RunConfig(min_check_size=4), RandomSource(seed, "bob"))
        transmit_second_sequence(ledger, clean_channel(chan_seed), RunConfig())
        bob_decode(ledger, RandomSource(seed, "bob-decode"))
        return ledger

    def test_clean_decode_reproduces_preparation(self):
        ledger = self.run_to_decode()
        for rec in with_disposition(ledger, Disposition.DECODED):
            assert rec.outcome is rec.prepared

    def test_second_check_clean(self):
        ledger = self.run_to_decode()
        report = second_check(ledger, RunConfig(min_check_size=4), RandomSource(12, "bob"))
        assert report.error_rate == 0.0
        assert report.passed

    def test_second_check_requires_decode(self):
        ledger = alice_prepare(10, RandomSource(13))
        with pytest.raises(ProtocolOrderError):
            second_check(ledger, RunConfig(), RandomSource(13))

    def test_first_check_requires_first_transmission(self):
        ledger = alice_prepare(10, RandomSource(13))
        with pytest.raises(ProtocolOrderError):
            first_check(ledger, RunConfig(), RandomSource(13))

    def test_decode_requires_second_transmission(self):
        ledger = alice_prepare(10, RandomSource(13))
        transmit_first_sequence(ledger, clean_channel())
        with pytest.raises(ProtocolOrderError):
            bob_decode(ledger, RandomSource(13))

    def test_measure_resend_second_check_rate(self):
        chan = AdversaryChannel(
            AttackStrategy(kind=AttackKind.MEASURE_RESEND), RandomSource(14, "eve")
        )
        ledger = alice_prepare(6000, RandomSource(14, "alice"))
        transmit_first_sequence(ledger, chan)
        report1 = first_check(ledger, RunConfig(), RandomSource(14, "bob"))
        assert report1.error_rate == 0.0  # invisible to the first check
        transmit_second_sequence(ledger, chan, RunConfig())
        bob_decode(ledger, RandomSource(14, "bob-decode"))
        report2 = second_check(ledger, RunConfig(), RandomSource(14, "bob2"))
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


def assert_key_bits_checked_as_per_character(text):
    """KeyMaterial accepts ``text`` (doubled, to give it whole pairs) exactly
    when every character is "0" or "1"."""
    bits = text * 2
    if any(c not in "01" for c in bits):
        with pytest.raises(ValueError, match="key bits must be 0/1 characters"):
            KeyMaterial(bits, tuple(range(len(text))))
    else:
        assert KeyMaterial(bits, tuple(range(len(text)))).bits == bits


class TestKeyMaterial:
    @pytest.mark.parametrize(
        "text", ["", "0", "10", "0 1", "01\n", "012", "\u0660\u0661", "\uff10\uff11"]
    )
    def test_accepts_only_binary_digits(self, text):
        assert_key_bits_checked_as_per_character(text)

    @given(st.text() | st.text(alphabet="01"))
    def test_check_matches_the_per_character_predicate(self, text):
        assert_key_bits_checked_as_per_character(text)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            KeyMaterial("010", (0,))


class TestLedgerColumns:
    def test_records_map_unset_bytes_to_none(self):
        ledger = alice_prepare(40, RandomSource(12, "alice"))
        transmit_first_sequence(ledger, clean_channel())
        report = first_check(ledger, RunConfig(min_check_size=4), RandomSource(12, "bob"))
        # No fake-EPR adversary planted anything, and nothing is decoded yet.
        assert not ledger.planted
        assert all(rec.outcome is None and rec.fake_carrier is None for rec in ledger.records)
        transmit_second_sequence(ledger, clean_channel(), RunConfig())
        bob_decode(ledger, RandomSource(12, "bob"))
        checked = set(report.sample_indices)
        for rec in ledger.records:
            assert rec.fake_carrier is None
            if rec.index in checked:
                assert ledger.outcome[rec.index] == UNSET and rec.outcome is None
            else:
                assert rec.outcome is rec.prepared

    def test_records_map_unplanted_pairs_to_none(self):
        # A planted column set after a check holds UNSET at the checked pairs.
        ledger = alice_prepare(40, RandomSource(13, "alice"))
        transmit_first_sequence(ledger, clean_channel())
        report = first_check(ledger, RunConfig(min_check_size=4), RandomSource(13, "bob"))
        ledger.planted = ledger.spread(bytes([BellState.PSI2]) * len(ledger.live))
        checked = set(report.sample_indices)
        for rec in ledger.records:
            expected = None if rec.index in checked else BellState.PSI2
            assert rec.fake_carrier == expected

    @staticmethod
    def reference_counts(prepared, ys, y_names):
        """Nested counts over the pairs with a y, as a loop over lists."""
        counts = {}
        for x, y in zip(prepared, ys):
            if y is not None:
                row = counts.setdefault(CODES[x], {})
                row[y_names[y]] = row.get(y_names[y], 0) + 1
        return counts

    @given(
        st.sampled_from([CODES, ("0", "1")]).flatmap(
            lambda names: st.tuples(
                st.just(names),
                st.lists(
                    st.tuples(
                        st.integers(0, 3), st.none() | st.integers(0, len(names) - 1)
                    ),
                    max_size=60,
                ),
            )
        )
    )
    def test_byte_joint_counts_match_a_list_reference(self, names_and_pairs):
        names, pairs = names_and_pairs
        prepared = bytes(x for x, _ in pairs)
        ys = [y for _, y in pairs]
        counts = joint_counts(prepared, bytes(UNSET if y is None else y for y in ys), names)
        expected = self.reference_counts(prepared, ys, names)
        # Equal, and in the same order of first appearance.
        assert [(x, list(row.items())) for x, row in counts.items()] == [
            (x, list(row.items())) for x, row in expected.items()
        ]
        assert joint_counts(prepared, b"", names) == {}


class TestRunProtocol:
    def test_clean_run(self):
        outcome = run_protocol(config(pairs=400, seed=20), RandomSource(20))
        assert outcome.completed
        assert outcome.abort_reason is None
        assert outcome.check1.error_rate == 0.0
        assert outcome.check2.error_rate == 0.0
        assert outcome.keys_agree
        assert outcome.receiver_key.bits == outcome.sender_key.bits

    def test_aborted_run_has_no_key_agreement(self):
        cfg = config(pairs=200, seed=20, attack=AttackStrategy(kind=AttackKind.FAKE_EPR))
        outcome = run_protocol(cfg, RandomSource(20))
        assert outcome.abort_reason == "check1_failed"
        assert outcome.receiver_key is outcome.sender_key is None
        assert outcome.keys_agree is None

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

    def test_disposition_counts_match_the_records_at_every_step(self):
        # Live pairs share one stage disposition; the counts must still
        # agree pair by pair with the records, between steps too.
        def assert_counts_match(ledger):
            expected = {d.value: 0 for d in Disposition}
            for rec in ledger.records:
                expected[rec.disposition.value] += 1
            assert ledger.disposition_counts() == expected

        cfg = config(pairs=200, seed=38)
        rng = RandomSource(38)
        bob = rng.substream("bob")
        chan = AdversaryChannel(
            AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=0.1), rng.substream("eve")
        )
        ledger = alice_prepare(cfg.pairs, rng.substream("alice"))
        assert_counts_match(ledger)
        assert ledger.stage is Disposition.PREPARED
        transmit_first_sequence(ledger, chan)
        assert_counts_match(ledger)
        assert ledger.stage is Disposition.IN_FLIGHT_1
        first_check(ledger, cfg, bob)
        assert_counts_match(ledger)
        assert ledger.stage is Disposition.IN_FLIGHT_1
        transmit_second_sequence(ledger, chan, cfg)
        assert_counts_match(ledger)
        assert ledger.stage is Disposition.IN_FLIGHT_2
        bob_decode(ledger, bob)
        assert_counts_match(ledger)
        assert ledger.stage is Disposition.DECODED
        second_check(ledger, cfg, bob)
        assert_counts_match(ledger)
        assert ledger.stage is Disposition.DECODED
        extract_key(ledger)
        assert_counts_match(ledger)
        assert ledger.stage is Disposition.KEY and not ledger.live
        assert ledger.disposition_counts()["dropped"] > 0

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
        outcome = run_protocol(cfg, RandomSource(25), transcript=Transcript())

        rng = RandomSource(25)
        bob = rng.substream("bob")
        channel = AdversaryChannel(cfg.attack, rng.substream("eve"))
        ledger = alice_prepare(cfg.pairs, rng.substream("alice"), transcript=Transcript())
        transmit_first_sequence(ledger, channel)
        first_check(ledger, cfg, bob)
        transmit_second_sequence(ledger, channel, cfg)
        bob_decode(ledger, bob)
        report = second_check(ledger, cfg, bob)
        assert report.passed == (kind is AttackKind.NONE)  # measure-resend fails here
        expected = logged_events(outcome.ledger.transcript)
        if report.passed:
            extract_key(ledger)
        else:
            # Only run_protocol decides to abort, and says so last.
            assert expected[-1]["event"] == "abort"
            expected = expected[:-1]
        assert logged_events(ledger.transcript) == expected

    def test_transcript_replays_bit_for_bit(self):
        cfg = config(pairs=200, seed=24, attack=AttackStrategy(kind=AttackKind.MEASURE_RESEND))

        def jsonl(seed):
            transcript = Transcript()
            run_protocol(cfg, RandomSource(seed), transcript=transcript)
            return transcript.to_jsonl()

        a = jsonl(24)
        b = jsonl(24)
        assert a == b
        c = jsonl(25)
        assert a != c

    def test_nothing_records_a_transcript_unless_asked(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("logged to a transcript nobody asked for")

        monkeypatch.setattr(Transcript, "log", refuse)
        ledger = alice_prepare(10, RandomSource(4))
        assert ledger.transcript is None
        assert prepare_from_labels([BellState.PSI1]).transcript is None
        for kind in AttackKind:
            attack = AttackStrategy(kind=kind)
            outcome = run_protocol(config(pairs=200, seed=38, attack=attack), RandomSource(38))
            assert outcome.ledger.transcript is None
            for parties in (2, 3):
                cfg = config(pairs=200, seed=38, attack=attack, parties=parties)
                outcome = run_multiparty(cfg, 1)
                assert all(hop.ledger.transcript is None for hop in outcome.hops)

    @settings(max_examples=100, deadline=None)
    @given(
        trial=st.integers(0, 2**64),
        extra=st.dictionaries(st.text(), PAYLOAD_VALUES, max_size=3),
        events=st.lists(
            st.tuples(
                st.integers(0, 9),
                st.text(),
                st.text(),
                st.none() | st.dictionaries(st.text() | st.just("actor"), PAYLOAD_VALUES),
            ),
            max_size=4,
        ),
    )
    @example(
        trial=3,
        extra={"hop": 2, "relay": "b\u00f6b"},
        events=[
            (1, "alice", "prepare", {"note": "caf\u00e9 \u03c8\u207a \u9375"}),
            (2, "bob", "check", {"rate": 0.1 + 0.2, "tiny": 5e-324, "big": 1e300}),
            (3, "eve", "guess", {"missing": None, "inf": float("inf")}),
            (4, "clare", "nest", {"z": {"b": [1, 2.5, None], "a": {"\u00e9": -0.0}}}),
            (5, "alice", "done", None),
        ],
    )
    def test_jsonl_matches_per_event_dumps(self, trial, extra, events):
        transcript = Transcript(trial=trial, extra=extra)
        for step, actor, event, payload in events:
            transcript.log(step, actor, event, payload)
        expected = "".join(
            json.dumps(
                {
                    "trial": trial,
                    "step": step,
                    "actor": actor,
                    "event": event,
                    "payload": {**extra, **(payload or {})},
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
            for step, actor, event, payload in events
        )
        assert transcript.to_jsonl() == expected

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
        report = first_check(ledger, RunConfig(min_check_size=4), RandomSource(60, "bob"))
        destroyer = AdversaryChannel(
            AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=1.0),
            RandomSource(60, "eve"),
        )
        transmit_second_sequence(ledger, destroyer, RunConfig())
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
        assert outcome.ledger.receipt_2 == 1.0  # nothing sent, nothing missed
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
    @staticmethod
    def announced_bases(outcome):
        (event,) = (
            e
            for e in logged_events(outcome.ledger.transcript)
            if e["event"] == "measure_check_sample"
        )
        return event["payload"]["bases"]

    def test_clean_run_still_error_free(self):
        cfg = config(pairs=400, seed=50, randomize_check_basis=True)
        outcome = run_protocol(cfg, RandomSource(50), transcript=Transcript())
        assert outcome.completed
        assert outcome.check1.error_rate == 0.0
        assert outcome.keys_agree
        assert set(outcome.check1.bases) == {"z", "x"}
        # The report holds the announced string itself.
        assert outcome.check1.bases == self.announced_bases(outcome)

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
        cfg = config(pairs=100, seed=53)
        outcome = run_protocol(cfg, RandomSource(53), transcript=Transcript())
        assert set(outcome.check1.bases) == {"z"}
        assert outcome.check1.bases == self.announced_bases(outcome)
        assert outcome.check1.bases == "z" * outcome.check1.sample_size


class TestMultiparty:
    def test_two_parties_run_one_hop_of_run_protocol(self):
        cases = ((AttackStrategy(), None), (AttackStrategy(AttackKind.FAKE_EPR), "check1_failed"))
        for attack, reason in cases:
            cfg = config(pairs=200, seed=30, attack=attack)
            single = run_protocol(cfg, RandomSource(30 ^ 2), transcript=Transcript(2))
            outcome = run_multiparty(cfg, 2, collect_transcripts=True)
            (hop,) = outcome.hops
            assert logged_events(hop.ledger.transcript) == logged_events(single.ledger.transcript)
            assert outcome.abort_reason == single.abort_reason == reason
            keys = [single.sender_key, single.receiver_key] if reason is None else None
            assert outcome.keys == keys

    def test_clean_chain_shares_one_key(self):
        cfg = config(pairs=300, seed=31, parties=3)
        outcome = run_multiparty(cfg)
        assert outcome.completed
        assert outcome.keys_agree
        assert outcome.keys[0].bits == outcome.keys[1].bits == outcome.keys[-1].bits
        assert len(outcome.keys[0].bits) > 0

    def test_key_accounting_against_ledgers(self):
        cfg = RunConfig(pairs=100, seed=32, parties=3)
        outcome = run_multiparty(cfg)
        hop2_key_pairs = len(outcome.hops[1].receiver_key.source_indices)
        assert len(outcome.keys[-1].bits) == 2 * hop2_key_pairs
        # Every party's positions refer to first-hop ordinals.
        assert (
            outcome.keys[0].source_indices
            == outcome.keys[1].source_indices
            == outcome.keys[2].source_indices
        )
        hop1_key = set(outcome.hops[0].receiver_key.source_indices)
        assert set(outcome.keys[0].source_indices) <= hop1_key

    def test_relay_prepares_its_own_key_bits(self):
        cfg = config(pairs=300, seed=33, parties=3)
        outcome = run_multiparty(cfg)
        relayed = "".join(rec.prepared.code for rec in outcome.hops[1].ledger.records)
        assert relayed == outcome.hops[0].receiver_key.bits

    def test_attack_on_second_hop_is_detected_there(self):
        cfg = config(
            pairs=400,
            seed=34,
            parties=3,
            attack=AttackStrategy(kind=AttackKind.MEASURE_RESEND),
            attack_hop="2",
        )
        outcome = run_multiparty(cfg)
        assert outcome.hops[0].completed
        assert outcome.abort_reason == "hop2_check2_failed"
        assert outcome.keys is None

    def test_attack_on_first_hop_only(self):
        cfg = config(
            pairs=400,
            seed=35,
            parties=3,
            attack=AttackStrategy(kind=AttackKind.MEASURE_RESEND),
            attack_hop="1",
        )
        outcome = run_multiparty(cfg)
        assert outcome.abort_reason == "check2_failed"
        assert len(outcome.hops) == 1

    def test_second_hop_shortfall_is_prefixed(self):
        # 40 pairs leave 8 key pairs to relay; the relay's first check
        # consumes all 8.
        outcome = run_multiparty(RunConfig(pairs=40, seed=37, parties=3))
        assert outcome.hops[0].completed
        assert outcome.abort_reason == "hop2_insufficient_pairs"
        assert outcome.keys is None

    def test_transcript_tags_hops(self):
        cfg = config(pairs=200, seed=36, parties=3)
        outcome = run_multiparty(cfg, collect_transcripts=True)
        events = [event for hop in outcome.hops for event in logged_events(hop.ledger.transcript)]
        hops = {event["payload"].get("hop") for event in events}
        assert hops == {1, 2}
        actors = {event["actor"] for event in events}
        assert {"alice", "bob", "clare", "public"} <= actors


def assert_hop_finished(hop):
    """Every pair terminal; two key bits per unchecked, undropped pair; an
    abort reason exactly when there is no key; each column a step fills at
    the live pairs empty or whole, and Eve scored on exactly her guesses."""
    ledger = hop.ledger
    counts = ledger.disposition_counts()
    spent = counts["checked-1"] + counts["checked-2"] + counts["dropped"]
    assert spent + counts["key"] == ledger.n_total
    key_length = len(hop.receiver_key.bits) if hop.receiver_key else 0
    assert key_length == 2 * (ledger.n_total - spent)
    assert (hop.abort_reason is None) == (hop.receiver_key is not None)
    assert (hop.abort_reason is None) == (key_length > 0)
    for column in (ledger.planted, ledger.outcome, ledger.guesses):
        assert len(column) in (0, ledger.n_total)
    assert (ledger.receiver_state is ledger.planted) == bool(ledger.planted)
    scored = sum(n for row in eve_guess_counts(ledger).values() for n in row.values())
    assert scored == len(ledger.guesses) - ledger.guesses.count(UNSET)


# Two-party measure-resend runs on hop 1 with min_check_size=1 whose small
# checks pass by chance, and the key bits each completes with. An attack that
# alters a delivered pair's state can go unseen by a small check; the keys
# then disagree, which is what the checks' sizes trade against.
UNSEEN_ATTACKS = [
    ({"pairs": 62, "check_fraction_2": 0.0625, "seed": 0}, 86),
    ({"pairs": 76, "check_fraction_1": 0.6875, "check_fraction_2": 0.125, "seed": 1}, 40),
]


@pytest.mark.parametrize("fields, key_bits", UNSEEN_ATTACKS)
def test_unseen_attack_completes_with_disagreeing_keys(fields, key_bits):
    attack = AttackStrategy(kind=AttackKind.MEASURE_RESEND)
    cfg = RunConfig(attack=attack, min_check_size=1, attack_hop="1", **fields)
    outcome = run_multiparty(cfg)
    assert outcome.completed
    assert outcome.keys_agree is False
    assert [len(key.bits) for key in outcome.keys] == [key_bits, key_bits]


# The property's other arguments for UNSEEN_ATTACKS: their fixed fields and
# RunConfig's defaults.
UNSEEN_ARGUMENTS = {
    "kind": AttackKind.MEASURE_RESEND,
    "fake_label": BellState.PSI1,
    "destroy_probability": 0.0,
    "measure_second_sequence": False,
    "check_fraction_1": 0.25,
    "min_check_size": 1,
    "loss_tolerance": 0.0,
    "continuation_mode": False,
    "randomize_check_basis": False,
    "parties": 2,
    "attack_hop": "1",
}


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
@example(**{**UNSEEN_ARGUMENTS, **UNSEEN_ATTACKS[0][0]})
@example(**{**UNSEEN_ARGUMENTS, **UNSEEN_ATTACKS[1][0]})
def test_every_valid_config_finishes_every_trial(
    kind, fake_label, destroy_probability, measure_second_sequence, seed, **fields
):
    # A two-party run has no second hop to attack; RunConfig rejects it.
    assume(not (fields["parties"] == 2 and fields["attack_hop"] == "2"))
    attack = AttackStrategy(kind, fake_label, destroy_probability, measure_second_sequence)
    cfg = RunConfig(seed=seed, attack=attack, **fields)
    outcome = run_multiparty(cfg)
    assert 1 <= len(outcome.hops) <= cfg.parties - 1
    assert outcome.hops[0].ledger.n_total == cfg.pairs
    for k, hop in enumerate(outcome.hops):
        assert_hop_finished(hop)
        # A later hop runs only after the one before it completed.
        assert k == 0 or outcome.hops[k - 1].completed
    assert (outcome.abort_reason is None) == (outcome.keys is not None)
    if outcome.keys is not None:
        assert len(outcome.hops) == len(outcome.keys) - 1 == cfg.parties - 1
        assert len({len(key.bits) for key in outcome.keys}) == 1
        assert len({key.source_indices for key in outcome.keys}) == 1
        # Only an attack that leaves every delivered pair's state alone
        # guarantees agreement; another can pass small checks by chance
        # (UNSEEN_ATTACKS).
        if kind in (AttackKind.NONE, AttackKind.OPAQUE):
            assert outcome.keys_agree
