import hashlib
import importlib
import json
import json.encoder
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import eprqkd.ledger
import eprqkd.protocol
import object_engine
from eprqkd.adversary import AdversaryChannel, AttackKind, AttackStrategy, eve_guess_counts
from eprqkd.config import RunConfig
from eprqkd.errors import ConfigurationError, ProtocolOrderError
from eprqkd.ledger import (
    Batch,
    CheckReport,
    Disposition,
    PairLedger,
    Phase,
    Transcript,
    code_string,
    gather,
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
from eprqkd.quantum import BELL_LABELS, CODES, N_STATES, BellState, make_bell_state
from eprqkd.rng import RandomSource, three_sigma
from eprqkd.runner import run
from test_differential import ATTACKS, engine_grid, settled_ordinals


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
    return AdversaryChannel(AttackStrategy(), [RandomSource(seed, "eve")])


def one_trial(n, rng, transcript=None):
    """A batch of one trial of n pairs drawn from ``rng``, and its ledger."""
    batch = alice_prepare(n, [rng], [transcript])
    return batch, batch.ledgers[0]


def from_labels(labels):
    """A batch of one trial prepared in ``labels``, and its ledger."""
    batch = prepare_from_labels([labels])
    return batch, batch.ledgers[0]


# The events of a hop's sender's steps and of its receiver's steps.
SENDER_EVENTS = {"prepare", "send", "measure_partner_sample"}
RECEIVER_EVENTS = {"receive", "measure_check_sample", "notify", "decode"}


def party_actors(transcript) -> tuple[set[str], set[str]]:
    """The actors of a transcript's sender events and of its receiver events."""
    events = logged_events(transcript)
    sender = {event["actor"] for event in events if event["event"] in SENDER_EVENTS}
    receiver = {event["actor"] for event in events if event["event"] in RECEIVER_EVENTS}
    return sender, receiver


def config(**kwargs):
    return RunConfig(**{"pairs": 400, "seed": 0, **kwargs})


def sender_key(outcome):
    """The sender's key of a completed run: her prepared codes at the
    receiver's key pairs."""
    return sender_key_material(outcome.ledger)


def with_disposition(ledger, disposition):
    return [rec for rec in ledger.records if rec.disposition is disposition]


def reference_keys(hops) -> list[bytes]:
    """Every party's key codes of a completed trial, read from the hops'
    pair records: with K1 the first hop's KEY ordinals and K2 a chain's
    second-hop ones, the first sender's key is her prepared codes at K1
    (at K1[j] for j in K2 in a chain), the relay's is hop 2's prepared
    codes at K2, and the last receiver's is its decode results at its own
    KEY ordinals."""
    records = [hop.ledger.records for hop in hops]
    key = Disposition.KEY
    ordinals = [[rec.index for rec in recs if rec.disposition is key] for recs in records]
    sender = [records[0][i].prepared for i in ordinals[0]]
    keys = [sender]
    if len(hops) == 2:
        keys = [[sender[j] for j in ordinals[1]], [records[1][j].prepared for j in ordinals[1]]]
    keys.append([records[-1][i].outcome for i in ordinals[-1]])
    return [bytes(key) for key in keys]


class TestPrepare:
    def test_structure(self):
        _, ledger = one_trial(4, RandomSource(1, "alice"))
        assert len(ledger.prepared) == 4
        assert [rec.index for rec in ledger.records] == [0, 1, 2, 3]
        assert ledger.phase is Phase.CREATED and ledger.receipt_1 is None
        for rec in ledger.records:
            assert rec.disposition is Disposition.PREPARED
            assert rec.carrier == make_bell_state(rec.prepared)
            assert rec.fake_carrier is None

    def test_single_pair(self):
        _, ledger = one_trial(1, RandomSource(2))
        assert len(ledger.prepared) == 1
        assert ledger.records[0].disposition is Disposition.PREPARED

    def test_zero_pairs_rejected(self):
        with pytest.raises(ConfigurationError):
            alice_prepare(0, [RandomSource(0)])
        with pytest.raises(ConfigurationError):
            prepare_from_labels([[]])

    def test_labels_drawn_uniformly(self):
        n = 100_000
        _, ledger = one_trial(n, RandomSource(3, "alice"))
        for label in BELL_LABELS:
            freq = sum(1 for rec in ledger.records if rec.prepared is label) / n
            assert abs(freq - 0.25) < 0.01  # 3 sigma is about 0.004

    def test_prepare_from_labels_preserves_order(self):
        labels = [BellState.PSI4, BellState.PSI1, BellState.PSI3]
        _, ledger = from_labels(labels)
        assert [rec.prepared for rec in ledger.records] == labels

    @pytest.mark.parametrize("bad", [-1, 3.7, "1", 4, 5, None, True])
    def test_labels_that_are_not_pair_states_rejected(self, bad):
        # Each of these once ran, completed with a key, or raised IndexError
        # or TypeError from deep inside the run.
        with pytest.raises(ConfigurationError):
            run_protocol(config(pairs=40), RandomSource(0), prepared_labels=[bad] * 40)


class TestTransmissions:
    def test_first_transmission_moves_custody(self):
        batch, ledger = one_trial(10, RandomSource(4, "alice"))
        transmit_first_sequence(batch, clean_channel())
        assert all(rec.disposition is Disposition.IN_FLIGHT_1 for rec in ledger.records)
        assert all(rec.carrier == make_bell_state(rec.prepared) for rec in ledger.records)
        assert ledger.receipt_1 == 1.0
        assert ledger.phase is Phase.SENT_1

    def test_first_transmission_requires_created_phase(self):
        batch, _ = one_trial(10, RandomSource(4))
        transmit_first_sequence(batch, clean_channel())
        with pytest.raises(ProtocolOrderError):
            transmit_first_sequence(batch, clean_channel())

    def test_second_transmission_requires_first_check(self):
        batch, _ = one_trial(10, RandomSource(4))
        transmit_first_sequence(batch, clean_channel())
        with pytest.raises(ProtocolOrderError):
            transmit_second_sequence(batch, clean_channel(), RunConfig())

    def test_second_transmission_refuses_failed_check(self):
        batch, ledger = one_trial(10, RandomSource(4))
        transmit_first_sequence(batch, clean_channel())
        ledger.check1 = CheckReport(1, 1, 0.02)
        assert ledger.check1.error_rate == 1.0 and not ledger.check1.passed
        ledger.phase = Phase.CHECKED_1
        batch.settle(b"\x01" + bytes(9), Disposition.CHECKED_1)
        with pytest.raises(ProtocolOrderError):
            transmit_second_sequence(batch, clean_channel(), RunConfig())
        # Study mode is allowed through.
        transmit_second_sequence(batch, clean_channel(), RunConfig(continuation_mode=True))
        assert ledger.phase is Phase.SENT_2

    def test_the_channel_sees_the_pairs_in_flight(self, monkeypatch):
        channel = clean_channel()
        interpose, seen = channel.interpose, []

        def spy(transmission, batch):
            seen.append((transmission, batch.ledgers[0].stage))
            return interpose(transmission, batch)

        monkeypatch.setattr(channel, "interpose", spy)
        batch, _ = one_trial(20, RandomSource(5, "alice"))
        transmit_first_sequence(batch, channel)
        first_check(batch, RunConfig(min_check_size=4), [RandomSource(5, "bob")])
        transmit_second_sequence(batch, channel, RunConfig())
        assert seen == [(1, Disposition.IN_FLIGHT_1), (2, Disposition.IN_FLIGHT_2)]

    def test_full_custody_after_second_transmission(self):
        batch, ledger = one_trial(20, RandomSource(5, "alice"))
        transmit_first_sequence(batch, clean_channel())
        (report,) = first_check(batch, RunConfig(min_check_size=4), [RandomSource(5, "bob")])
        transmit_second_sequence(batch, clean_channel(), RunConfig())
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
        report = CheckReport(size, mismatches, threshold)
        assert report._fields == ("sample_size", "mismatches", "threshold")
        assert report.error_rate == threshold
        assert report.passed
        assert report.to_dict()["passed"] is True
        # Keyword construction gives the same report and the same summary.
        keyword = CheckReport(sample_size=size, mismatches=mismatches, threshold=threshold)
        assert keyword == report
        assert keyword.to_dict() == {
            "sample_size": size,
            "mismatches": mismatches,
            "error_rate": threshold,
            "threshold": threshold,
            "passed": True,
        }
        fields = ["sample_size", "mismatches", "error_rate", "threshold", "passed"]
        assert list(keyword.to_dict()) == fields

    @given(
        st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
        st.none() | st.floats(0.0, 1.0),
    )
    @example((4, 1), None)
    @example((3, 1), None)
    def test_summary_is_what_the_properties_read(self, size_and_mismatches, threshold):
        size, mismatches = size_and_mismatches
        # None stands for a threshold exactly at the error rate.
        threshold = mismatches / size if threshold is None else threshold
        report = CheckReport(size, mismatches, threshold)
        summary = {
            "sample_size": report.sample_size,
            "mismatches": report.mismatches,
            "error_rate": report.error_rate,
            "threshold": report.threshold,
            "passed": report.passed,
        }
        assert report.to_dict() == summary
        assert list(report.to_dict().items()) == list(summary.items())


class TestFirstCheck:
    def test_clean_run_has_zero_errors(self):
        for seed in (1, 2, 3):
            for n in (40, 200):
                batch, _ = one_trial(n, RandomSource(seed, "alice"))
                transmit_first_sequence(batch, clean_channel())
                (report,) = first_check(batch, RunConfig(), [RandomSource(seed, "bob")])
                assert report.mismatches == 0
                assert report.error_rate == 0.0
                assert report.passed

    def test_sample_size_honors_fraction_and_minimum(self):
        batch, _ = one_trial(64, RandomSource(6, "alice"))
        transmit_first_sequence(batch, clean_channel())
        (report,) = first_check(batch, RunConfig(min_check_size=16), [RandomSource(6, "bob")])
        assert report.sample_size == 16

        batch, _ = one_trial(8, RandomSource(6, "alice"))
        transmit_first_sequence(batch, clean_channel())
        (report,) = first_check(batch, RunConfig(min_check_size=16), [RandomSource(6, "bob")])
        assert report.sample_size == 8  # capped at what exists

    def test_checked_pairs_are_consumed(self):
        batch, ledger = one_trial(40, RandomSource(7, "alice"))
        transmit_first_sequence(batch, clean_channel())
        cfg = RunConfig(check_fraction_1=0.5, min_check_size=4)
        (report,) = first_check(batch, cfg, [RandomSource(7, "bob")])
        checked = {rec.index for rec in with_disposition(ledger, Disposition.CHECKED_1)}
        assert checked == set(settled_ordinals(ledger, Disposition.CHECKED_1))
        assert len(checked) == report.sample_size
        # A column holds a byte per live pair, in order: the prepared codes
        # at the live ordinals, and a filled column's values, which the
        # records show at the live pairs and nowhere else.
        live = ledger.ordinals()[0][-1]
        assert ledger.live == len(live) == 40 - len(checked)
        assert batch.column("prepared") == bytes(ledger.prepared[i] for i in live)
        values = bytes(j % 4 for j in range(ledger.live))
        batch.fill("outcome", values, CODES)
        outcomes = {rec.index: rec.outcome for rec in ledger.records}
        assert [outcomes[i] for i in live] == [BELL_LABELS[v] for v in values]
        assert all(outcomes[i] is None for i in checked)
        transmit_second_sequence(batch, clean_channel(), RunConfig())
        in_flight = {rec.index for rec in with_disposition(ledger, Disposition.IN_FLIGHT_2)}
        assert in_flight.isdisjoint(checked)

    def test_no_available_pairs_is_a_configuration_error(self):
        chan = AdversaryChannel(
            AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=1.0),
            [RandomSource(8, "eve")],
        )
        batch, _ = one_trial(10, RandomSource(8, "alice"))
        transmit_first_sequence(batch, chan)
        with pytest.raises(ConfigurationError):
            first_check(batch, RunConfig(), [RandomSource(8, "bob")])

    def test_fake_epr_mismatch_rate(self):
        chan = AdversaryChannel(
            AttackStrategy(kind=AttackKind.FAKE_EPR), [RandomSource(9, "eve")]
        )
        batch, _ = one_trial(4000, RandomSource(9, "alice"))
        transmit_first_sequence(batch, chan)
        (report,) = first_check(batch, RunConfig(), [RandomSource(9, "bob")])
        assert report.sample_size == 1000
        assert abs(report.error_rate - 0.5) < 0.05
        assert not report.passed


class TestDecodeAndSecondCheck:
    def run_to_decode(self, n=60, seed=10, chan_seed=10):
        batch, _ = one_trial(n, RandomSource(seed, "alice"))
        transmit_first_sequence(batch, clean_channel(chan_seed))
        first_check(batch, RunConfig(min_check_size=4), [RandomSource(seed, "bob")])
        transmit_second_sequence(batch, clean_channel(chan_seed), RunConfig())
        bob_decode(batch, [RandomSource(seed, "bob-decode")])
        return batch

    def test_clean_decode_reproduces_preparation(self):
        (ledger,) = self.run_to_decode().ledgers
        for rec in with_disposition(ledger, Disposition.DECODED):
            assert rec.outcome is rec.prepared

    def test_second_check_clean(self):
        batch = self.run_to_decode()
        (report,) = second_check(batch, RunConfig(min_check_size=4), [RandomSource(12, "bob")])
        assert report.error_rate == 0.0
        assert report.passed

    def test_second_check_requires_decode(self):
        batch, _ = one_trial(10, RandomSource(13))
        with pytest.raises(ProtocolOrderError):
            second_check(batch, RunConfig(), [RandomSource(13)])

    def test_first_check_requires_first_transmission(self):
        batch, _ = one_trial(10, RandomSource(13))
        with pytest.raises(ProtocolOrderError):
            first_check(batch, RunConfig(), [RandomSource(13)])

    def test_decode_requires_second_transmission(self):
        batch, _ = one_trial(10, RandomSource(13))
        transmit_first_sequence(batch, clean_channel())
        with pytest.raises(ProtocolOrderError):
            bob_decode(batch, [RandomSource(13)])

    def test_measure_resend_second_check_rate(self):
        chan = AdversaryChannel(
            AttackStrategy(kind=AttackKind.MEASURE_RESEND), [RandomSource(14, "eve")]
        )
        batch, ledger = one_trial(6000, RandomSource(14, "alice"))
        transmit_first_sequence(batch, chan)
        (report1,) = first_check(batch, RunConfig(), [RandomSource(14, "bob")])
        assert report1.error_rate == 0.0  # invisible to the first check
        transmit_second_sequence(batch, chan, RunConfig())
        bob_decode(batch, [RandomSource(14, "bob-decode")])
        (report2,) = second_check(batch, RunConfig(), [RandomSource(14, "bob2")])
        assert abs(report2.error_rate - 0.5) < 0.05
        assert not report2.passed
        # Mismatches never leave the prepared state's parity class.
        for rec in ledger.records:
            if rec.outcome is not None:
                assert rec.outcome.correlated == rec.prepared.correlated


class TestExtractKey:
    def synthetic_decoded_batch(self, labels):
        batch, ledger = from_labels(labels)
        batch.fill("outcome", bytes(ledger.prepared), CODES)
        ledger.phase = Phase.CHECKED_2
        ledger.check1 = CheckReport(1, 0, 0.02)
        ledger.check2 = CheckReport(1, 0, 0.02)
        return batch, ledger

    def test_key_is_code_concatenation_in_order(self):
        batch, ledger = self.synthetic_decoded_batch(
            [BellState.PSI1, BellState.PSI3, BellState.PSI4]
        )
        (key,) = extract_key(batch)
        assert code_string(key) == "001011"
        assert ledger.settled == [(0, Disposition.KEY)]
        assert ledger.ordinals()[1] == [([0, 1, 2], Disposition.KEY)]

    def test_sender_key_matches_prepared_codes(self):
        batch, ledger = self.synthetic_decoded_batch([BellState.PSI2, BellState.PSI2])
        extract_key(batch)
        assert code_string(sender_key_material(ledger)) == "0101"

    def test_refuses_failed_checks(self):
        batch, ledger = self.synthetic_decoded_batch([BellState.PSI1])
        ledger.check2 = CheckReport(2, 1, 0.02)
        with pytest.raises(ProtocolOrderError):
            extract_key(batch)

    def test_refuses_wrong_phase(self):
        batch, _ = from_labels([BellState.PSI1])
        with pytest.raises(ProtocolOrderError):
            extract_key(batch)


class TestKeyMaterial:
    """A key is the bytes of its pair codes, one 0-3 per key pair, and
    ``code_string`` spells its bits."""

    @pytest.mark.parametrize(
        "text", ["", "0", "10", "0 1", "01\n", "012", "\u0660\u0661", "\uff10\uff11"]
    )
    def test_accepts_only_binary_digits(self, text):
        # A key's bits are 2 per pair: ``text`` doubled is the bits of some
        # key of len(text) pairs exactly when every character is "0" or "1".
        n = len(text)
        keys = map(bytes, product(range(4), repeat=n))
        assert (text * 2 in {code_string(key) for key in keys}) == all(c in "01" for c in text)


# Every phase in order, with the disposition each live pair has in it: a
# transmission's phase is set before the channel acts, and none is live once
# the run is DONE.
PHASE_STAGES = [
    (Phase.CREATED, Disposition.PREPARED),
    (Phase.SENT_1, Disposition.IN_FLIGHT_1),
    (Phase.CHECKED_1, Disposition.IN_FLIGHT_1),
    (Phase.SENT_2, Disposition.IN_FLIGHT_2),
    (Phase.DECODED, Disposition.DECODED),
    (Phase.CHECKED_2, Disposition.DECODED),
    (Phase.DONE, Disposition.KEY),
]


def test_each_phase_names_the_stage_of_its_live_pairs():
    assert [phase for phase, _ in PHASE_STAGES] == list(Phase)
    ledger = PairLedger(bytes(4))
    for phase, stage in PHASE_STAGES:
        ledger.phase = phase
        assert ledger.stage is stage
        assert ledger.disposition_counts()[stage.value] == 4


@pytest.mark.parametrize("indices", [[], [3], (0, 4, 1), [2, 2]])
@pytest.mark.parametrize("kind", [bytes, list, tuple])
def test_gather_and_pick_read_the_items_at_indices_in_order(kind, indices):
    items = kind(b"\x05\x06\x07\x08\x09")
    # gather reads a column's bytes at the 1s of a 0/1 mask, in order: it
    # picks the items at the mask's indices, each once, ascending.
    mask = bytes(i in indices for i in range(len(items)))
    assert gather(bytes(items), mask) == bytes(items[i] for i in sorted(set(indices)))


def test_gather_keeps_every_code_below_0x80():
    codes = bytes(range(0x80))
    assert gather(codes, b"\x01" * 0x80) == codes
    assert gather(codes, b"\x00\x01" * 0x40) == codes[1::2]
    assert gather(b"", b"") == b""


def loop_settle(live, taken):
    """A settle as a scalar loop over positions in ``live``: the ordinals at
    the 1s of ``taken``, and the ordinals left live, both in order."""
    ordinals, kept = [], []
    for j in range(len(live)):
        (ordinals if taken[j] else kept).append(live[j])
    return ordinals, kept


TERMINAL = [Disposition.CHECKED_1, Disposition.CHECKED_2, Disposition.KEY, Disposition.DROPPED]


@pytest.mark.parametrize("last", ["mask", "all", None])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_mask_settle_matches_a_positional_loop(last, data):
    # A ledger, with or without a transcript, takes 0-3 cuts, each after an
    # optional fill of its state and guess columns and each read or not
    # before the next, then one last settle: a random mask, every live pair
    # by mask (k = m), or None. After every settle, what it returns, its log
    # entry, every settle's rebuilt ordinals, the live count and ordinals,
    # the disposition counts and the records must be what a loop over
    # positions, kept per ordinal, gives; at the end, so must the columns of
    # a batch of one that took the same fills and settles.
    codes = st.integers(0, N_STATES - 1)
    n = data.draw(st.integers(1, 30), label="pairs")
    prepared = data.draw(st.binary(min_size=n, max_size=n).map(lambda b: bytes(c & 3 for c in b)))
    transcript = Transcript() if data.draw(st.booleans(), label="transcript") else None
    ledger = PairLedger(prepared, transcript)
    batch = Batch([PairLedger(prepared)])
    live, fates, settles = list(range(n)), {}, []
    state, guesses = dict(enumerate(prepared)), {}

    def settle(taken, disposition):
        cuts = sum(1 for _, _, mask in settles if mask is not None)
        returned = ledger.settle(taken, disposition)
        batch.settle(taken, disposition)
        # One fixed-size entry: the cuts before the settle and its disposition.
        assert ledger.settled[-1] == (cuts, disposition)
        expected, kept = (list(live), []) if taken is None else loop_settle(live, taken)
        # A partial settle returns its pairs' ordinals for a transcript to
        # log; a whole settle, or a ledger that keeps no transcript, None.
        assert returned == (None if taken is None or transcript is None else tuple(expected))
        live[:] = kept
        fates.update(dict.fromkeys(expected, disposition))
        settles.append((expected, disposition, taken))
        assert ledger.ordinals()[1] == [(ordinals, fate) for ordinals, fate, _ in settles]
        assert ledger.live == len(live)
        if taken is not None:  # a whole settle cuts nothing
            assert ledger.ordinals()[0][-1] == live
        counts = dict.fromkeys((d.value for d in Disposition), 0)
        for i in range(n):
            counts[fates.get(i, ledger.stage).value] += 1
        assert ledger.disposition_counts() == counts
        records = [(r.index, r.prepared, r.disposition, r.carrier, r.guess) for r in ledger.records]
        assert records == [
            (i, BELL_LABELS[prepared[i]], fates.get(i, ledger.stage), state[i], guesses.get(i))
            for i in range(n)
        ]

    for _ in range(data.draw(st.integers(0, 3), label="cuts")):
        if data.draw(st.booleans(), label="fill state"):
            fill = data.draw(st.lists(codes, min_size=len(live), max_size=len(live)))
            ledger.fill("state", ledger.cut(prepared), bytes(fill))
            batch.fill("state", bytes(fill))
            state.update(zip(live, fill))
        if data.draw(st.booleans(), label="fill guesses"):
            fill = data.draw(st.lists(st.integers(0, 1), min_size=len(live), max_size=len(live)))
            ledger.fill("guesses", ledger.cut(prepared), bytes(fill), ("0", "1"))
            batch.fill("guesses", bytes(fill), ("0", "1"))
            guesses = dict(zip(live, fill))
        taken = data.draw(st.binary(min_size=len(live), max_size=len(live)))
        settle(bytes(b & 1 for b in taken), data.draw(st.sampled_from(TERMINAL)))
        if data.draw(st.booleans(), label="read"):
            assert batch.column("state") == bytes(state[i] for i in live)
    if last == "mask":
        taken = data.draw(st.binary(min_size=len(live), max_size=len(live)))
        settle(bytearray(b & 1 for b in taken), Disposition.CHECKED_2)
    else:
        settle(b"\x01" * len(live) if last else None, Disposition.KEY)

    assert batch.column("prepared") == bytes(prepared[i] for i in live)
    assert batch.column("state") == bytes(state[i] for i in live)
    if batch.filled("guesses"):
        assert batch.column("guesses") == bytes(guesses[i] for i in live)


class TestLedgerColumns:
    def test_records_map_unset_bytes_to_none(self):
        batch, ledger = one_trial(40, RandomSource(12, "alice"))
        transmit_first_sequence(batch, clean_channel())
        (report,) = first_check(batch, RunConfig(min_check_size=4), [RandomSource(12, "bob")])
        # No fake-EPR adversary planted anything, and nothing is decoded yet.
        assert not batch.filled("planted")
        assert all(rec.outcome is None and rec.fake_carrier is None for rec in ledger.records)
        transmit_second_sequence(batch, clean_channel(), RunConfig())
        bob_decode(batch, [RandomSource(12, "bob")])
        checked = set(settled_ordinals(ledger, Disposition.CHECKED_1))
        assert len(checked) == report.sample_size
        for rec in ledger.records:
            assert rec.fake_carrier is None
            if rec.index in checked:
                assert rec.outcome is None
            else:
                assert rec.outcome is rec.prepared

    def test_records_map_unplanted_pairs_to_none(self):
        # A planted column filled after a check leaves the checked pairs out.
        batch, ledger = one_trial(40, RandomSource(13, "alice"))
        transmit_first_sequence(batch, clean_channel())
        (report,) = first_check(batch, RunConfig(min_check_size=4), [RandomSource(13, "bob")])
        batch.fill("planted", bytes([BellState.PSI2]) * ledger.live)
        checked = set(settled_ordinals(ledger, Disposition.CHECKED_1))
        assert len(checked) == report.sample_size
        for rec in ledger.records:
            expected = None if rec.index in checked else BellState.PSI2
            assert rec.fake_carrier == expected

    def test_counts_of_a_never_filled_column_are_empty(self):
        # A fake-EPR trial that aborts at check 1 fills neither row column.
        outcome = run_multiparty(config(pairs=64, seed=9, attack=AttackStrategy(AttackKind.FAKE_EPR)))
        assert outcome.abort_reason == "check1_failed"
        ledger = outcome.hops[0].ledger
        for name in ("outcome", "guesses"):
            assert name not in {fill[0] for fill in ledger.fills} and ledger.counts(name) == {}
        assert PairLedger(bytes(3)).counts("outcome") == {}

    def test_counts_read_the_last_fill_of_a_column(self):
        batch = Batch([PairLedger(bytes([0, 1, 2, 3]))])
        (ledger,) = batch.ledgers
        batch.fill("guesses", bytes([0, 1, 0, 1]), ("0", "1"))
        batch.settle(bytes([0, 1, 0, 0]), Disposition.CHECKED_1)
        batch.fill("guesses", bytes([1, 1, 0]), ("0", "1"))
        expected = {CODES[0]: {"1": 1}, CODES[2]: {"1": 1}, CODES[3]: {"0": 1}}
        assert ledger.counts("guesses") == expected
        # As the last fill's record reads, with the prepared codes it was filled at.
        last = [fill for fill in ledger.fills if fill[0] == "guesses"][-1]
        assert ledger.counts("guesses") == joint_counts(*last[2:])
        # A decode fill counts in the code alphabet, in order of first appearance.
        batch.fill("outcome", bytes([0, 3, 3]), CODES)
        assert list(ledger.counts("outcome").items()) == [
            (CODES[0], {CODES[0]: 1}),
            (CODES[2], {CODES[3]: 1}),
            (CODES[3], {CODES[3]: 1}),
        ]

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
        # A column holds a y for each pair it was filled at, and only those.
        valued = [(x, y) for x, y in pairs if y is not None]
        counts = joint_counts(bytes(x for x, _ in valued), bytes(y for _, y in valued), names)
        expected = self.reference_counts(prepared, ys, names)
        # Equal, and in the same order of first appearance.
        assert [(x, list(row.items())) for x, row in counts.items()] == [
            (x, list(row.items())) for x, row in expected.items()
        ]
        assert joint_counts(prepared, b"", names) == {}

    @pytest.mark.parametrize(
        "ys, names",
        [
            # 9 is no index into four names, and at 8 or more a code reaches
            # the bits of the prepared code beside it.
            (bytes([9, 1]), CODES),
            (bytes([0, 4]), CODES),
            (bytes([2, 1]), ("0", "1")),
        ],
        ids=["9-of-4-names", "4-of-4-names", "2-of-2-names"],
    )
    def test_joint_counts_rejects_a_code_outside_its_alphabet(self, ys, names):
        with pytest.raises(ValueError, match="alphabet"):
            joint_counts(bytes([0, 1]), ys, names)


class TestRunProtocol:
    def test_clean_run(self):
        outcome = run_protocol(config(pairs=400, seed=20), RandomSource(20))
        assert outcome.abort_reason is None
        assert outcome.abort_reason is None
        assert outcome.check1.error_rate == 0.0
        assert outcome.check2.error_rate == 0.0
        key = sender_key(outcome)
        assert key == outcome.receiver_key
        assert code_string(outcome.receiver_key) == code_string(key)

    def test_aborted_run_has_no_key_agreement(self):
        cfg = config(pairs=200, seed=20, attack=AttackStrategy(kind=AttackKind.FAKE_EPR))
        outcome = run_protocol(cfg, RandomSource(20))
        assert outcome.abort_reason == "check1_failed"
        assert outcome.receiver_key is None
        assert run_multiparty(cfg).keys_agree is None

    def test_conservation_and_exclusivity(self):
        outcome = run_protocol(config(pairs=500, seed=21), RandomSource(21))
        counts = outcome.ledger.disposition_counts()
        assert (
            counts["checked-1"] + counts["checked-2"] + counts["key"] + counts["dropped"]
            == 500
        )
        key_indices = {rec.index for rec in with_disposition(outcome.ledger, Disposition.KEY)}
        assert len(key_indices) == len(outcome.receiver_key)
        assert key_indices.isdisjoint(settled_ordinals(outcome.ledger, Disposition.CHECKED_1))
        assert key_indices.isdisjoint(settled_ordinals(outcome.ledger, Disposition.CHECKED_2))

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
            AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=0.1), [rng.substream("eve")]
        )
        batch, ledger = one_trial(cfg.pairs, rng.substream("alice"))
        assert_counts_match(ledger)
        assert ledger.stage is Disposition.PREPARED
        transmit_first_sequence(batch, chan)
        assert_counts_match(ledger)
        assert ledger.stage is Disposition.IN_FLIGHT_1
        first_check(batch, cfg, [bob])
        assert_counts_match(ledger)
        assert ledger.stage is Disposition.IN_FLIGHT_1
        transmit_second_sequence(batch, chan, cfg)
        assert_counts_match(ledger)
        assert ledger.stage is Disposition.IN_FLIGHT_2
        bob_decode(batch, [bob])
        assert_counts_match(ledger)
        assert ledger.stage is Disposition.DECODED
        second_check(batch, cfg, [bob])
        assert_counts_match(ledger)
        assert ledger.stage is Disposition.DECODED
        extract_key(batch)
        assert_counts_match(ledger)
        assert ledger.stage is Disposition.KEY and not ledger.live
        assert ledger.disposition_counts()["dropped"] > 0

    def test_key_indices_are_increasing_and_shared(self):
        outcome = run_protocol(config(pairs=300, seed=22), RandomSource(22))
        indices = list(settled_ordinals(outcome.ledger, Disposition.KEY))
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)
        # Both keys are read at those pairs.
        assert len(outcome.receiver_key) == len(indices)
        assert sender_key(outcome) == bytes(outcome.ledger.prepared[i] for i in indices)

    def test_key_length_accounts_for_checks(self):
        outcome = run_protocol(config(pairs=400, seed=23), RandomSource(23))
        surviving = 400 - outcome.check1.sample_size - outcome.check2.sample_size
        assert len(code_string(outcome.receiver_key)) == 2 * surviving

    @pytest.mark.parametrize(
        "kind", [AttackKind.NONE, AttackKind.MEASURE_RESEND], ids=lambda kind: kind.value
    )
    def test_steps_log_what_run_protocol_logs(self, kind):
        # The ledger owns the transcript, so the seven steps called directly
        # on run_protocol's streams log the same events it does: the sender
        # and the receiver draw from its stream itself, one after the other,
        # and the adversary from its eve substream.
        cfg = config(pairs=120, seed=25, attack=AttackStrategy(kind=kind))
        outcome = run_protocol(cfg, RandomSource(25), transcript=Transcript())

        rng = RandomSource(25)
        channel = AdversaryChannel(cfg.attack, [rng.substream("eve")])
        batch, ledger = one_trial(cfg.pairs, rng, transcript=Transcript())
        transmit_first_sequence(batch, channel)
        first_check(batch, cfg, [rng])
        transmit_second_sequence(batch, channel, cfg)
        bob_decode(batch, [rng])
        (report,) = second_check(batch, cfg, [rng])
        assert report.passed == (kind is AttackKind.NONE)  # measure-resend fails here
        expected = logged_events(outcome.ledger.transcript)
        if report.passed:
            extract_key(batch)
        else:
            # Only run_protocol decides to abort, and says so last.
            assert expected[-1]["event"] == "abort"
            expected = expected[:-1]
        assert logged_events(ledger.transcript) == expected

    def test_run_protocol_names_the_parties_its_transcript_names(self):
        # A hop's parties are named on its transcript alone: every event of
        # a sender's or a receiver's step is by that transcript's names.
        cfg = config(pairs=120, seed=25, attack=AttackStrategy(kind=AttackKind.MEASURE_RESEND))
        transcript = Transcript(sender="carol", receiver="dave")
        run_protocol(cfg, RandomSource(25), transcript=transcript)
        events = logged_events(transcript)
        assert {event["event"] for event in events} >= SENDER_EVENTS | RECEIVER_EVENTS
        assert party_actors(transcript) == ({"carol"}, {"dave"})
        assert {event["actor"] for event in events} == {"carol", "dave", "eve", "public"}

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
        _, ledger = one_trial(10, RandomSource(4))
        assert ledger.transcript is None
        assert from_labels([BellState.PSI1])[1].transcript is None
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

    def test_transcripts_without_the_c_encoder_are_the_same_bytes(self, monkeypatch):
        # Where json has no C accelerator, c_make_encoder is None: the ledger
        # module must still import, and log each payload through json.dumps.
        saved = dict(vars(eprqkd.ledger))
        with monkeypatch.context() as patch:
            patch.setattr(json.encoder, "c_make_encoder", None)
            try:
                importlib.reload(eprqkd.ledger)
                fallback = eprqkd.ledger._encode_payload
            finally:
                vars(eprqkd.ledger).clear()
                vars(eprqkd.ledger).update(saved)
        assert fallback is not saved["_encode_payload"]
        cfg = config(pairs=200, trials=2, seed=40, parties=3)
        accelerated = run(cfg, collect_transcripts=True).transcripts
        monkeypatch.setattr(eprqkd.ledger, "_encode_payload", fallback)
        assert run(cfg, collect_transcripts=True).transcripts == accelerated

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
        batch, ledger = one_trial(30, RandomSource(60, "alice"))
        transmit_first_sequence(batch, clean_channel())
        (report,) = first_check(batch, RunConfig(min_check_size=4), [RandomSource(60, "bob")])
        destroyer = AdversaryChannel(
            AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=1.0),
            [RandomSource(60, "eve")],
        )
        transmit_second_sequence(batch, destroyer, RunConfig())
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
        assert outcome.abort_reason is None
        assert sender_key(outcome) == outcome.receiver_key
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
        assert outcome.abort_reason is None
        assert outcome.check1.error_rate == 0.0
        assert sender_key(outcome) == outcome.receiver_key
        bases = self.announced_bases(outcome)
        assert set(bases) == {"z", "x"} and len(bases) == outcome.check1.sample_size

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
        assert self.announced_bases(outcome) == "z" * outcome.check1.sample_size


class TestMultiparty:
    def test_two_parties_run_one_hop_of_run_protocol(self):
        cases = ((AttackStrategy(), None), (AttackStrategy(AttackKind.FAKE_EPR), "check1_failed"))
        for attack, reason in cases:
            cfg = config(pairs=200, seed=30, attack=attack)
            single = run_protocol(cfg, RandomSource(30, "trial/2"), transcript=Transcript(2))
            outcome = run_multiparty(cfg, 2, collect_transcripts=True)
            (hop,) = outcome.hops
            assert logged_events(hop.ledger.transcript) == logged_events(single.ledger.transcript)
            assert outcome.abort_reason == single.abort_reason == reason
            keys = [sender_key(single), single.receiver_key] if reason is None else None
            assert outcome.keys == keys

    def test_trials_of_different_seeds_draw_from_different_streams(self):
        # Trial t of root seed s draws from the stream (s, "trial/t"), so
        # seed 0's trial 1 and seed 1's trial 0 make different draws.
        later = run(RunConfig(pairs=100, trials=2, seed=0)).rows[1]
        first = run(RunConfig(pairs=100, trials=1, seed=1)).rows[0]
        assert {**later, "trial": 0} != first
        assert later["ab_counts"] != first["ab_counts"]

    def test_clean_chain_shares_one_key(self):
        cfg = config(pairs=300, seed=31, parties=3)
        outcome = run_multiparty(cfg)
        assert outcome.abort_reason is None
        assert outcome.keys_agree
        bits = [code_string(key) for key in outcome.keys]
        assert bits[0] == bits[1] == bits[-1]
        assert len(bits[0]) > 0

    def test_key_accounting_against_ledgers(self):
        cfg = RunConfig(pairs=100, seed=32, parties=3)
        outcome = run_multiparty(cfg)
        hop2_key_pairs = outcome.hops[1].ledger.disposition_counts()["key"]
        assert len(code_string(outcome.keys[-1])) == 2 * hop2_key_pairs

    def test_every_partys_key_is_its_codes_at_the_key_pairs(self):
        # Each completed trial of the engine grid, and of every attack with
        # checks that pass any error rate, whose keys disagree: every party's
        # key must be the codes a reference reads through the hops' records
        # at the KEY ordinals, which keys_agree cannot see when they differ.
        lenient = (
            config(pairs=64, trials=2, seed=23, attack=attack, parties=parties, min_check_size=4,
                   threshold_1=1.0, threshold_2=1.0)
            for attack in ATTACKS
            for parties in (2, 3)
        )
        completed, disagreeing = 0, 0
        for cfg in [*engine_grid(), *lenient]:
            for trial in range(cfg.trials):
                outcome = run_multiparty(cfg, trial)
                if outcome.keys is None:
                    continue
                completed += 1
                disagreeing += not outcome.keys_agree
                assert outcome.keys == reference_keys(outcome.hops)
        assert completed >= 40 and disagreeing >= 10

    def test_relay_prepares_its_own_key_bits(self):
        cfg = config(pairs=300, seed=33, parties=3)
        outcome = run_multiparty(cfg)
        relayed = "".join(CODES[rec.prepared] for rec in outcome.hops[1].ledger.records)
        assert relayed == code_string(outcome.hops[0].receiver_key)
        assert outcome.hops[1].ledger.prepared == outcome.hops[0].receiver_key

    @pytest.mark.parametrize("parties", [2, 3])
    def test_a_completed_trial_builds_the_sender_key_once(self, parties, monkeypatch):
        calls = []

        def counted(ledger):
            calls.append(ledger)
            return sender_key_material(ledger)

        monkeypatch.setattr(eprqkd.protocol, "sender_key_material", counted)
        outcome = run_multiparty(config(pairs=300, seed=33, parties=parties))
        assert outcome.abort_reason is None
        assert calls == [outcome.hops[0].ledger]

    def test_attack_on_second_hop_is_detected_there(self):
        cfg = config(
            pairs=400,
            seed=34,
            parties=3,
            attack=AttackStrategy(kind=AttackKind.MEASURE_RESEND),
            attack_hop="2",
        )
        outcome = run_multiparty(cfg)
        assert outcome.hops[0].abort_reason is None
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
        assert outcome.hops[0].abort_reason is None
        assert outcome.abort_reason == "hop2_insufficient_pairs"
        assert outcome.keys is None

    def test_an_unattacked_hop_config_is_built_once_per_config(self, monkeypatch):
        cfg = RunConfig(
            pairs=300,
            trials=5,
            seed=39,
            parties=3,
            attack=AttackStrategy(AttackKind.FAKE_EPR, fake_label=None),
            attack_hop="2",
        )
        calls = []

        replace = RunConfig.replace

        def counting_replace(config, **changes):
            calls.append((config,))
            return replace(config, **changes)

        eprqkd.protocol._unattacked.cache_clear()
        monkeypatch.setattr(RunConfig, "replace", counting_replace)
        report = run(cfg)
        # Hop 1 of each of the 5 trials runs unattacked, on one config.
        assert calls == [(cfg,)]
        assert all(row["hop2"] is not None for row in report.rows)
        rows, _ = object_engine.run(cfg)
        assert json.dumps(report.rows, sort_keys=True) == json.dumps(rows, sort_keys=True)

    def test_transcript_tags_hops(self):
        cfg = config(pairs=200, seed=36, parties=3)
        outcome = run_multiparty(cfg, collect_transcripts=True)
        events = [event for hop in outcome.hops for event in logged_events(hop.ledger.transcript)]
        hops = {event["payload"].get("hop") for event in events}
        assert hops == {1, 2}
        actors = {event["actor"] for event in events}
        assert {"alice", "bob", "clare", "public"} <= actors

    def test_each_hop_is_by_its_own_parties(self):
        cfg = config(pairs=200, seed=36, parties=3)
        outcome = run_multiparty(cfg, collect_transcripts=True)
        by_hop = [party_actors(hop.ledger.transcript) for hop in outcome.hops]
        assert by_hop == [({"alice"}, {"bob"}), ({"bob"}, {"clare"})]


# The differential grid's attack variants (tests/test_differential.py).
GRID_ATTACKS = [
    AttackStrategy(),
    AttackStrategy(kind=AttackKind.MEASURE_RESEND),
    AttackStrategy(kind=AttackKind.MEASURE_RESEND, measure_second_sequence=True),
    AttackStrategy(kind=AttackKind.FAKE_EPR),
    AttackStrategy(kind=AttackKind.FAKE_EPR, fake_label=None),
    AttackStrategy(kind=AttackKind.OPAQUE, destroy_probability=0.3),
]
# SHA-256 of every hop's records and disposition counts over that grid, at
# 5, 64 and 300 pairs: a change to how the ledger holds its pairs must leave
# each pair's fate, carrier, planted pair and decode result as they were.
RECORDS_SHA256 = "8c35262086d8f450a7ea6f16c12cf3fd178253c495ff7847934262f257ff4261"


def hop_records_digest() -> str:
    digest = hashlib.sha256()
    grid = product(GRID_ATTACKS, (2, 3), (False, True), (False, True), (5, 64, 300))
    for attack, parties, continuation_mode, randomize_check_basis, pairs in grid:
        cfg = RunConfig(
            pairs=pairs,
            trials=2,
            seed=5,
            attack=attack,
            parties=parties,
            min_check_size=4,
            loss_tolerance=0.5,
            continuation_mode=continuation_mode,
            randomize_check_basis=randomize_check_basis,
        )
        for trial in range(cfg.trials):
            for hop in run_multiparty(cfg, trial).hops:
                ledger = hop.ledger
                records = [
                    (r.index, r.prepared, r.disposition.value, r.carrier, r.fake_carrier, r.outcome)
                    for r in ledger.records
                ]
                line = json.dumps([records, ledger.disposition_counts()], sort_keys=True)
                digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_hop_records_are_pinned():
    assert hop_records_digest() == RECORDS_SHA256


def last_fill(ledger, name):
    """The record of the last fill of column ``name``, or None."""
    return next((fill for fill in reversed(ledger.fills) if fill[0] == name), None)


def counts_from_records(ledger, field, names):
    """Nested counts {prepared code: {names[value]: n}} over the records whose
    ``field`` holds a value, in order of first appearance."""
    counts = {}
    for rec in ledger.records:
        value = getattr(rec, field)
        if value is not None:
            row = counts.setdefault(CODES[rec.prepared], {})
            row[names[value]] = row.get(names[value], 0) + 1
    return counts


def test_counts_match_the_records_over_the_differential_grid():
    # The count tables and the records both read the fill log; each table
    # must be the records' values counted against the prepared codes and
    # named through the alphabet of the fill they came from.
    for config in engine_grid():
        for trial in range(config.trials):
            for hop in run_multiparty(config, trial).hops:
                ledger = hop.ledger
                tables = (
                    ("outcome", ledger.counts("outcome"), "outcome"),
                    ("guesses", eve_guess_counts(ledger), "guess"),
                )
                for name, table, field in tables:
                    fill = last_fill(ledger, name)
                    expected = counts_from_records(ledger, field, fill[4] if fill else ())
                    assert [(x, list(row.items())) for x, row in table.items()] == [
                        (x, list(row.items())) for x, row in expected.items()
                    ]


def assert_hop_finished(hop):
    """Every pair settled exactly once in the settle log, whose counts sum
    to the pairs prepared; two key bits per pair settled as key; an abort
    reason exactly when there is no key; Eve scored on exactly her
    guesses; every fill one code per pair it was filled at, each an
    index into its own alphabet or, in a pair-state column, a state code
    (so below 0x80, which a settle's cut of the column relies on); and, when
    the hop kept a transcript, every ordinal it logs the ordinals of the
    settle it names: each of the first check's three sample lists its
    CHECKED_1 settle's, and each non-empty list of an opaque channel's losses
    its DROPPED settle's, in order, ahead of at most an abort's."""
    ledger = hop.ledger
    _, settles = ledger.ordinals()
    settled = [i for ordinals, _ in settles for i in ordinals]
    assert sorted(settled) == list(range(len(ledger.prepared))) and not ledger.live
    counts = ledger.disposition_counts()
    assert sum(counts.values()) == len(settled) == len(ledger.prepared)
    key_length = len(code_string(hop.receiver_key)) if hop.receiver_key is not None else 0
    assert key_length == 2 * counts["key"]
    assert (hop.abort_reason is None) == (hop.receiver_key is not None)
    assert (hop.abort_reason is None) == (key_length > 0)
    scored = sum(n for row in eve_guess_counts(ledger).values() for n in row.values())
    guesses = last_fill(ledger, "guesses")
    assert scored == (len(guesses[3]) if guesses else 0)
    for name, _, prepared, codes, names in ledger.fills:
        assert len(codes) == len(prepared)
        # Only the pair-state columns hold codes that name no alphabet.
        assert (names is None) == (name in ("state", "planted"))
        assert max(codes, default=0) < (N_STATES if names is None else len(names))
    if ledger.transcript is not None:
        payloads = [json.loads(line)["payload"] for line in ledger.transcript.lines]
        samples = [p[key] for p in payloads for key in ("indices", "check_indices") if key in p]
        checked = [ordinals for ordinals, fate in settles if fate is Disposition.CHECKED_1]
        assert samples == 3 * checked
        losses = [p["destroyed_indices"] for p in payloads if p.get("destroyed_indices")]
        dropped = [ordinals for ordinals, fate in settles if fate is Disposition.DROPPED]
        assert losses == dropped[: len(losses)]
        assert len(dropped) <= len(losses) + (hop.abort_reason is not None)


# Two-party measure-resend runs on hop 1 with min_check_size=1 whose small
# checks pass by chance, and the key bits each completes with. An attack that
# alters a delivered pair's state can go unseen by a small check; the keys
# then disagree, which is what the checks' sizes trade against. Each seed is
# the first from 0 whose trial 0 shows that event.
UNSEEN_ATTACKS = [
    ({"pairs": 62, "check_fraction_2": 0.0625, "seed": 7}, 86),
    ({"pairs": 76, "check_fraction_1": 0.6875, "check_fraction_2": 0.125, "seed": 11}, 40),
]


@pytest.mark.parametrize("fields, key_bits", UNSEEN_ATTACKS)
def test_unseen_attack_completes_with_disagreeing_keys(fields, key_bits):
    attack = AttackStrategy(kind=AttackKind.MEASURE_RESEND)
    cfg = RunConfig(attack=attack, min_check_size=1, attack_hop="1", **fields)
    outcome = run_multiparty(cfg)
    assert outcome.abort_reason is None
    assert outcome.keys_agree is False
    assert [len(code_string(key)) for key in outcome.keys] == [key_bits, key_bits]


# The property's other arguments for UNSEEN_ATTACKS: their fixed fields,
# RunConfig's defaults, and no transcript.
UNSEEN_ARGUMENTS = {
    "transcripts": False,
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
    transcripts=st.booleans(),
)
@example(**{**UNSEEN_ARGUMENTS, **UNSEEN_ATTACKS[0][0]})
@example(**{**UNSEEN_ARGUMENTS, **UNSEEN_ATTACKS[1][0]})
# Eve measures both sequences past a failed first check, so her second fill
# holds two-bit guesses, codes up to 3.
@example(
    **{
        **UNSEEN_ARGUMENTS,
        **UNSEEN_ATTACKS[0][0],
        "measure_second_sequence": True,
        "continuation_mode": True,
        "transcripts": True,
    }
)
def test_every_valid_config_finishes_every_trial(
    kind, fake_label, destroy_probability, measure_second_sequence, seed, transcripts, **fields
):
    # A two-party run has no second hop to attack; RunConfig rejects it.
    assume(not (fields["parties"] == 2 and fields["attack_hop"] == "2"))
    attack = AttackStrategy(kind, fake_label, destroy_probability, measure_second_sequence)
    cfg = RunConfig(seed=seed, attack=attack, **fields)
    # A transcript makes no draw, so half the examples keep one for
    # assert_hop_finished to read.
    outcome = run_multiparty(cfg, collect_transcripts=transcripts)
    assert 1 <= len(outcome.hops) <= cfg.parties - 1
    assert len(outcome.hops[0].ledger.prepared) == cfg.pairs
    for k, hop in enumerate(outcome.hops):
        assert_hop_finished(hop)
        # A later hop runs only after the one before it completed.
        assert k == 0 or outcome.hops[k - 1].abort_reason is None
    assert (outcome.abort_reason is None) == (outcome.keys is not None)
    if outcome.keys is not None:
        assert len(outcome.hops) == len(outcome.keys) - 1 == cfg.parties - 1
        assert len({len(code_string(key)) for key in outcome.keys}) == 1
        # Only an attack that leaves every delivered pair's state alone
        # guarantees agreement; another can pass small checks by chance
        # (UNSEEN_ATTACKS).
        if kind in (AttackKind.NONE, AttackKind.OPAQUE):
            assert outcome.keys_agree
