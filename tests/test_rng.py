import functools
import operator
import random

import pytest
from hypothesis import example, given, strategies as st

import eprqkd.rng
from eprqkd.adversary import AttackKind, AttackStrategy
from eprqkd.config import RunConfig
from eprqkd.errors import ConfigurationError
from eprqkd.protocol import run_multiparty
from eprqkd.quantum import KEYS, OPS, measure_column
from eprqkd.rng import MAX_SEED, RandomSource, three_sigma
from eprqkd.runner import trial_row
from test_quantum import ScriptedSource


def test_same_seed_and_stream_replays_identically():
    a = [RandomSource(123, "x").random() for _ in range(50)]
    b = [RandomSource(123, "x").random() for _ in range(50)]
    assert a == b


def test_different_streams_diverge():
    a = [RandomSource(123, "x").random() for _ in range(20)]
    b = [RandomSource(123, "y").random() for _ in range(20)]
    assert a != b


def test_different_seeds_diverge():
    a = [RandomSource(1).random() for _ in range(20)]
    b = [RandomSource(2).random() for _ in range(20)]
    assert a != b


def test_repr_names_seed_and_stream():
    assert repr(RandomSource(9).substream("alice")) == "RandomSource(seed=9, stream='root/alice')"


def test_substream_is_deterministic_and_independent():
    root = RandomSource(9)
    child = root.substream("alice")
    assert child.stream == "root/alice"
    direct = RandomSource(9, "root/alice")
    assert [child.random() for _ in range(10)] == [direct.random() for _ in range(10)]
    # Deriving a substream must not consume from the parent.
    r1 = RandomSource(9)
    r1.substream("a")
    r2 = RandomSource(9)
    assert r1.random() == r2.random()


@pytest.mark.parametrize("seed", [-1, MAX_SEED + 1])
def test_seed_out_of_range_rejected(seed):
    with pytest.raises(ConfigurationError):
        RandomSource(seed)


def test_seed_boundaries_accepted():
    RandomSource(0)
    RandomSource(MAX_SEED)


# A block draw decides each outcome from the top two bits of its draw's first
# word, which fix int(r * 4) of the draw r that random() would return; the
# top bit of that quarter is a basis draw's int(r * 2).


@given(st.integers(0, 2**64 - 1), st.text(max_size=8), st.integers(0, 300))
@example(0, "x", 0)
@example(0, "x", 1)
def test_quarters_match_random_draws(seed, stream, n):
    rng, ref_rng = RandomSource(seed, stream), RandomSource(seed, stream)
    quarters = rng.quarters(n)
    draws = [ref_rng.random() for _ in range(n)]
    assert rng._rng.getstate() == ref_rng._rng.getstate()
    assert list(quarters) == [int(r * 4) for r in draws]
    assert [q >> 1 for q in quarters] == [int(r * 2) for r in draws]


@given(st.integers(0, 2**64 - 1), st.integers(0, 200), st.integers(0, 200))
@example(0, 0, 0)
@example(0, 1, 0)
def test_one_block_sliced_equals_consecutive_blocks(seed, a, b):
    # One quarters(a + b) sliced at a is quarters(a) then quarters(b), and
    # leaves the generator where the two calls do.
    block, split = RandomSource(seed, "x"), RandomSource(seed, "x")
    drawn = block.quarters(a + b)
    assert (drawn[:a], drawn[a:]) == (split.quarters(a), split.quarters(b))
    assert block._rng.getstate() == split._rng.getstate()


@given(st.integers(0, 2**64 - 1), st.integers(0, 200))
@example(0, 0)
def test_check_block_layouts_equal_the_separate_draws(seed, k):
    # The first check's layouts: 2k draws as receiver then sender, and with
    # random bases 3k draws as interleaved basis and receiver, then sender.
    block, split = RandomSource(seed, "x"), RandomSource(seed, "x")
    drawn = block.quarters(2 * k)
    assert (drawn[:k], drawn[k:]) == (split.quarters(k), split.quarters(k))
    assert block._rng.getstate() == split._rng.getstate()
    drawn, interleaved = block.quarters(3 * k), split.quarters(2 * k)
    assert drawn[0 : 2 * k : 2] == interleaved[0::2]
    assert drawn[1 : 2 * k : 2] == interleaved[1::2]
    assert drawn[2 * k :] == split.quarters(k)
    assert block._rng.getstate() == split._rng.getstate()


def test_quarters_in_small_blocks_are_the_same_draws(monkeypatch):
    # quarters draws in getrandbits blocks of at most BLOCK_DRAWS draws; with
    # blocks of 3, every n from 0 to 20 gives the bytes and the generator
    # state of the unpatched call.
    whole = [RandomSource(7, "x") for _ in range(21)]
    expected = [rng.quarters(n) for n, rng in enumerate(whole)]
    monkeypatch.setattr(eprqkd.rng, "BLOCK_DRAWS", 3)
    for n in range(21):
        chunked = RandomSource(7, "x")
        assert chunked.quarters(n) == expected[n]
        assert chunked._rng.getstate() == whole[n]._rng.getstate()


def test_a_trial_in_small_blocks_is_the_same_trial(monkeypatch):
    config = RunConfig(
        pairs=64,
        seed=5,
        randomize_check_basis=True,
        attack=AttackStrategy(kind=AttackKind.MEASURE_RESEND),
    )
    expected = trial_row(run_multiparty(config))
    monkeypatch.setattr(eprqkd.rng, "BLOCK_DRAWS", 3)
    assert trial_row(run_multiparty(config)) == expected


def test_bernoulli_degenerate():
    rng = RandomSource(4)
    assert not any(rng.bernoulli(0.0) for _ in range(100))
    assert all(rng.bernoulli(1.0) for _ in range(100))


def test_uniform_index_bounds():
    rng = RandomSource(5)
    draws = [rng.uniform_index(4) for _ in range(1000)]
    assert set(draws) == {0, 1, 2, 3}
    with pytest.raises(ConfigurationError):
        rng.uniform_index(0)


def test_scaled_draw_stays_below_its_bound():
    # uniform_index and sample_without_replacement return int(r * n) with no
    # clamp. random() returns k / 2**53 for some k < 2**53; the largest such
    # draw scales every n < 2**53 to below n, and float rounding is
    # monotone, so every smaller draw does too.
    r = (2**53 - 1) / 2**53
    assert r == 1.0 - 2.0**-53
    assert all(int(r * n) < n for n in range(1, 2_000_001))
    powers = (2**k + d for k in range(1, 54) for d in (-1, 0, 1))
    assert all(int(r * n) < n for n in powers if n < 2**53)
    rng = random.Random(53)
    assert all(int(r * n) < n for n in (rng.randrange(1, 2**53) for _ in range(100_000)))


def test_categorical_degenerate_distributions():
    rng = RandomSource(6)
    assert all(rng.categorical((1.0, 0.0, 0.0, 0.0)) == 0 for _ in range(50))
    assert all(rng.categorical((0.0, 0.0, 0.0, 1.0)) == 3 for _ in range(50))
    # A draw at or above the float sum of the probabilities misses every
    # running sum and takes the last outcome of nonzero probability. The sum
    # is categorical's own, added left to right from 0.0: builtins.sum
    # rounds it to 1.0 from Python 3.12 on.
    tenths = (0.1,) * 10
    assert functools.reduce(operator.add, tenths, 0.0) == 0.9999999999999999
    assert ScriptedSource(0.9999999999999999).categorical(tenths) == 9
    assert ScriptedSource(0.9999999999999999).categorical((*tenths, 0.0)) == 9
    # 0.9 + 0.05 rounds up to 0.9500000000000001, so 0.95 falls inside outcome 1.
    assert ScriptedSource(0.95).categorical([0.9, 0.05, 0.0]) == 1
    with pytest.raises(ValueError):
        ScriptedSource(0.5).categorical((0.0, 0.0))


def test_categorical_frequencies():
    rng = RandomSource(7)
    n = 20_000
    draws = [rng.categorical((0.5, 0.5)) for _ in range(n)]
    freq = draws.count(0) / n
    assert abs(freq - 0.5) < three_sigma(0.5, n)


def test_sample_without_replacement_distinct_and_complete():
    rng = RandomSource(8)
    population = list(range(100))
    picked = rng.sample_without_replacement(population, 30)
    assert len(picked) == 30
    assert len(set(picked)) == 30
    assert set(picked) <= set(population)
    assert sorted(rng.sample_without_replacement(population, 100)) == population


def test_sample_without_replacement_overdraw_rejected():
    with pytest.raises(ConfigurationError):
        RandomSource(8).sample_without_replacement([1, 2], 3)


@given(
    st.integers(0, 2**64 - 1),
    st.sets(st.integers(0, 10**6), max_size=300).map(sorted),
    st.data(),
)
def test_a_positions_sample_mapped_through_live_is_a_sample_of_live(seed, live, data):
    # A check samples the positions 0..len(live)-1 of the live pairs and maps
    # its picks through live: the same sorted ordinals, and the same
    # generator state after, as sampling live itself.
    k = data.draw(st.integers(0, len(live)))
    by_position, by_ordinal = RandomSource(seed), RandomSource(seed)
    picks = by_position.sample_without_replacement(list(range(len(live))), k)
    ordinals = by_ordinal.sample_without_replacement(live, k)
    assert [live[j] for j in sorted(picks)] == sorted(ordinals)
    assert by_position._rng.getstate() == by_ordinal._rng.getstate()


def test_sample_without_replacement_is_unbiased_enough():
    # Every element should appear with frequency k/n across repetitions.
    n, k, reps = 20, 5, 4000
    counts = [0] * n
    rng = RandomSource(10)
    for _ in range(reps):
        for i in rng.sample_without_replacement(list(range(n)), k):
            counts[i] += 1
    expected = reps * k / n
    for c in counts:
        assert abs(c - expected) < 3 * (reps * (k / n) * (1 - k / n)) ** 0.5 + 1


class TestLazySeeding:
    @pytest.fixture
    def seeded(self, monkeypatch):
        """The (seed, stream) names of every generator built during a test."""
        names = []

        class Recording(random.Random):
            def __init__(self, name):
                names.append(name)
                super().__init__(name)

        monkeypatch.setattr(random, "Random", Recording)
        return names

    def test_construction_seeds_nothing(self, seeded):
        root = RandomSource(7)
        child = root.substream("trial").substream("eve")
        assert seeded == []
        for stream in (root, child):
            assert "_rng" not in vars(stream) and stream._gen is None

    def test_first_draw_seeds_once(self, seeded):
        rng = RandomSource(7, "x")
        rng.random()
        rng.uniform_index(4)
        rng.sample_without_replacement(list(range(10)), 3)
        assert seeded == ["7:x"]

    def test_reading_the_generator_of_a_fresh_stream_builds_it(self, seeded):
        rng = RandomSource(7, "x")
        gen = rng._rng
        assert seeded == ["7:x"] and isinstance(gen, random.Random)
        assert rng._rng is gen and rng._gen is gen
        assert gen.getstate() == random.Random("7:x").getstate()

    def test_a_subclass_may_assign_the_generator(self, seeded):
        class Fixed(RandomSource):
            def __init__(self):
                super().__init__(0, "fixed")
                self._rng = random.Random(5)

        fixed, ref = Fixed(), random.Random(5)
        assert [fixed.random(), fixed.uniform_index(9)] == [ref.random(), int(ref.random() * 9)]
        assert "0:fixed" not in seeded  # the stream's own generator is never built

    def test_draws_equal_a_generator_seeded_by_name(self):
        rng, ref = RandomSource(123, "root/alice"), random.Random("123:root/alice")
        assert [rng.random() for _ in range(5)] == [ref.random() for _ in range(5)]
        assert rng.bernoulli(0.5) == (ref.random() < 0.5)
        assert rng.uniform_index(7) == int(ref.random() * 7)
        assert rng._rng.getstate() == ref.getstate()

    def test_scripted_override_still_draws_through_random(self):
        # ScriptedSource sets _rng = self, so every sampler and the column
        # kernel's keys (``quarters``) draw through its own random(), not a generator.
        scripted = ScriptedSource(0.25)
        assert scripted.uniform_index(4) == 1
        assert scripted.bernoulli(0.5)
        assert scripted.sample_without_replacement([10, 11, 12, 13], 2) == [11, 10]
        keys = scripted.quarters(2).translate(KEYS[OPS["first"]["z"]])
        assert measure_column(bytes(2), keys)[0] == bytes(2)
        assert scripted.draws == 6
        assert scripted._rng is scripted

    @pytest.mark.parametrize(
        "fields, reason, streams",
        [
            ({"attack": AttackStrategy(AttackKind.FAKE_EPR)}, "check1_failed", ("alice", "bob")),
            ({}, None, ("alice", "bob")),
            (
                {"attack": AttackStrategy(AttackKind.MEASURE_RESEND)},
                "check2_failed",
                ("alice", "bob", "eve"),
            ),
            (
                {"attack": AttackStrategy(AttackKind.FAKE_EPR, fake_label=None)},
                "check1_failed",
                ("alice", "bob", "eve"),
            ),
            (
                {
                    "attack": AttackStrategy(AttackKind.OPAQUE, destroy_probability=0.3),
                    "loss_tolerance": 0.9,
                },
                None,
                ("alice", "bob", "eve"),
            ),
            ({"parties": 3, "pairs": 200}, None, ("hop1/alice", "hop1/bob", "hop2/clare")),
        ],
        ids=["fake-epr", "clean", "measure-resend", "fake-epr-uniform", "opaque", "three-party"],
    )
    def test_a_trial_seeds_only_the_streams_it_draws_from(self, seeded, fields, reason, streams):
        # A root stream, a relay's sender stream and an adversary stream on a
        # clean channel are handed out but never drawn from, so never seeded.
        outcome = run_multiparty(RunConfig(**{"pairs": 64, **fields}), 0)
        assert outcome.abort_reason == reason
        assert sorted(seeded) == sorted(f"0:root/{name}" for name in streams)
