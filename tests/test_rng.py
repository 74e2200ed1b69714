import functools
import operator
import random

import pytest
from hypothesis import example, given, strategies as st

from eprqkd.adversary import AttackKind, AttackStrategy
from eprqkd.config import MAX_PAIRS, RunConfig
from eprqkd.errors import ConfigurationError
from eprqkd.protocol import run_multiparty
from eprqkd.quantum import KEYS, OPS, measure_column
from eprqkd.rng import MAX_SEED, RandomSource, three_sigma
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


@pytest.mark.parametrize("seed", [-1, MAX_SEED + 1, True, 1.0, 1.5, "1", None])
def test_seed_out_of_range_rejected(seed):
    with pytest.raises(ConfigurationError):
        RandomSource(seed)


def test_seed_boundaries_accepted():
    RandomSource(0)
    RandomSource(MAX_SEED)


# A block of n 2-bit draws is one getrandbits(8 * ceil(n / 4)) call, whose bits
# 2i and 2i + 1 are draw i. The call consumes whole 32-bit generator words,
# ceil(n / 16) of them, so each step's block must be one call.


@given(st.integers(0, 2**64 - 1), st.text(max_size=8), st.integers(0, 300))
@example(0, "x", 0)
@example(0, "x", 1)
def test_quarters_match_random_draws(seed, stream, n):
    rng, ref = RandomSource(seed, stream), random.Random(f"{seed}:{stream}")
    quarters = RandomSource.quarters_of([rng], [n])
    bits = ref.getrandbits(8 * -(-n // 4))
    assert list(quarters) == [bits >> 2 * i & 3 for i in range(n)]
    assert rng._rng.getstate() == ref.getstate()


def words_after(seed: int, stream: str, words: int) -> tuple:
    """The generator state of stream (seed, stream) after ``words`` words."""
    gen = random.Random(f"{seed}:{stream}")
    for _ in range(words):
        gen.getrandbits(32)
    return gen.getstate()


@given(st.integers(0, 2**64 - 1), st.integers(0, 200), st.integers(0, 200))
@example(0, 0, 0)
@example(0, 1, 0)
@example(0, 16, 5)
@example(0, 1, 15)
def test_one_block_sliced_equals_consecutive_blocks(seed, a, b):
    # Blocks of a then b quarters consume ceil(a / 16) + ceil(b / 16) words.
    # They are a block of a + b sliced at a when a is a multiple of 16, and
    # leave the generator elsewhere whenever they consume more words.
    block, split = RandomSource(seed, "x"), RandomSource(seed, "x")
    drawn = RandomSource.quarters_of([block], [a + b])
    first, second = (RandomSource.quarters_of([split], [n]) for n in (a, b))
    words = -(-a // 16) + -(-b // 16)
    assert split._rng.getstate() == words_after(seed, "x", words)
    assert block._rng.getstate() == words_after(seed, "x", -(-(a + b) // 16))
    if a % 16 == 0:
        assert (first, second) == (drawn[:a], drawn[a:])
    if words > -(-(a + b) // 16):
        assert block._rng.getstate() != split._rng.getstate()


def test_check_block_layouts_equal_the_separate_draws(monkeypatch):
    # Each step that draws per pair takes one block: the sender's n quarters,
    # the first check's 2k (3k with random bases) after its sample, the
    # decode's one per pair. They come one after another from the hop's one
    # honest stream, so the blocks' sizes fix the draws. A batch of trials
    # takes every trial's block of a step in one ``quarters_of`` call.
    blocks = []
    quarters_of = RandomSource.quarters_of

    def recording(sources, counts):
        blocks.extend((source.stream, n) for source, n in zip(sources, counts))
        return quarters_of(sources, counts)

    monkeypatch.setattr(RandomSource, "quarters_of", staticmethod(recording))
    for randomize_check_basis, per_pair in ((False, 2), (True, 3)):
        blocks.clear()
        config = RunConfig(pairs=64, seed=3, randomize_check_basis=randomize_check_basis)
        k = run_multiparty(config).hops[0].check1.sample_size
        assert blocks == [("trial/0", 64), ("trial/0", per_pair * k), ("trial/0", 64 - k)]


def test_draw_sizes_fit_one_getrandbits_call():
    # getrandbits takes its bit count as a C int, so one call takes below
    # 2**31 bits. The largest draw of a trial, a check sample of 8 bits per
    # pair, fits at the most pairs a trial takes; every block of quarters
    # (at most 3 per pair, 2 bits each) is smaller.
    assert 8 * MAX_PAIRS < 2**31


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
    # Sampling the positions 0..len(live)-1 of the live pairs and mapping the
    # picks through live gives the same sorted ordinals, and the same
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
        # kernel's keys (``quarters_of``) draw through its own random(), not a
        # generator: its getrandbits makes each 2-bit field int(r * 4) of one
        # draw, so each byte of a sample's mask is 0x55, below the threshold
        # of 3 of 4 (192), and the one position too many is int(0.25 * 4).
        scripted = ScriptedSource(0.25)
        assert scripted.uniform_index(4) == 1
        assert scripted.bernoulli(0.5)
        assert scripted.sample_without_replacement([10, 11, 12, 13], 3) == [10, 12, 13]
        assert scripted.draws == 2 + 16 + 1
        keys = RandomSource.quarters_of([scripted], [2]).translate(KEYS[OPS["first"]["z"]])
        assert measure_column(bytes(2), keys)[0] == bytes(2)
        assert scripted.draws == 19 + 4
        assert scripted._rng is scripted

    @pytest.mark.parametrize(
        "fields, reason, streams",
        [
            ({"attack": AttackStrategy(AttackKind.FAKE_EPR)}, "check1_failed", ("",)),
            ({}, None, ("",)),
            (
                {"attack": AttackStrategy(AttackKind.MEASURE_RESEND)},
                "check2_failed",
                ("", "/eve"),
            ),
            (
                {"attack": AttackStrategy(AttackKind.FAKE_EPR, fake_label=None)},
                "check1_failed",
                ("", "/eve"),
            ),
            (
                {
                    "attack": AttackStrategy(AttackKind.OPAQUE, destroy_probability=0.3),
                    "loss_tolerance": 0.9,
                },
                None,
                ("", "/eve"),
            ),
            ({"parties": 3, "pairs": 200}, None, ("/hop1", "/hop2")),
        ],
        ids=["fake-epr", "clean", "measure-resend", "fake-epr-uniform", "opaque", "three-party"],
    )
    def test_a_trial_seeds_only_the_streams_it_draws_from(self, seeded, fields, reason, streams):
        # A hop's sender and receiver draw from one stream, the trial's own in
        # two parties and its hop<k> substream in three; a three-party trial's
        # own stream and an adversary stream on a clean channel are handed
        # out but never drawn from, so never seeded.
        outcome = run_multiparty(RunConfig(**{"pairs": 64, **fields}), 0)
        assert outcome.abort_reason == reason
        assert sorted(seeded) == sorted(f"0:trial/0{name}" for name in streams)
