import functools
import operator
import random

import pytest
from hypothesis import example, given, strategies as st

from eprqkd.errors import ConfigurationError
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
        assert "_rng" not in vars(root) and "_rng" not in vars(child)

    def test_first_draw_seeds_once(self, seeded):
        rng = RandomSource(7, "x")
        rng.random()
        rng.uniform_index(4)
        rng.sample_without_replacement(list(range(10)), 3)
        assert seeded == ["7:x"]

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
        assert measure_column([0, 0, 0], [0, 2], keys) == [0, 0]
        assert scripted.draws == 6
        assert vars(scripted)["_rng"] is scripted
