"""The engine's sampled statistics against exact laws (``exact_model``).

Each test runs the engine at a fixed seed and G-tests what it observed
against a law computed in fractions from ``amplitude_oracle``'s amplitudes:
cells expected below 5 are pooled into one, a cell of chance 0 that was
observed fails outright, and a test fails at p < 1e-6. The seeds are fixed,
so the tests are deterministic; a correct engine fails a given seed with
probability about 1e-6. Nothing here reads the engine's draw layout, so the
laws hold under any exact generator and sampler.
"""
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import exact_model
from eprqkd.adversary import AttackKind, AttackStrategy
from eprqkd.config import RunConfig
from eprqkd.ledger import Disposition
from eprqkd.protocol import run_multiparty
from eprqkd.rng import RandomSource
from eprqkd.runner import run
from test_differential import settled_ordinals

P_FAIL = 1e-6


def chi2_sf(x: float, df: int) -> float:
    """P(X >= x) for X chi-square with ``df`` degrees of freedom: the
    regularized upper incomplete gamma Q(df/2, x/2), by the recurrence
    Q(a + 1, h) = Q(a, h) + h**a e**-h / Gamma(a + 1) from Q(1/2, h) =
    erfc(sqrt(h)) or Q(1, h) = e**-h."""
    if df <= 0 or x <= 0:
        return 1.0
    h = x / 2
    a, q = (0.5, math.erfc(math.sqrt(h))) if df % 2 else (1.0, math.exp(-h))
    while a < df / 2:
        q += math.exp(a * math.log(h) - h - math.lgamma(a + 1))
        a += 1
    return min(q, 1.0)


def g_test(observed: Counter, law: dict, trials: int, scale: float = 1.0) -> float:
    """The p-value of ``observed`` counts over ``trials`` draws from ``law``
    (cell -> Fraction). Cells expected below 5 are pooled, smallest first,
    until the pool expects at least 5. ``scale`` divides G, for counts whose
    covariance is ``scale`` times a multinomial's."""
    stray = set(observed) - set(law)
    if stray:
        raise ValueError(f"cells outside the law: {sorted(stray)[:5]}")
    if any(observed[cell] for cell, p in law.items() if p == 0):
        return 0.0
    cells = sorted((p * trials, observed[cell]) for cell, p in law.items() if p > 0)
    pooled_e = pooled_o = 0
    while cells and pooled_e < 5:
        e, o = cells.pop(0)
        pooled_e, pooled_o = pooled_e + e, pooled_o + o
    cells.append((pooled_e, pooled_o))
    g = 2 * sum(o * math.log(o / e) for e, o in cells if o)
    return chi2_sf(g / scale, len(cells) - 1)


def mismatch_law_config(attack: str, randomize_check_basis: bool, trials: int) -> RunConfig:
    strategies = {
        "none": AttackStrategy(),
        "measure-resend": AttackStrategy(kind=AttackKind.MEASURE_RESEND),
        "fake-epr": AttackStrategy(kind=AttackKind.FAKE_EPR),
    }
    return RunConfig(
        pairs=64,
        trials=trials,
        seed=1414,
        attack=strategies[attack],
        randomize_check_basis=randomize_check_basis,
    )


@pytest.mark.parametrize(
    "attack, randomize_check_basis, q, trials",
    [
        ("fake-epr", False, Fraction(1, 2), 4000),
        ("measure-resend", True, Fraction(1, 4), 4000),
        ("measure-resend", False, Fraction(0), 800),
        ("none", False, Fraction(0), 800),
    ],
    ids=["fake-epr", "measure-resend-random-basis", "measure-resend", "clean"],
)
def test_check1_mismatches_follow_the_binomial(attack, randomize_check_basis, q, trials):
    # The first check's mismatch count is Bin(k, q), q the exact per-pair
    # chance: 1/2 against a fixed planted label, 1/4 against measure-resend
    # under random bases, 0 against measure-resend in Z and on a clean channel.
    assert exact_model.check1_mismatch_chance(attack, randomize_check_basis) == q
    config = mismatch_law_config(attack, randomize_check_basis, trials)
    k = exact_model.check_size(config.pairs, config.check_fraction_1, config.min_check_size)
    rows = run(config).rows
    assert {row["check1"]["sample_size"] for row in rows} == {k}
    observed = Counter(row["check1"]["mismatches"] for row in rows)
    assert g_test(observed, exact_model.binomial(k, q), trials) >= P_FAIL


def test_the_fake_epr_chance_is_a_half_whatever_the_planted_label():
    assert exact_model.check1_mismatch_chance("fake-epr-uniform") == Fraction(1, 2)
    assert exact_model.check1_mismatch_chance("fake-epr-uniform", True) == Fraction(1, 2)


@pytest.mark.parametrize("attack", ["none", "measure-resend"])
def test_decoded_codes_follow_the_pair_law(attack):
    # Every decoded pair's (prepared code, decoded code), pooled over trials:
    # the code itself on a clean channel; after Eve's Z measurement, one of
    # the two codes of the prepared Z correlation, each with chance 1/2.
    law = exact_model.decode_law(attack)
    assert sum(law.values()) == 1
    assert sum(p > 0 for p in law.values()) == (4 if attack == "none" else 8)
    observed = Counter()
    for row in run(mismatch_law_config(attack, False, 600)).rows:
        for prepared, decoded in row["ab_counts"].items():
            for code, n in decoded.items():
                observed[prepared, code] += n
    total = sum(observed.values())
    assert total == 600 * 48
    assert g_test(observed, law, total) >= P_FAIL


def first_check_ordinals(config: RunConfig, t: int) -> tuple[int, ...]:
    """The pair ordinals of trial t's first-check sample, from its settle log."""
    return settled_ordinals(run_multiparty(config, t).hops[0].ledger, Disposition.CHECKED_1)


@pytest.mark.parametrize(
    "pairs, min_check_size, trials", [(64, 16, 3000), (8, 3, 3000), (5, 2, 3000)]
)
def test_each_ordinal_lands_in_check1_with_chance_s1_over_n(pairs, min_check_size, trials):
    # A uniform k-subset holds each of N ordinals with chance k/N. The counts
    # of T samples have (N - k) / (N - 1) times a multinomial's covariance.
    config = RunConfig(pairs=pairs, seed=2718, min_check_size=min_check_size)
    k = exact_model.check_size(pairs, config.check_fraction_1, min_check_size)
    observed = Counter()
    for t in range(trials):
        sample = first_check_ordinals(config, t)
        assert len(sample) == k
        observed.update(sample)
    law = dict.fromkeys(range(pairs), Fraction(1, pairs))
    p = g_test(observed, law, trials * k, scale=(pairs - k) / (pairs - 1))
    assert p >= P_FAIL


def test_every_2_subset_of_5_pairs_is_equally_likely():
    config = RunConfig(pairs=5, seed=3141, min_check_size=2)
    trials = 3000
    observed = Counter(
        tuple(sorted(first_check_ordinals(config, t)))
        for t in range(trials)
    )
    law = dict.fromkeys(combinations(range(5), 2), Fraction(1, 10))
    assert g_test(observed, law, trials) >= P_FAIL


# The sampler alone, at the edges of its sizes: every pair, one pair, one of
# many (a sample far below 1/512 of its population), and all but one of many
# (far above 511/512 of it).


def test_a_sample_of_every_element_takes_each_once():
    rng = RandomSource(5, "exact")
    for m in (1, 2, 7, 64):
        for _ in range(20):
            assert sorted(rng.sample_without_replacement(list(range(m)), m)) == list(range(m))


@pytest.mark.parametrize("m, trials", [(8, 4000), (600, 30000)])
def test_a_sample_of_one_is_uniform(m, trials):
    rng = RandomSource(6, "exact")
    observed = Counter()
    for _ in range(trials):
        (picked,) = rng.sample_without_replacement(list(range(m)), 1)
        observed[picked] += 1
    assert g_test(observed, dict.fromkeys(range(m), Fraction(1, m)), trials) >= P_FAIL


def test_the_element_left_out_of_all_but_one_is_uniform():
    m, trials = 520, 5200
    rng = RandomSource(7, "exact")
    observed = Counter()
    for _ in range(trials):
        picked = rng.sample_without_replacement(list(range(m)), m - 1)
        assert len(set(picked)) == m - 1
        observed[m * (m - 1) // 2 - sum(picked)] += 1
    assert g_test(observed, dict.fromkeys(range(m), Fraction(1, m)), trials) >= P_FAIL


# A G-test over hundreds of cells does not see one cell held at 0, as by a
# sampler whose flips can never reach some position. At 30,000 draws a
# uniform sampler misses a given one of 600 (or 520) positions with chance
# (1 - 1/600)**30000, about e**-50, so each must be reached at least once:
# the one position sampled, or the one left out.
@pytest.mark.parametrize("m, k", [(600, 1), (520, 519)])
def test_a_sample_of_one_or_all_but_one_reaches_every_position(m, k):
    rng = RandomSource(9, "exact")
    odd_one = int(k == 1)
    reached = {rng.sample_mask(m, k).index(odd_one) for _ in range(30000)}
    assert reached == set(range(m))


def test_every_3_subset_of_8_is_equally_likely():
    rng = RandomSource(8, "exact")
    trials = 5600
    observed = Counter(
        tuple(sorted(rng.sample_without_replacement(list(range(8)), 3))) for _ in range(trials)
    )
    law = dict.fromkeys(combinations(range(8), 3), Fraction(1, 56))
    assert g_test(observed, law, trials) >= P_FAIL


def test_the_g_test_rejects_what_it_should():
    law = dict.fromkeys(range(4), Fraction(1, 4))
    assert g_test(Counter({0: 250, 1: 250, 2: 250, 3: 250}), law, 1000) == 1.0
    assert g_test(Counter({0: 400, 1: 200, 2: 200, 3: 200}), law, 1000) < P_FAIL
    assert g_test(Counter({1: 1}), {0: Fraction(1), 1: Fraction(0)}, 1) == 0.0
    # The chi-square tail against known values: P(X >= 3.84) on 1 df is 0.05,
    # P(X >= 5.99) on 2 df is 0.05, and the median of 3 df is 2.366.
    assert chi2_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-6)
    assert chi2_sf(5.991465, 2) == pytest.approx(0.05, abs=1e-6)
    assert chi2_sf(2.365974, 3) == pytest.approx(0.5, abs=1e-6)
