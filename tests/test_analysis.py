import math

import pytest
from hypothesis import example, given, settings, strategies as st

from eprqkd.analysis import (
    BB84_ACCOUNTING,
    EPR_ACCOUNTING,
    TWO_STEP_ACCOUNTING,
    EfficiencyInputs,
    efficiency,
    mutual_information,
    reference_bb84,
)
from eprqkd.errors import ConfigurationError
from eprqkd.ledger import CheckReport
from eprqkd.runner import aggregate_rows

from information_reference import (
    JointDistribution,
    conditional_entropy,
    from_counts,
    reference_mutual_information,
    shannon_entropy,
)

CODES = ("00", "01", "10", "11")


class TestShannonEntropy:
    """The reference's entropy and its validation."""

    def test_uniform_over_four(self):
        assert shannon_entropy([0.25, 0.25, 0.25, 0.25]) == pytest.approx(2.0, abs=1e-12)

    def test_deterministic(self):
        assert shannon_entropy([1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_five_eighths_three_eighths(self):
        # Hand value: (5/8)log2(8/5) + (3/8)log2(8/3) = 0.954434
        assert shannon_entropy([5 / 8, 3 / 8]) == pytest.approx(0.954434, abs=1e-6)
        direct = (5 / 8) * math.log2(8 / 5) + (3 / 8) * math.log2(8 / 3)
        assert shannon_entropy([5 / 8, 3 / 8]) == pytest.approx(direct, abs=1e-12)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy([-0.1, 1.1])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy([0.5, 0.4])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            shannon_entropy([bad])
        with pytest.raises(ValueError, match="finite"):
            shannon_entropy([1.0, bad])


def diagonal_uniform4() -> dict:
    return {code: {code: 1} for code in CODES}


def independent_uniform4() -> dict:
    return {x: dict.fromkeys(CODES, 1) for x in CODES}


class TestJointDistribution:
    """The reference's joint, which checks its cells and counts."""

    def test_from_counts(self):
        joint = from_counts({"a": {"x": 3, "y": 1}, "b": {"y": 4}})
        assert joint.outcomes_x == ("a", "b")
        assert joint.outcomes_y == ("x", "y")
        assert joint.p[0][0] == pytest.approx(3 / 8)
        assert joint.marginal_x() == pytest.approx([0.5, 0.5])

    def test_p_is_a_tuple_of_row_tuples(self):
        joint = JointDistribution(("a", "b"), ("x",), [[0.5], [0.5]])
        assert joint.p == ((0.5,), (0.5,))

    def test_from_counts_empty_rejected(self):
        with pytest.raises(ValueError):
            from_counts({})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            JointDistribution(("a",), ("x", "y"), [[0.25, 0.25], [0.25, 0.25]])

    @pytest.mark.parametrize("rows", [[0.5, 0.5], [[0.5], [0.25, 0.25]]], ids=["flat", "ragged"])
    def test_rows_not_matching_outcomes_rejected(self, rows):
        with pytest.raises(ValueError):
            JointDistribution(("a", "b"), ("x",), rows)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            JointDistribution(("a", "b"), ("x",), [[0.3], [0.3]])

    @pytest.mark.parametrize("cell", [-0.5, float("nan"), float("inf")])
    def test_cell_not_finite_and_nonnegative_rejected(self, cell):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            JointDistribution(("a", "b"), ("x",), [[cell], [1.0]])

    @pytest.mark.parametrize("cell", [float("nan"), 1.0, True, -1, "3", None])
    def test_from_counts_rejects_cells_that_are_not_nonnegative_ints(self, cell):
        with pytest.raises(ValueError, match="nonnegative ints"):
            from_counts({"a": {"x": 3, "y": cell}})

    def test_from_counts_zero_total_rejected(self):
        with pytest.raises(ValueError):
            from_counts({"a": {"x": 0}})


class TestConditionalEntropy:
    """The reference's H(X|Y)."""

    def test_diagonal_determines_x(self):
        joint = from_counts(diagonal_uniform4())
        assert conditional_entropy(joint) == pytest.approx(0.0, abs=1e-12)

    def test_independent_equals_marginal_entropy(self):
        joint = from_counts(independent_uniform4())
        assert conditional_entropy(joint) == pytest.approx(2.0, abs=1e-12)

    def test_hand_computed_case(self):
        # p(x=0, y=0) = 1/2, p(x=1, y=0) = 1/4, p(x=1, y=1) = 1/4:
        # H(X|Y) = (3/4) H(1/3, 2/3) = 0.688722 by hand.
        joint = JointDistribution(
            ("0", "1"), ("0", "1"), [[0.5, 0.0], [0.25, 0.25]]
        )
        assert conditional_entropy(joint) == pytest.approx(0.688722, abs=1e-6)
        by_hand = 0.75 * ((1 / 3) * math.log2(3) + (2 / 3) * math.log2(1.5))
        assert conditional_entropy(joint) == pytest.approx(by_hand, abs=1e-12)


def bb84_intercept_resend_counts():
    """Enumerate BB84 with an intercept-resend adversary, no sifting.

    The sender picks a uniform bit and basis; the adversary measures in a
    uniform basis and resends what she saw; the receiver measures in a
    uniform basis. Measuring in the preparation basis reproduces the bit,
    any other basis gives a uniform outcome. Returns the exact joints
    (sender, receiver) and (sender, adversary) as counts out of 64, each
    outcome's probability times 64.
    """
    ab = {"0": {"0": 0, "1": 0}, "1": {"0": 0, "1": 0}}
    ae = {"0": {"0": 0, "1": 0}, "1": {"0": 0, "1": 0}}
    for a in (0, 1):
        for basis_a in (0, 1):
            for basis_e in (0, 1):
                eve_outcomes = {a: 1.0} if basis_e == basis_a else {0: 0.5, 1: 0.5}
                for e, p_e in eve_outcomes.items():
                    for basis_b in (0, 1):
                        bob_outcomes = (
                            {e: 1.0} if basis_b == basis_e else {0: 0.5, 1: 0.5}
                        )
                        for b, p_b in bob_outcomes.items():
                            n = int(64 * (1 / 16) * p_e * p_b)
                            ab[str(a)][str(b)] += n
                            ae[str(a)][str(e)] += n
    return ab, ae


class TestMutualInformation:
    def test_diagonal_uniform4_is_two_bits(self):
        assert mutual_information(diagonal_uniform4()) == pytest.approx(2.0, abs=1e-12)

    def test_independent_is_zero(self):
        assert mutual_information(independent_uniform4()) == pytest.approx(0.0, abs=1e-12)

    def test_bb84_enumeration_matches_reference_constants(self):
        ab, ae = bb84_intercept_resend_counts()
        ref = reference_bb84()
        assert mutual_information(ab) == pytest.approx(ref.i_ab_attacked, abs=1e-12)
        assert mutual_information(ae) == pytest.approx(ref.i_ae, abs=1e-12)
        assert mutual_information(ab) == pytest.approx(0.189, abs=0.15)  # sanity scale

    def test_bb84_attacked_value(self):
        ab, _ = bb84_intercept_resend_counts()
        assert mutual_information(ab) == pytest.approx(0.046, abs=5e-4)

    def test_pooled_table_value_is_exact(self):
        # Report bytes carry this float. A vectorised AVX-512 log2 gives
        # 0.3692250536692661 here; math.log2 gives the same value on any CPU.
        counts = {"00": {"00": 10, "01": 6}, "01": {"01": 56}}
        assert repr(mutual_information(counts)) == "0.36922505366926617"


class TestReferenceBb84:
    def test_three_decimal_values(self):
        ref = reference_bb84()
        assert round(ref.i_ab_attacked, 3) == 0.046
        assert round(ref.i_ae, 3) == 0.189
        assert round(ref.i_ab_clean, 3) == 0.189

    def test_closed_forms(self):
        ref = reference_bb84()
        assert ref.i_ab_attacked == pytest.approx(
            (5 / 8) * math.log2(5) + (3 / 8) * math.log2(3) - 2, abs=1e-15
        )
        assert ref.i_ae == pytest.approx((3 / 4) * math.log2(3) - 1, abs=1e-15)
        assert ref.i_ab_clean == ref.i_ae


class TestEfficiency:
    def test_reference_accountings(self):
        assert efficiency(BB84_ACCOUNTING) == 0.25
        assert efficiency(EPR_ACCOUNTING) == 0.5
        assert efficiency(TWO_STEP_ACCOUNTING) == 1.0

    def test_custom(self):
        assert efficiency(EfficiencyInputs(1, 1, 3)) == 0.25

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            EfficiencyInputs(1, 0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EfficiencyInputs(-1, 1, 0)

    @pytest.mark.parametrize(
        "value, error, message",
        [
            (True, ConfigurationError, "^secret_bits must be float"),
            ("x", ConfigurationError, "^secret_bits must be float"),
            (math.nan, ValueError, "finite and nonnegative"),
            (math.inf, ValueError, "finite and nonnegative"),
        ],
        ids=["bool", "str", "nan", "inf"],
    )
    def test_a_value_that_is_no_finite_number_rejected(self, value, error, message):
        with pytest.raises(error, match=message):
            EfficiencyInputs(value, 1, 1)


def _check(mismatches, size):
    return CheckReport(size, mismatches, 0.02).to_dict()


def _row(check1=None, check2=None):
    """A synthetic report row carrying only check results."""
    return {
        "abort_reason": None,
        "keys_agree": True,
        "key_length": 2,
        "receipt_fraction_1": 1.0,
        "receipt_fraction_2": 1.0,
        "check1": check1,
        "check2": check2,
        "ab_counts": {},
        "ae_counts": {},
    }


class TestQber:
    """Check error rates pool per check across trial rows, in aggregate_rows."""

    def test_pools_by_check(self):
        agg = aggregate_rows([_row(_check(0, 100), _check(50, 100))])
        assert agg["check1"]["error_rate"] == 0.0
        assert agg["check1"]["stderr"] == 0.0
        assert agg["check2"]["error_rate"] == 0.5
        assert agg["check2"]["samples"] == 100
        assert agg["check2"]["mismatches"] == 50

    def test_stderr_at_half(self):
        agg = aggregate_rows([_row(check2=_check(5000, 10_000))])
        assert agg["check2"]["stderr"] == pytest.approx(0.005, abs=1e-12)

    def test_multiple_reports_pool(self):
        agg = aggregate_rows([_row(_check(1, 10)), _row(_check(3, 10))])
        assert agg["check1"]["mismatches"] == 4
        assert agg["check1"]["samples"] == 20
        assert agg["check1"]["error_rate"] == 0.2
        assert agg["check2"] is None


@st.composite
def count_tables(draw):
    """{x: {y: count}} tallies over 1-4 x 1-4 labels, with zero cells,
    labels missing from some rows and counts up to 10**6."""
    labels = st.sampled_from(CODES)
    xs = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
    ys = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
    counts = {
        x: draw(st.dictionaries(st.sampled_from(ys), st.integers(0, 10**6))) for x in xs
    }
    if not any(n for row in counts.values() for n in row.values()):
        counts[xs[0]][ys[0]] = 1
    return counts


def transposed(counts: dict) -> dict:
    """The same tallies with X and Y swapped."""
    swapped: dict = {}
    for x, row in counts.items():
        for y, n in row.items():
            swapped.setdefault(y, {})[x] = n
    return swapped


@given(count_tables())
def test_mutual_information_is_symmetric(counts):
    assert mutual_information(counts) == pytest.approx(
        mutual_information(transposed(counts)), abs=1e-9
    )


@given(count_tables())
def test_mutual_information_bounds(counts):
    i = mutual_information(counts)
    joint = from_counts(counts)
    assert i >= 0.0
    assert i <= shannon_entropy(joint.marginal_x()) + 1e-9
    assert i <= shannon_entropy(joint.marginal_y()) + 1e-9


@given(count_tables())
def test_marginal_entropy_consistency(counts):
    # H computed from the joint's own marginal is the marginal's entropy.
    joint, swapped = from_counts(counts), from_counts(transposed(counts))
    h_x = shannon_entropy(joint.marginal_x())
    h_y = shannon_entropy(joint.marginal_y())
    assert conditional_entropy(joint) <= h_x + 1e-9
    assert conditional_entropy(swapped) <= h_y + 1e-9
    # I = H(X) - H(X|Y) = H(Y) - H(Y|X), both forms agree.
    assert h_x - conditional_entropy(joint) == pytest.approx(
        h_y - conditional_entropy(swapped), abs=1e-9
    )


@settings(max_examples=300)
@given(count_tables())
@example({"00": {"00": 10, "01": 6}, "01": {"01": 56}})
@example({"00": {"00": 1}})
@example({"00": {"00": 0, "01": 3}, "11": {"00": 0}})
def test_mutual_information_is_the_reference_float(counts):
    # The engine's one pass makes the reference's float operations, in its
    # order, and rejects the same tables with the same errors.
    assert mutual_information(counts).hex() == reference_mutual_information(counts).hex()
    zeros = {x: dict.fromkeys(row, 0) for x, row in counts.items()}
    empty_rows = dict.fromkeys(counts, {})
    for information in (mutual_information, reference_mutual_information):
        with pytest.raises(ValueError, match="^counts sum to zero$"):
            information(zeros)
        with pytest.raises(ValueError, match="^cannot build a joint distribution from empty counts$"):
            information(empty_rows)


@given(count_tables())
def test_from_counts_equals_the_validating_constructor(counts):
    # The reference builds its joint from counts through the constructor
    # that checks every cell, and the engine's float matches that joint's.
    joint = from_counts(counts)
    assert joint == JointDistribution(joint.outcomes_x, joint.outcomes_y, joint.p)
    assert mutual_information(counts).hex() == reference_mutual_information(counts).hex()
    zeros = {x: dict.fromkeys(row, 0) for x, row in counts.items()}
    for build in (from_counts, mutual_information):
        with pytest.raises(ValueError, match="^counts sum to zero$"):
            build(zeros)
