import math

import pytest
from hypothesis import given, strategies as st

from eprqkd.analysis import (
    BB84_ACCOUNTING,
    EPR_ACCOUNTING,
    TWO_STEP_ACCOUNTING,
    EfficiencyInputs,
    JointDistribution,
    conditional_entropy,
    efficiency,
    mutual_information,
    reference_bb84,
    shannon_entropy,
)
from eprqkd.ledger import CheckReport
from eprqkd.runner import aggregate_rows


class TestShannonEntropy:
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


def diagonal_uniform4() -> JointDistribution:
    codes = ("00", "01", "10", "11")
    return JointDistribution(
        codes, codes, [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)]
    )


def independent_uniform4() -> JointDistribution:
    codes = ("00", "01", "10", "11")
    return JointDistribution(codes, codes, [[1 / 16] * 4] * 4)


class TestJointDistribution:
    def test_from_counts(self):
        joint = JointDistribution.from_counts({"a": {"x": 3, "y": 1}, "b": {"y": 4}})
        assert joint.outcomes_x == ("a", "b")
        assert joint.outcomes_y == ("x", "y")
        assert joint.p[0][0] == pytest.approx(3 / 8)
        assert joint.marginal_x() == pytest.approx([0.5, 0.5])

    def test_p_is_a_tuple_of_row_tuples(self):
        joint = JointDistribution(("a", "b"), ("x",), [[0.5], [0.5]])
        assert joint.p == ((0.5,), (0.5,))
        assert joint.transposed().p == ((0.5, 0.5),)

    def test_from_counts_empty_rejected(self):
        with pytest.raises(ValueError):
            JointDistribution.from_counts({})

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
            JointDistribution.from_counts({"a": {"x": 3, "y": cell}})

    def test_from_counts_zero_total_rejected(self):
        with pytest.raises(ValueError):
            JointDistribution.from_counts({"a": {"x": 0}})


class TestConditionalEntropy:
    def test_diagonal_determines_x(self):
        assert conditional_entropy(diagonal_uniform4()) == pytest.approx(0.0, abs=1e-12)

    def test_independent_equals_marginal_entropy(self):
        assert conditional_entropy(independent_uniform4()) == pytest.approx(2.0, abs=1e-12)

    def test_hand_computed_case(self):
        # p(x=0, y=0) = 1/2, p(x=1, y=0) = 1/4, p(x=1, y=1) = 1/4:
        # H(X|Y) = (3/4) H(1/3, 2/3) = 0.688722 by hand.
        joint = JointDistribution(
            ("0", "1"), ("0", "1"), [[0.5, 0.0], [0.25, 0.25]]
        )
        assert conditional_entropy(joint) == pytest.approx(0.688722, abs=1e-6)
        by_hand = 0.75 * ((1 / 3) * math.log2(3) + (2 / 3) * math.log2(1.5))
        assert conditional_entropy(joint) == pytest.approx(by_hand, abs=1e-12)


def bb84_intercept_resend_joints():
    """Enumerate BB84 with an intercept-resend adversary, no sifting.

    The sender picks a uniform bit and basis; the adversary measures in a
    uniform basis and resends what she saw; the receiver measures in a
    uniform basis. Measuring in the preparation basis reproduces the bit,
    any other basis gives a uniform outcome. Returns the exact joints
    (sender, receiver) and (sender, adversary).
    """
    ab: dict[str, dict[str, float]] = {"0": {"0": 0, "1": 0}, "1": {"0": 0, "1": 0}}
    ae: dict[str, dict[str, float]] = {"0": {"0": 0, "1": 0}, "1": {"0": 0, "1": 0}}
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
                            w = (1 / 16) * p_e * p_b
                            ab[str(a)][str(b)] += w
                            ae[str(a)][str(e)] += w
    to_joint = lambda d: JointDistribution(
        ("0", "1"), ("0", "1"), [[d["0"]["0"], d["0"]["1"]], [d["1"]["0"], d["1"]["1"]]]
    )
    return to_joint(ab), to_joint(ae)


class TestMutualInformation:
    def test_diagonal_uniform4_is_two_bits(self):
        assert mutual_information(diagonal_uniform4()) == pytest.approx(2.0, abs=1e-12)

    def test_independent_is_zero(self):
        assert mutual_information(independent_uniform4()) == pytest.approx(0.0, abs=1e-12)

    def test_bb84_enumeration_matches_reference_constants(self):
        ab, ae = bb84_intercept_resend_joints()
        ref = reference_bb84()
        assert mutual_information(ab) == pytest.approx(ref.i_ab_attacked, abs=1e-12)
        assert mutual_information(ae) == pytest.approx(ref.i_ae, abs=1e-12)
        assert mutual_information(ab) == pytest.approx(0.189, abs=0.15)  # sanity scale

    def test_bb84_attacked_value(self):
        ab, _ = bb84_intercept_resend_joints()
        assert mutual_information(ab) == pytest.approx(0.046, abs=5e-4)

    def test_pooled_table_value_is_exact(self):
        # Report bytes carry this float. A vectorised AVX-512 log2 gives
        # 0.3692250536692661 here; math.log2 gives the same value on any CPU.
        joint = JointDistribution.from_counts({"00": {"00": 10, "01": 6}, "01": {"01": 56}})
        assert repr(mutual_information(joint)) == "0.36922505366926617"


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


def _check(mismatches, size):
    return CheckReport("first", tuple(range(size)), mismatches, 0.02).to_dict()


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
def joints(draw):
    nx = draw(st.integers(2, 4))
    ny = draw(st.integers(2, 4))
    cells = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=nx * ny,
            max_size=nx * ny,
        )
    )
    if sum(cells) <= 0:
        cells[0] = 1.0
    total = sum(cells)
    matrix = [[cells[i * ny + j] / total for j in range(ny)] for i in range(nx)]
    xs = tuple(f"x{i}" for i in range(nx))
    ys = tuple(f"y{j}" for j in range(ny))
    return JointDistribution(xs, ys, matrix)


@given(joints())
def test_mutual_information_is_symmetric(joint):
    assert mutual_information(joint) == pytest.approx(
        mutual_information(joint.transposed()), abs=1e-9
    )


@given(joints())
def test_mutual_information_bounds(joint):
    i = mutual_information(joint)
    assert i >= 0.0
    assert i <= shannon_entropy(joint.marginal_x()) + 1e-9
    assert i <= shannon_entropy(joint.marginal_y()) + 1e-9


@given(joints())
def test_marginal_entropy_consistency(joint):
    # H computed from the joint's own marginal is the marginal's entropy.
    h_x = shannon_entropy(joint.marginal_x())
    h_y = shannon_entropy(joint.marginal_y())
    assert conditional_entropy(joint) <= h_x + 1e-9
    assert conditional_entropy(joint.transposed()) <= h_y + 1e-9
    # I = H(X) - H(X|Y) = H(Y) - H(Y|X), both forms agree.
    assert h_x - conditional_entropy(joint) == pytest.approx(
        h_y - conditional_entropy(joint.transposed()), abs=1e-9
    )
