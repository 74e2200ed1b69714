import math
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

import amplitude_oracle as oracle
from amplitude_oracle import ORACLE_BELL, S, TwoQubitState, amplitudes_of
from eprqkd.quantum import (
    BELL_LABELS,
    KEYS,
    MEASURE,
    N_STATES,
    OPS,
    P0,
    PAIR_BASIS,
    PRODUCTS,
    BellState,
    basis_state,
    bell_overlap_probabilities,
    make_bell_state,
    measure_bell_basis,
    measure_column,
    measure_qubit,
    measure_qubit_z,
    product_state,
    qubit_probabilities,
    qubit_z_probabilities,
)
from eprqkd.rng import RandomSource, three_sigma

# Every state the protocol can reach, by code: the four pair states and the
# 16 products of single-qubit Z/X eigenstates.
REACHABLE = list(range(N_STATES))
OPERATIONS = [("first", "z"), ("first", "x"), ("second", "z"), ("second", "x"), "bell"]


def oracle_overlaps(amplitudes):
    """Brute-force |<psi_L|state>|^2 against the hand-written table."""
    result = {}
    for label, bell in ORACLE_BELL.items():
        ip = sum(complex(b).conjugate() * a for b, a in zip(bell, amplitudes))
        result[label] = abs(ip) ** 2
    return result


def combine(*terms):
    """Sum of (coefficient, closed-form state) terms as an amplitude tuple."""
    return tuple(
        sum(c * amplitudes_of(state).amplitudes[i] for c, state in terms) for i in range(4)
    )


class ScriptedSource(RandomSource):
    """A RandomSource whose every draw returns ``r``; counts the draws."""

    def __init__(self, r: float):
        super().__init__(0, "scripted")
        self.r, self.draws = r, 0
        self._rng = self  # the base class's samplers all draw through random()

    def random(self) -> float:
        self.draws += 1
        return self.r

    def getrandbits(self, k: int) -> int:
        """k / 64 draws through random(), each packed as the two 32-bit words
        the Mersenne Twister would have produced for it, first word least
        significant."""
        words = 0
        for n in range(k // 64):
            x = int(self.random() * 2**53)
            pair = (x >> 26) << 5 | ((x & (2**26 - 1)) << 6) << 32
            words |= pair << (64 * n)
        return words


class TestBellStates:
    def test_psi1_amplitudes(self):
        expected = combine((S, basis_state("00")), (S, basis_state("11")))
        amps = amplitudes_of(make_bell_state(BellState.PSI1)).amplitudes
        assert amps == pytest.approx(expected, abs=1e-15)

    def test_psi4_amplitudes(self):
        # The minus sign sits on |01>: the state is (|10> - |01>)/sqrt(2).
        expected = combine((S, basis_state("10")), (-S, basis_state("01")))
        amps = amplitudes_of(make_bell_state(BellState.PSI4)).amplitudes
        assert amps == pytest.approx(expected, abs=1e-15)
        assert amps == pytest.approx((0, -S, S, 0), abs=1e-15)

    def test_matches_hand_written_table(self):
        # The closed form's correlation rules, read off the table: equal Z
        # bits means no weight on |01>, |10>; equal X bits means the same
        # after a Hadamard on each qubit.
        for label in BELL_LABELS:
            amps = TwoQubitState(tuple(complex(a) for a in ORACLE_BELL[label]))
            assert make_bell_state(label) == label
            for basis in ("z", "x"):
                if basis == "x":
                    amps = oracle._hadamard(oracle._hadamard(amps, "first"), "second")
                unequal = abs(amps.amplitudes[1]) ** 2 + abs(amps.amplitudes[2]) ** 2
                assert label.correlated_in(basis) == (unequal < 1e-12)

    def test_normalized(self):
        for label in BELL_LABELS:
            state = amplitudes_of(make_bell_state(label))
            assert abs(state.inner_product(state) - 1.0) < 1e-12

    def test_orthonormal(self):
        for a in BELL_LABELS:
            for b in BELL_LABELS:
                ip = amplitudes_of(a).inner_product(amplitudes_of(b))
                assert abs(ip - (1.0 if a is b else 0.0)) < 1e-12

    def test_code_encoding(self):
        assert [label.code for label in BELL_LABELS] == ["00", "01", "10", "11"]

    def test_code_bijection(self):
        for label in BELL_LABELS:
            assert BellState.from_code(label.code) is label
        for code in ("00", "01", "10", "11"):
            assert BellState.from_code(code).code == code

    def test_bad_code_rejected(self):
        for bad in ("0", "012", "ab", "2 "):
            with pytest.raises(ValueError):
                BellState.from_code(bad)

    def test_parity_classes(self):
        assert BellState.PSI1.correlated and BellState.PSI2.correlated
        assert not BellState.PSI3.correlated and not BellState.PSI4.correlated


class TestStateValidation:
    # The amplitude oracle rejects vectors that are not states.
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            TwoQubitState((1.0 + 0j, 1.0 + 0j, 0j, 0j))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            TwoQubitState((1.0 + 0j, 0j, 0j))

    def test_basis_state(self):
        assert PRODUCTS[basis_state("10") - len(BELL_LABELS)] == (("z", 1), ("z", 0))
        assert basis_state("10") == product_state(("z", 1), ("z", 0))
        assert amplitudes_of(basis_state("10")).amplitudes == (0j, 0j, 1.0 + 0j, 0j)
        for bad in ("2x", "0", "011", " 1"):
            with pytest.raises(ValueError):
                basis_state(bad)


class TestZMeasurement:
    def test_every_bell_marginal_is_exactly_half(self):
        for label in BELL_LABELS:
            state = make_bell_state(label)
            for which in ("first", "second"):
                assert qubit_z_probabilities(state, which) == (0.5, 0.5)
                assert qubit_probabilities(state, which, "x") == (0.5, 0.5)

    def test_basis_state_is_deterministic(self):
        rng = RandomSource(1)
        for _ in range(20):
            bit, post = measure_qubit_z(basis_state("00"), "first", rng)
            assert bit == 0
            assert post == basis_state("00")

    def test_psi1_collapses_to_00_or_11(self):
        rng = RandomSource(2)
        seen = set()
        for _ in range(200):
            bit, post = measure_qubit_z(make_bell_state(BellState.PSI1), "first", rng)
            assert post == (basis_state("00") if bit == 0 else basis_state("11"))
            seen.add(bit)
        assert seen == {0, 1}

    def test_psi3_outcome0_gives_01(self):
        rng = RandomSource(3)
        for _ in range(100):
            bit, post = measure_qubit_z(make_bell_state(BellState.PSI3), "first", rng)
            if bit == 0:
                assert post == basis_state("01")

    @pytest.mark.parametrize("label", BELL_LABELS)
    def test_sequential_parity_is_deterministic(self, label):
        # Measuring both halves always gives equal bits for PSI1/PSI2 and
        # opposite bits for PSI3/PSI4.
        rng = RandomSource(4)
        for _ in range(200):
            first, post = measure_qubit_z(make_bell_state(label), "first", rng)
            second, _ = measure_qubit_z(post, "second", rng)
            assert (first == second) == label.correlated

    def test_second_bit_is_certain_after_first(self):
        rng = RandomSource(5)
        for label in BELL_LABELS:
            _, post = measure_qubit_z(make_bell_state(label), "first", rng)
            p0, p1 = qubit_z_probabilities(post, "second")
            assert max(p0, p1) == 1.0

    def test_invalid_qubit_name_rejected(self):
        state = make_bell_state(BellState.PSI1)
        with pytest.raises(ValueError):
            qubit_z_probabilities(state, "third")
        rng = ScriptedSource(0.5)
        with pytest.raises(ValueError):
            measure_qubit(state, "third", "x", rng)
        assert rng.draws == 0

    def test_sampled_marginal_matches_exact(self):
        rng = RandomSource(6)
        n = 20_000
        ones = sum(
            measure_qubit_z(make_bell_state(BellState.PSI2), "second", rng)[0]
            for _ in range(n)
        )
        assert abs(ones / n - 0.5) < three_sigma(0.5, n)


class TestXMeasurement:
    def test_plus_plus_is_an_eigenstate(self):
        rng = RandomSource(40)
        plus_plus = product_state(("x", 0), ("x", 0))
        assert amplitudes_of(plus_plus).amplitudes == pytest.approx((0.5,) * 4, abs=1e-15)
        for which in ("first", "second"):
            bit, post = measure_qubit(plus_plus, which, "x", rng)
            assert bit == 0
            assert post == plus_plus

    def test_psi1_collapses_to_matching_x_products(self):
        rng = RandomSource(41)
        seen = set()
        for _ in range(100):
            bit, post = measure_qubit(make_bell_state(BellState.PSI1), "first", "x", rng)
            assert post == product_state(("x", bit), ("x", bit))
            seen.add(bit)
        assert seen == {0, 1}

    @pytest.mark.parametrize("label", BELL_LABELS)
    def test_x_parity_classes(self, label):
        # PSI1 and PSI3 agree in X, PSI2 and PSI4 disagree.
        rng = RandomSource(42)
        for _ in range(100):
            first, post = measure_qubit(make_bell_state(label), "first", "x", rng)
            second, _ = measure_qubit(post, "second", "x", rng)
            assert (first == second) == label.correlated_in("x")

    def test_correlated_in_matches_z_property(self):
        for label in BELL_LABELS:
            assert label.correlated_in("z") == label.correlated
        with pytest.raises(ValueError):
            BellState.PSI1.correlated_in("y")

    def test_dispatcher(self):
        rng = RandomSource(43)
        state = make_bell_state(BellState.PSI2)
        assert measure_qubit(state, "first", "z", rng)[0] in (0, 1)
        assert measure_qubit(state, "first", "x", rng)[0] in (0, 1)
        with pytest.raises(ValueError):
            measure_qubit(state, "first", "bell", rng)


class TestBellMeasurement:
    def test_eigenstate_is_deterministic(self):
        rng = RandomSource(7)
        for label in BELL_LABELS:
            for _ in range(10):
                outcome, post = measure_bell_basis(make_bell_state(label), rng)
                assert outcome is label
                assert post == make_bell_state(label)

    def test_overlaps_of_psi1(self):
        probs = bell_overlap_probabilities(make_bell_state(BellState.PSI1))
        assert probs[BellState.PSI1] == pytest.approx(1.0, abs=1e-12)
        for label in (BellState.PSI2, BellState.PSI3, BellState.PSI4):
            assert probs[label] == pytest.approx(0.0, abs=1e-12)

    def test_overlaps_of_00(self):
        # |00> splits evenly between the two correlated pair states.
        probs = bell_overlap_probabilities(basis_state("00"))
        assert probs[BellState.PSI1] == pytest.approx(0.5, abs=1e-12)
        assert probs[BellState.PSI2] == pytest.approx(0.5, abs=1e-12)
        assert probs[BellState.PSI3] == pytest.approx(0.0, abs=1e-12)
        assert probs[BellState.PSI4] == pytest.approx(0.0, abs=1e-12)

    def test_overlaps_of_01(self):
        # Oracle value: |01> lives entirely in the anticorrelated class,
        # half PSI3 and half PSI4.
        state = basis_state("01")
        expected = oracle_overlaps(amplitudes_of(state).amplitudes)
        assert expected[BellState.PSI3] == pytest.approx(0.5, abs=1e-12)
        assert expected[BellState.PSI4] == pytest.approx(0.5, abs=1e-12)
        probs = bell_overlap_probabilities(state)
        for label in BELL_LABELS:
            assert probs[label] == pytest.approx(expected[label], abs=1e-12)

    def test_overlaps_of_00_plus_01_superposition(self):
        # Oracle value: (|00> + |01>)/sqrt(2), the product |0>|+>, overlaps
        # all four equally.
        amps = (S + 0j, S + 0j, 0j, 0j)
        expected = oracle_overlaps(amps)
        assert all(p == pytest.approx(0.25, abs=1e-12) for p in expected.values())
        zero_plus = product_state(("z", 0), ("x", 0))
        assert amplitudes_of(zero_plus).amplitudes == pytest.approx(amps, abs=1e-15)
        probs = bell_overlap_probabilities(zero_plus)
        for label in BELL_LABELS:
            assert probs[label] == pytest.approx(0.25, abs=1e-12)

    def test_collapsed_products_stay_in_parity_class(self):
        correlated = {BellState.PSI1, BellState.PSI2}
        for bits in ("00", "11"):
            probs = bell_overlap_probabilities(basis_state(bits))
            assert sum(probs[l] for l in correlated) == pytest.approx(1.0, abs=1e-12)
        for bits in ("01", "10"):
            probs = bell_overlap_probabilities(basis_state(bits))
            assert sum(probs[l] for l in correlated) == pytest.approx(0.0, abs=1e-12)

    def test_sampled_frequencies_match_overlaps(self):
        rng = RandomSource(8)
        n = 20_000
        counts = {label: 0 for label in BELL_LABELS}
        for _ in range(n):
            outcome, _ = measure_bell_basis(basis_state("11"), rng)
            counts[outcome] += 1
        assert counts[BellState.PSI3] == 0 and counts[BellState.PSI4] == 0
        assert abs(counts[BellState.PSI1] / n - 0.5) < three_sigma(0.5, n)

    def test_replay_determinism(self):
        def sequence():
            rng = RandomSource(99, "replay")
            return [
                measure_bell_basis(basis_state("00"), rng)[0] for _ in range(100)
            ]

        assert sequence() == sequence()


def _closed_form(state, operation, rng):
    if operation == "bell":
        return bell_overlap_probabilities(state), *measure_bell_basis(state, rng)
    which, basis = operation
    p0, p1 = qubit_probabilities(state, which, basis)
    return {0: p0, 1: p1}, *measure_qubit(state, which, basis, rng)


def _reference(state, operation, rng):
    amps = amplitudes_of(state)
    if operation == "bell":
        return oracle.bell_overlaps(amps), *oracle.measure_bell_basis(amps, rng)
    which, basis = operation
    p0, p1 = oracle.qubit_probabilities(amps, which, basis)
    return {0: p0, 1: p1}, *oracle.measure_qubit(amps, which, basis, rng)


def _id(value):
    """0 -> PSI1, 5 -> z0z1, ("first", "x") -> first-x, "bell" -> bell."""
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return "-".join(value)
    if value < len(BELL_LABELS):
        return BELL_LABELS[value].name
    return "".join(f"{basis}{bit}" for basis, bit in PRODUCTS[value - len(BELL_LABELS)])


@pytest.mark.parametrize("operation", OPERATIONS, ids=_id)
@pytest.mark.parametrize("state", REACHABLE, ids=_id)
def test_closed_form_matches_amplitude_oracle(state, operation):
    # The table entries for this (state, operation) against the oracle's
    # exact distribution; together the 100 cases pin every entry of P0, the
    # running sums of the pair-basis probabilities, and which outcomes the
    # MEASURE row reaches (exactly those of nonzero weight).
    amps = amplitudes_of(state)
    op = OPERATIONS.index(operation)
    if operation == "bell":
        overlaps = oracle.bell_overlaps(amps)
        expected = list(accumulate(overlaps[label] for label in BELL_LABELS))
        sums = list(accumulate(bell_overlap_probabilities(state).values()))
        assert sums == pytest.approx(expected, abs=1e-12)
        possible = {int(label) for label, p in overlaps.items() if p > 1e-12}
    else:
        p0, p1 = oracle.qubit_probabilities(amps, *operation)
        assert abs(P0[state][op] - p0) < 1e-12
        possible = {outcome for outcome, p in enumerate((p0, p1)) if p > 1e-12}
    assert {MEASURE[state][op << 2 | q][0] for q in range(4)} == possible
    # Every outcome probability takes a value in {0, 1/4, 1/2, 1}, so draws
    # at the midpoints of eighths reach every outcome of nonzero weight.
    for k in range(8):
        rng, ref_rng = ScriptedSource((k + 0.5) / 8), ScriptedSource((k + 0.5) / 8)
        probs, outcome, post = _closed_form(state, operation, rng)
        ref_probs, ref_outcome, ref_post = _reference(state, operation, ref_rng)
        assert rng.draws == 1 and ref_rng.draws == 1
        assert probs.keys() == ref_probs.keys()
        for key in probs:
            assert abs(probs[key] - ref_probs[key]) < 1e-12
        assert outcome == ref_outcome
        assert post in REACHABLE
        assert abs(oracle.fidelity(amplitudes_of(post), ref_post) - 1.0) < 1e-12


# The column kernel over an index list, keyed by one draw each, makes the
# same draws, in the same order, as one scalar call per index: same post
# states, same outcomes, and the generator left in the same state. Each index
# has its own operation, any of the five. Indices may repeat; a repeat
# measures the already updated state, as the next scalar call would.

columns_and_measurements = st.lists(
    st.integers(0, N_STATES - 1), min_size=1, max_size=30
).flatmap(
    lambda column: st.tuples(
        st.just(column),
        st.lists(
            st.tuples(st.integers(0, len(column) - 1), st.integers(0, PAIR_BASIS)),
            max_size=40,
        ),
    )
)


def _one_draw_each(seed, stream, n):
    """A stream's generator state after n draws through ``random()``."""
    rng = RandomSource(seed, stream)
    for _ in range(n):
        rng.random()
    return rng._rng.getstate()


def _scalar(state, op, rng):
    """(outcome, post state) of operation ``op`` through a scalar kernel."""
    if op == PAIR_BASIS:
        label, post = measure_bell_basis(state, rng)
        return int(label), post
    which, basis = OPERATIONS[op]
    return measure_qubit(state, which, basis, rng)


@given(columns_and_measurements, st.integers(0, 2**32))
def test_measure_column_matches_scalar_loop(column_and_measurements, seed):
    column, measurements = column_and_measurements
    indices = [i for i, _ in measurements]
    rng, ref_rng = RandomSource(seed, "column"), RandomSource(seed, "column")
    quarters = rng.quarters(len(measurements))
    keys = bytes(KEYS[op][q] for (_, op), q in zip(measurements, quarters))
    measured = list(column)
    outcomes = measure_column(measured, indices, keys)
    expected, expected_outcomes = list(column), []
    for i, op in measurements:
        outcome, expected[i] = _scalar(expected[i], op, ref_rng)
        expected_outcomes.append(outcome)
    assert measured == expected
    assert outcomes == expected_outcomes
    assert rng._rng.getstate() == ref_rng._rng.getstate()
    assert rng._rng.getstate() == _one_draw_each(seed, "column", len(measurements))


@given(columns_and_measurements, st.integers(0, 2**32))
def test_measure_bell_column_matches_scalar_loop(column_and_measurements, seed):
    column, measurements = column_and_measurements
    indices = [i for i, _ in measurements]
    rng, ref_rng = RandomSource(seed, "bell-column"), RandomSource(seed, "bell-column")
    keys = rng.quarters(len(indices)).translate(KEYS[PAIR_BASIS])
    measured = list(column)
    outcomes = measure_column(measured, indices, keys)
    expected, expected_outcomes = list(column), []
    for i in indices:
        label, expected[i] = measure_bell_basis(expected[i], ref_rng)
        expected_outcomes.append(int(label))
    assert measured == expected
    assert outcomes == expected_outcomes
    assert rng._rng.getstate() == ref_rng._rng.getstate()
    assert rng._rng.getstate() == _one_draw_each(seed, "bell-column", len(indices))


def test_outcome_tables_agree_with_probabilities():
    # r < p is decided by int(r * 4) only when 4 * p is an integer.
    cums = [list(accumulate(bell_overlap_probabilities(s).values())) for s in REACHABLE]
    for s in REACHABLE:
        for p in (*P0[s], *cums[s]):
            assert (4 * p).is_integer()
    for q in range(4):
        r = q / 4  # the smallest draw of this quarter; every draw in it decides alike
        for s in REACHABLE:
            for op in range(4):
                bit = 0 if r < P0[s][op] else 1
                outcome, post = MEASURE[s][op << 2 | q]
                assert outcome == bit
                # The post state repeats the outcome with certainty.
                assert P0[post][op] == 1.0 - bit
            c0, c1, c2, _ = cums[s]
            code = 0 if r < c0 else 1 if r < c1 else 2 if r < c2 else 3
            assert MEASURE[s][PAIR_BASIS << 2 | q] == (code, code)
    assert [OPS[which][basis] for which, basis in OPERATIONS[:4]] == list(range(PAIR_BASIS))
    for op in range(PAIR_BASIS + 1):
        for q in range(4):
            assert KEYS[op][q] == op << 2 | q


# Arbitrary superpositions lie outside the reachable set; these properties
# test the amplitude oracle itself.


def normalized_states(draw):
    parts = draw(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            min_size=8,
            max_size=8,
        )
    )
    amps = [complex(parts[2 * i], parts[2 * i + 1]) for i in range(4)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    if norm < 1e-3:
        amps[0] = 1.0 + 0j
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return TwoQubitState(tuple(a / norm for a in amps))


states = st.composite(normalized_states)()


@given(states)
def test_overlap_probabilities_sum_to_one(state):
    assert abs(sum(oracle.bell_overlaps(state).values()) - 1.0) < 1e-12


@given(states)
def test_overlaps_agree_with_oracle(state):
    expected = oracle_overlaps(state.amplitudes)
    actual = oracle.bell_overlaps(state)
    for label in BELL_LABELS:
        assert actual[label] == pytest.approx(expected[label], abs=1e-12)


@given(states, st.sampled_from(["first", "second"]), st.integers(0, 2**32))
def test_z_measurement_collapse_is_consistent(state, which, seed):
    rng = RandomSource(seed, "hypothesis")
    p0, p1 = oracle.qubit_probabilities(state, which, "z")
    assert abs(p0 + p1 - 1.0) < 1e-12
    bit, post = oracle.measure_qubit(state, which, "z", rng)
    assert bit in (0, 1)
    assert abs(post.norm_squared() - 1.0) < 1e-12
    # The measured qubit is now definite: repeating the measurement gives
    # the same bit with certainty.
    again = oracle.qubit_probabilities(post, which, "z")
    assert again[bit] == pytest.approx(1.0, abs=1e-12)


@given(states, st.integers(0, 2**32))
def test_bell_measurement_projects_onto_outcome(state, seed):
    rng = RandomSource(seed, "hypothesis-bell")
    outcome, post = oracle.measure_bell_basis(state, rng)
    assert post == amplitudes_of(outcome)
    assert oracle.bell_overlaps(post)[outcome] == pytest.approx(1.0, abs=1e-12)
