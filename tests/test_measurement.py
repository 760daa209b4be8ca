import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqreg.circuit import PhaseVector, apply_regression_map, regression_map_state
from vqreg.data import RawTable, standardize
from vqreg.encoders import COMPACT_BINARY, ONE_HOT, make_layout, prepare_exact
from vqreg.measurement import (
    LayoutMismatchError,
    ShadowConfig,
    exact_expectation,
    measured_qubit_count,
    operator_identity_check,
    pauli_shadow_estimate,
    r_squared,
    readout_attenuation,
    required_shots,
    shadow_snapshot_budget,
    shot_estimate_compact,
    shot_estimate_one_hot,
    variance_operator_derived,
    variance_identity_plus_m,
)
from vqreg.measurement import _rotate_to_pauli_basis
from vqreg.statevector import (
    StateVector,
    apply_controlled_diagonal_phase,
    apply_hadamard,
    basis_state,
)
from tests.test_encoders import table_from_values


def random_std(num_rows, num_features, seed):
    rng = np.random.default_rng(seed)
    return standardize(RawTable(rng.uniform(-1, 1, (num_rows, num_features + 1))))


def one_hot_state(cell_amps):
    cell_amps = np.asarray(cell_amps, dtype=np.float64)
    n = cell_amps.size
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[np.uint64(1) << np.arange(n, dtype=np.uint64)] = cell_amps
    return StateVector(n, amps)


def test_exact_expectation_examples():
    layout = make_layout(ONE_HOT, 2, 1)
    assert abs(exact_expectation(one_hot_state([-0.5, 0.5, -0.5, 0.5]), layout)) < 1e-15
    assert abs(exact_expectation(one_hot_state([0.5, 0.0, 0.5, 0.0]), layout) - 0.5) < 1e-15
    assert exact_expectation(one_hot_state([0, 0, 0, 0]), layout) == 0.0


def test_exact_expectation_matches_dense_operator():
    # oracle: dense M_hat on the code space for random subnormalized states
    rng = np.random.default_rng(0)
    for _ in range(5):
        L, M = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        m_hat = np.kron(np.eye(L), np.ones((M + 1, M + 1)))
        cells = rng.standard_normal(L * (M + 1)) * 0.5
        want = cells @ m_hat @ cells
        layout = make_layout(ONE_HOT, L, M)
        assert abs(exact_expectation(one_hot_state(cells), layout) - want) < 1e-12


def test_exact_expectation_layout_errors():
    layout = make_layout(ONE_HOT, 2, 1)
    with pytest.raises(LayoutMismatchError):
        exact_expectation(basis_state(3, 0), layout)
    # weight on a non-code state (|1100...>) must be rejected
    amps = np.zeros(16, dtype=np.complex128)
    amps[3] = 1.0
    with pytest.raises(LayoutMismatchError):
        exact_expectation(StateVector(4, amps), layout)


def test_operator_identity_examples():
    report = operator_identity_check(2, 1)
    assert report.deviation_m_plus_one == 0.0
    assert report.deviation_identity_plus_m == 1.0
    np.testing.assert_allclose(np.unique(np.round(report.eigenvalues, 9)), [0.0, 2.0])

    report = operator_identity_check(1, 2)
    assert report.deviation_m_plus_one == 0.0
    np.testing.assert_allclose(report.m_hat_squared, 3.0 * report.m_hat)


def test_operator_identity_all_small_sizes():
    for L in range(1, 7):
        for M in range(1, 6):
            if L * (M + 1) > 12:
                continue
            report = operator_identity_check(L, M)
            assert report.deviation_m_plus_one == 0.0
            assert report.deviation_identity_plus_m > 0.0
            eigs = np.unique(np.round(report.eigenvalues, 9))
            assert set(eigs.tolist()) <= {0.0, float(M + 1)}


def _prepared(std, scheme, phases):
    prep = prepare_exact(std, scheme)
    state = regression_map_state(prep, phases)
    psi0, _ = apply_regression_map(prep, phases)
    return prep, state, exact_expectation(psi0, prep.layout)


def test_compact_estimator_perfect_fit_and_unbiasedness():
    std = table_from_values([[0.5, 0.5], [0.5, 0.5]])
    prep, state, exact = _prepared(std, COMPACT_BINARY, PhaseVector([np.pi, 0.0]))
    assert exact < 1e-20
    est = shot_estimate_compact(state, prep.layout, 10**5, seed=0)
    assert abs(est.value) <= 5 * max(est.std_error, 1e-4)

    std = random_std(2, 1, 1)
    prep, state, exact = _prepared(std, COMPACT_BINARY, PhaseVector([np.pi, 0.8]))
    vals = np.array([
        shot_estimate_compact(state, prep.layout, 4000, seed=s).value for s in range(200)
    ])
    z = (vals.mean() - exact) / (vals.std(ddof=1) / np.sqrt(vals.size))
    assert abs(z) < 3.0


def test_one_hot_estimator_agreement():
    std = random_std(2, 1, 2)
    prep, state, exact = _prepared(std, ONE_HOT, PhaseVector([np.pi, 0.6]))
    est = shot_estimate_one_hot(state, prep.layout, 10**5, seed=3)
    assert abs(est.value - exact) <= 5 * est.std_error


def test_one_hot_estimator_single_row_limit():
    # one occupied basis state per row and W = 0: the cross terms vanish and
    # the estimate reduces to the ancilla-0 weight
    std = table_from_values([[1.0, 0.0]])
    prep, state, exact = _prepared(std, ONE_HOT, PhaseVector([np.pi, np.pi / 2]))
    assert abs(exact - 1.0) < 1e-12
    est = shot_estimate_one_hot(state, prep.layout, 30000, seed=4)
    assert abs(est.value - 1.0) <= 5 * max(est.std_error, 1e-3)


def test_estimator_readout_attenuation_means():
    std = random_std(4, 3, 5)
    phases = PhaseVector(np.array([np.pi, np.pi / 2, np.pi / 2, np.pi / 2]))
    for scheme, estimator in ((COMPACT_BINARY, shot_estimate_compact),
                              (ONE_HOT, shot_estimate_one_hot)):
        prep, state, exact = _prepared(std, scheme, phases)
        n_meas = measured_qubit_count(prep.layout)
        delta = 0.01
        vals = [estimator(state, prep.layout, 10**5, delta, seed=s).value for s in range(10)]
        expected = readout_attenuation(delta, n_meas) * exact
        se = np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - expected) < 4 * se + 1e-3


def test_estimator_validation():
    std = random_std(2, 1, 6)
    prep, state, _ = _prepared(std, COMPACT_BINARY, PhaseVector([np.pi, 0.3]))
    with pytest.raises(ValueError):
        shot_estimate_compact(state, prep.layout, 0)
    with pytest.raises(ValueError):
        shot_estimate_compact(state, prep.layout, 100, readout_delta=0.6)
    with pytest.raises(LayoutMismatchError):
        shot_estimate_one_hot(state, prep.layout, 100)
    prep_o = prepare_exact(std, ONE_HOT)
    with pytest.raises(LayoutMismatchError):
        shot_estimate_compact(regression_map_state(prep_o, PhaseVector([np.pi, 0.3])),
                              prep_o.layout, 100)


def test_estimates_are_pinned_for_a_fixed_seed():
    # exact draws: any change to the sampling, seeding or acceptance order shows here
    def pinned(est):
        return repr((float(est.value), float(est.std_error)))

    prep = prepare_exact(random_std(5, 3, 21), COMPACT_BINARY)
    state = regression_map_state(prep, PhaseVector([np.pi, 0.4, 1.1, 2.0]))
    est = shot_estimate_compact(state, prep.layout, 2000, 0.01, seed=17)
    assert pinned(est) == "(0.584, 0.031582780118285976)"

    prep = prepare_exact(random_std(2, 2, 22), ONE_HOT)
    state = regression_map_state(prep, PhaseVector([np.pi, 0.4, 1.1]))
    est = shot_estimate_one_hot(state, prep.layout, 3001, 0.02, seed=18)
    assert pinned(est) == "(0.05039560439560431, 0.03619757893763117)"

    prep = prepare_exact(random_std(4, 3, 23), COMPACT_BINARY)
    est = pauli_shadow_estimate(prep.state, prep.layout, ShadowConfig(600, 2, seed=19))
    assert pinned(est) == "(0.775, 0.23320591759215717)"

    # shadows at the narrowest and a wider column register (N_M = 1 and 3)
    prep = prepare_exact(random_std(3, 1, 24), COMPACT_BINARY)
    est = pauli_shadow_estimate(prep.state, prep.layout, ShadowConfig(500, 1, seed=20))
    assert pinned(est) == "(2.0481927710843375, 0.046287487310857606)"

    prep = prepare_exact(random_std(3, 5, 25), COMPACT_BINARY)
    assert prep.layout.n_m == 3
    est = pauli_shadow_estimate(prep.state, prep.layout, ShadowConfig(900, 3, seed=21))
    assert pinned(est) == "(0.9199999999999999, 0.2188911449404323)"


def test_estimators_leave_their_input_state_unchanged():
    # the Pauli-basis rotations run in place on one copy; with an X-only mask
    # (the compact setting, the one-hot X setting) a missing copy would
    # rotate the caller's state
    prep = prepare_exact(random_std(5, 3, 26), COMPACT_BINARY)
    state = regression_map_state(prep, PhaseVector([np.pi, 0.4, 1.1, 2.0]))
    before = state.amplitudes.tobytes()
    rotated = _rotate_to_pauli_basis(state, 0b101, 0)
    assert rotated.amplitudes.tobytes() != before
    shot_estimate_compact(state, prep.layout, 500, 0.01, seed=1)
    assert state.amplitudes.tobytes() == before

    prep = prepare_exact(random_std(2, 2, 27), ONE_HOT)
    state = regression_map_state(prep, PhaseVector([np.pi, 0.4, 1.1]))
    before = state.amplitudes.tobytes()
    shot_estimate_one_hot(state, prep.layout, 600, 0.01, seed=2)
    assert state.amplitudes.tobytes() == before

    prep = prepare_exact(random_std(4, 3, 28), COMPACT_BINARY)
    before = prep.state.amplitudes.tobytes()
    pauli_shadow_estimate(prep.state, prep.layout, ShadowConfig(300, 2, seed=3))
    assert prep.state.amplitudes.tobytes() == before


def test_shadow_estimator_unbiased():
    std = random_std(2, 1, 7)
    prep = prepare_exact(std)
    exact = exact_expectation(prep.state, prep.layout)
    vals = []
    for rep in range(500):
        cfg = ShadowConfig(snapshots=120, locality=prep.layout.n_m, seed=rep)
        vals.append(pauli_shadow_estimate(prep.state, prep.layout, cfg).value)
    vals = np.array(vals)
    z = (vals.mean() - exact) / (vals.std(ddof=1) / np.sqrt(vals.size))
    # median-of-means is only asymptotically mean-unbiased; 3 combined sigma
    assert abs(z) < 3.0


def test_shadow_norm_rescaling():
    std = random_std(2, 1, 8)
    phases = PhaseVector([np.pi, 0.4])
    prep = prepare_exact(std)
    psi0, p = apply_regression_map(prep, phases)
    exact = exact_expectation(psi0, prep.layout)
    cfg = ShadowConfig(snapshots=40000, locality=prep.layout.n_m, seed=9)
    normalized = StateVector(psi0.num_qubits, psi0.amplitudes / np.sqrt(psi0.norm_squared))
    est = pauli_shadow_estimate(normalized, prep.layout, cfg)
    assert abs(est.value * p - exact) < 0.05


def test_shadow_variance_scales_with_shots():
    psi = basis_state(2, 0)
    layout = make_layout(COMPACT_BINARY, 2, 1)
    variances = []
    snapshots = [250, 1000, 4000]
    for S in snapshots:
        vals = [
            pauli_shadow_estimate(psi, layout, ShadowConfig(S, 1, seed=100 + r)).value
            for r in range(120)
        ]
        variances.append(np.var(vals, ddof=1))
    slope = np.polyfit(np.log10(snapshots), np.log10(variances), 1)[0]
    assert abs(slope + 1.0) < 0.25


def test_shadow_validation():
    psi = basis_state(2, 0)
    layout = make_layout(COMPACT_BINARY, 2, 1)
    with pytest.raises(ValueError):
        pauli_shadow_estimate(psi, layout, ShadowConfig(snapshots=3, locality=1))
    with pytest.raises(ValueError):
        pauli_shadow_estimate(StateVector(2, [0.5, 0, 0, 0]), layout,
                              ShadowConfig(snapshots=100, locality=1))
    with pytest.raises(LayoutMismatchError):
        pauli_shadow_estimate(psi, make_layout(ONE_HOT, 2, 1),
                              ShadowConfig(snapshots=100, locality=1))
    assert ShadowConfig(snapshots=100, locality=1).groups == 6
    assert shadow_snapshot_budget(1, 0.25) == int(np.ceil(12 * np.log(2) * 4 / 0.0625))


def test_model_metrics_anchor_points():
    std = random_std(6, 3, 10)
    c0 = std.c0
    assert r_squared(0.0, std) == 1.0
    assert abs(r_squared(c0, std)) < 1e-12
    assert abs(r_squared(4 * c0, std) + 3.0) < 1e-12
    for m_feats in range(1, 9):
        s = random_std(12, m_feats, 11 + m_feats)
        assert abs(s.c0 - 1.0 / (1.0 + m_feats)) < 1e-10


def test_required_shots_examples():
    budget = required_shots(0.0, 6, 0.01, 0.05)
    assert budget.shots_identity_plus_m == 59915
    assert budget.variance_identity_plus_m == 1.0
    assert budget.variance_operator == 0.0 and budget.shots_operator == 0

    # epsilon halved -> un-ceiled budget exactly quadruples
    for eps in (0.01, 0.02):
        raw = 2 * variance_identity_plus_m(0.1, 3) * np.log(1 / 0.05) / eps**2
        raw_half = 2 * variance_identity_plus_m(0.1, 3) * np.log(1 / 0.05) / (eps / 2) ** 2
        assert raw_half == 4 * raw
        a = required_shots(0.1, 3, eps, 0.05).shots_identity_plus_m
        b = required_shots(0.1, 3, eps / 2, 0.05).shots_identity_plus_m
        assert abs(b - 4 * a) <= 3  # ceiling slack only


def test_variance_formulas():
    assert variance_identity_plus_m(0.2, 4) == 1.0 + 4 * 0.2 - 0.04
    assert variance_operator_derived(0.2, 4) == 8 * 0.2 - 0.04
    with pytest.raises(ValueError):
        required_shots(0.1, 2, -1.0, 0.05)
    with pytest.raises(ValueError):
        required_shots(0.1, 2, 0.1, 1.5)


def compact_case(num_features, seed):
    """A random compact-layout table under random phases: the pre-projection
    state, its layout, and the estimator's acceptance probability, read off
    the state after a Hadamard on every column qubit."""
    rng = np.random.default_rng(seed)
    prep = prepare_exact(random_std(int(rng.integers(3, 7)), num_features, seed), COMPACT_BINARY)
    phis = np.concatenate(([np.pi], rng.uniform(0.0, np.pi, num_features)))
    state = regression_map_state(prep, PhaseVector(phis))
    rotated = state
    for q in range(prep.layout.n_m):
        rotated = apply_hadamard(rotated, q)
    idx = np.arange(rotated.amplitudes.size)
    accepted = ((idx >> prep.layout.ancilla) & 1 == 0) & (idx & ((1 << prep.layout.n_m) - 1) == 0)
    return state, prep.layout, float(np.sum(np.abs(rotated.amplitudes[accepted]) ** 2))


def test_compact_budget_variance_covers_the_exact_variance():
    # the estimate is 2**N_M times a Bernoulli(p) draw per shot; M = 4 is
    # where (M+1) C - C^2 understated it 1.63x
    for num_features in range(1, 9):
        for seed in range(3):
            _, layout, p = compact_case(num_features, 100 * num_features + seed)
            scale = float(1 << layout.n_m)
            exact = scale**2 * p * (1.0 - p)
            budget = required_shots(scale * p, num_features, 0.01, 0.05)
            assert budget.variance_operator >= exact * (1.0 - 1e-9), (num_features, seed)


def test_compact_budget_miss_rate_is_at_most_alpha():
    # epsilon is chosen per table so that each budget is about 10**4 shots
    alpha, target, reps = 0.05, 10_000, 400
    misses = trials = 0
    for num_features in range(1, 9):
        state, layout, p = compact_case(num_features, 7 + num_features)
        cost = float(1 << layout.n_m) * p
        epsilon = np.sqrt(2.0 * variance_operator_derived(cost, num_features)
                          * np.log(1.0 / alpha) / target)
        shots = required_shots(cost, num_features, epsilon, alpha).shots_operator
        assert abs(shots - target) <= 1
        for rep in range(reps):
            est = shot_estimate_compact(state, layout, shots, seed=[num_features, rep])
            misses += abs(est.value - cost) > epsilon
            trials += 1
    assert misses / trials <= alpha + 3.0 * np.sqrt(alpha * (1.0 - alpha) / trials)


def test_measured_qubit_counts():
    assert measured_qubit_count(make_layout(ONE_HOT, 4, 3)) == 17
    assert measured_qubit_count(make_layout(COMPACT_BINARY, 4, 3)) == 5


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 10), st.data())
def test_pauli_basis_rotation_matches_per_qubit_gates(num_qubits, data):
    bases = data.draw(st.lists(st.sampled_from("XYZ"), min_size=num_qubits,
                               max_size=num_qubits))
    x_mask = sum(1 << q for q, b in enumerate(bases) if b == "X")
    y_mask = sum(1 << q for q, b in enumerate(bases) if b == "Y")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    amps = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    state = StateVector(num_qubits, amps / np.linalg.norm(amps))
    expected = state
    for q, basis in enumerate(bases):
        if basis == "Y":  # S-dagger, then H
            expected = apply_controlled_diagonal_phase(
                expected, ((q, 1),), -np.pi / 2.0)
        if basis in "XY":
            expected = apply_hadamard(expected, q)
    got = _rotate_to_pauli_basis(state, x_mask, y_mask)
    np.testing.assert_allclose(got.amplitudes, expected.amplitudes, rtol=0, atol=1e-12)
