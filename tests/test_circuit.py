import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqreg.circuit import (
    DegeneratePhaseError,
    PhaseVector,
    analytic_gradient,
    apply_regression_map,
    cosines_to_weights,
    phases_from_cosines,
    phases_to_weights,
    regression_map_state,
)
from vqreg.data import RawTable, standardize
from vqreg.encoders import COMPACT_BINARY, ONE_HOT, prepare_exact
from vqreg.measurement import exact_expectation
from vqreg.statevector import (
    StateVector,
    apply_controlled_diagonal_phase,
    apply_hadamard,
)
from tests.test_encoders import table_from_values


def random_std(num_rows, num_features, seed):
    rng = np.random.default_rng(seed)
    return standardize(RawTable(rng.uniform(-1, 1, (num_rows, num_features + 1))))


def test_zero_phases_leave_data_state():
    std = random_std(3, 2, 0)
    prep = prepare_exact(std, COMPACT_BINARY)
    psi0, p = apply_regression_map(prep, PhaseVector(np.zeros(3)))
    assert abs(p - 1.0) < 1e-12
    np.testing.assert_allclose(psi0.amplitudes, prep.state.amplitudes, atol=1e-12)


def test_right_angle_phases_annihilate():
    std = random_std(3, 2, 1)
    prep = prepare_exact(std, ONE_HOT)
    psi0, p = apply_regression_map(prep, PhaseVector(np.full(3, np.pi / 2)))
    assert p < 1e-24
    np.testing.assert_allclose(psi0.amplitudes, 0.0, atol=1e-12)


def test_two_by_two_hand_expansion():
    # uniform 0.5 table with phi = (pi, 0): amplitudes alternate -0.5, +0.5
    std = table_from_values([[0.5, 0.5], [0.5, 0.5]])
    prep = prepare_exact(std, ONE_HOT)
    psi0, p = apply_regression_map(prep, PhaseVector(np.array([np.pi, 0.0])))
    assert abs(p - 1.0) < 1e-12
    amps = [psi0.amplitudes[1 << j] for j in range(4)]
    np.testing.assert_allclose(amps, [-0.5, 0.5, -0.5, 0.5], atol=1e-12)


def test_projected_amplitudes_match_formula():
    # step 2-5 symbolic result: amplitudes x_lm cos(phi_m), p = sum x^2 cos^2
    std = random_std(2, 1, 2)
    phases = PhaseVector(np.array([2.2, 0.9]))
    prep = prepare_exact(std, COMPACT_BINARY)
    psi0, p = apply_regression_map(prep, phases)
    expected = std.values * np.cos(phases.phis)
    np.testing.assert_allclose(
        psi0.amplitudes.reshape(2, 2).real, expected, atol=1e-12
    )
    assert abs(p - np.sum(expected**2)) < 1e-10


def test_phases_to_weights_examples():
    assert abs(phases_to_weights(PhaseVector([np.pi, 0.0])).weights[0] - 1.0) < 1e-12
    assert abs(phases_to_weights(PhaseVector([np.pi, np.pi])).weights[0] + 1.0) < 1e-12
    assert abs(phases_to_weights(PhaseVector([np.pi, np.pi / 3])).weights[0] - 0.5) < 1e-12
    with pytest.raises(DegeneratePhaseError):
        phases_to_weights(PhaseVector([np.pi / 2, 0.0]))


def test_analytic_cost_examples():
    std = table_from_values([[0.5, 0.5], [0.5, 0.5]])
    assert abs(std.cost(PhaseVector([np.pi, 0.0]).cosines())) < 1e-15
    assert abs(std.cost(PhaseVector([np.pi, np.pi / 2]).cosines()) - 0.5) < 1e-12
    assert abs(std.cost(PhaseVector([np.pi, np.pi]).cosines()) - 2.0) < 1e-12


def test_circuit_equals_analytic_both_encodings():
    rng = np.random.default_rng(3)
    for _ in range(10):
        L, M = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        std = random_std(L, M, int(rng.integers(0, 1 << 30)))
        phases = PhaseVector(rng.uniform(0, 2 * np.pi, M + 1))
        want = std.cost(phases.cosines())
        for scheme in (ONE_HOT, COMPACT_BINARY):
            prep = prepare_exact(std, scheme)
            psi0, p = apply_regression_map(prep, phases)
            assert abs(exact_expectation(psi0, prep.layout) - want) < 1e-9
            assert abs(p - np.sum(std.values**2 * np.cos(phases.phis) ** 2)) < 1e-10


def test_phase_periodicity():
    std = random_std(4, 2, 5)
    phases = np.array([2.0, 0.3, 1.4])
    base = std.cost(PhaseVector(phases).cosines())
    assert abs(std.cost(PhaseVector(-phases).cosines()) - base) < 1e-12
    assert abs(std.cost(PhaseVector(phases + 2 * np.pi).cosines()) - base) < 1e-12


def test_cosine_scale_invariance():
    std = random_std(5, 3, 6)
    c = np.array([-1.0, 0.4, -0.2, 0.7])
    base = std.cost(c)
    for t in (0.5, 2.0, -3.0):
        scaled = std.cost(t * c)
        assert scaled == pytest.approx(t**2 * base, rel=1e-12)
        np.testing.assert_allclose(
            cosines_to_weights(t * c).weights, cosines_to_weights(c).weights, atol=1e-12
        )


def test_phases_from_cosines_clamps():
    phases = phases_from_cosines(np.array([-1.5, 0.2, 1.7]))
    np.testing.assert_allclose(np.cos(phases.phis), [-1.0, 0.2, 1.0], atol=1e-12)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(10):
        L, M = int(rng.integers(3, 8)), int(rng.integers(1, 5))
        std = random_std(L, M, int(rng.integers(0, 1 << 30)))
        phis = rng.uniform(0, 2 * np.pi, M + 1)
        grad = analytic_gradient(std, PhaseVector(phis))
        for k in range(M + 1):
            up, down = phis.copy(), phis.copy()
            up[k] += h
            down[k] -= h
            fd = (std.cost(np.cos(up)) - std.cost(np.cos(down))) / (2 * h)
            assert abs(grad[k] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_gradient_zero_at_stationary_perfect_fit():
    # duplicated response column: phi = (pi, 0) fits exactly and sin(phi) = 0
    rng = np.random.default_rng(8)
    col = rng.standard_normal(6)
    std = standardize(RawTable(np.column_stack([col, col])))
    grad = analytic_gradient(std, PhaseVector(np.array([np.pi, 0.0])))
    np.testing.assert_allclose(grad, 0.0, atol=1e-12)


def test_gradient_scaling_with_correlated_features():
    # perfectly correlated features at the W=0 start: |grad| = 2/(M+1) exactly
    rng = np.random.default_rng(9)
    col = rng.standard_normal(12)
    for m_feats in (2, 4, 8, 16):
        std = standardize(RawTable(np.tile(col[:, None], (1, m_feats + 1))))
        phases = PhaseVector(np.array([np.pi] + [np.pi / 2] * m_feats))
        grad = analytic_gradient(std, phases)
        np.testing.assert_allclose(
            np.abs(grad[1:]), 2.0 / (m_feats + 1), rtol=1e-10
        )


def test_regression_map_state_dimensions():
    std = random_std(2, 1, 11)
    prep = prepare_exact(std, COMPACT_BINARY)
    full = regression_map_state(prep, PhaseVector(np.array([np.pi, 0.5])))
    assert full.num_qubits == prep.layout.data_qubit_count + 1
    with pytest.raises(ValueError):
        regression_map_state(prep, PhaseVector(np.array([np.pi, 0.5, 0.1])))


def test_regression_map_state_leaves_the_prepared_state_unchanged():
    # the map starts from the cached ancilla-|+> state; every call must copy it
    phases = PhaseVector(np.array([np.pi, 0.5, 1.3]))
    for scheme in (ONE_HOT, COMPACT_BINARY):
        prep = prepare_exact(random_std(2, 2, 12), scheme)
        plus = prep.ancilla_plus.amplitudes.tobytes()
        first = regression_map_state(prep, phases).amplitudes.tobytes()
        assert regression_map_state(prep, phases).amplitudes.tobytes() == first
        regression_map_state(prep, PhaseVector(np.array([0.2, 2.0, -1.0])))
        psi0, _ = apply_regression_map(prep, phases)
        assert regression_map_state(prep, phases).amplitudes.tobytes() == first
        assert prep.ancilla_plus.amplitudes.tobytes() == plus
        fresh = prepare_exact(random_std(2, 2, 12), scheme)
        assert regression_map_state(fresh, phases).amplitudes.tobytes() == first
        assert apply_regression_map(fresh, phases)[0].amplitudes.tobytes() == \
            psi0.amplitudes.tobytes()


def gate_level_map_state(prep, phases):
    """The regression map as the circuit is drawn: one signed controlled
    phase per one-hot cell qubit, or per compact column-register value."""
    layout = prep.layout
    anc = layout.ancilla
    dim = prep.state.amplitudes.size
    amps = np.zeros(2 * dim, dtype=np.complex128)
    amps[:dim] = prep.state.amplitudes
    state = apply_hadamard(StateVector(layout.data_qubit_count + 1, amps), anc)
    cols = layout.num_features + 1
    if layout.scheme == ONE_HOT:
        gates = [(((j, 1),), phases.phis[j % cols]) for j in range(layout.num_cells)]
    else:
        gates = [(tuple((q, (m >> q) & 1) for q in range(layout.n_m)), phases.phis[m])
                 for m in range(cols)]
    for controls, angle in gates:
        state = apply_controlled_diagonal_phase(state, controls, angle, sign_qubit=anc)
    return apply_hadamard(state, anc)


@st.composite
def map_cases(draw):
    scheme = draw(st.sampled_from([ONE_HOT, COMPACT_BINARY]))
    num_features = draw(st.integers(1, 5))
    max_rows = 12 // (num_features + 1) if scheme == ONE_HOT else 20
    num_rows = draw(st.integers(2, max_rows))
    phis = draw(st.lists(st.floats(-4.0, 4.0), min_size=num_features + 1,
                         max_size=num_features + 1))
    return scheme, random_std(num_rows, num_features, draw(st.integers(0, 2**32 - 1))), phis


@settings(max_examples=60, deadline=None, derandomize=True)
@given(map_cases())
def test_fused_map_equals_gate_level_map(case):
    scheme, std, phis = case
    prep = prepare_exact(std, scheme)
    phases = PhaseVector(np.array(phis))
    fused = regression_map_state(prep, phases).amplitudes
    gates = gate_level_map_state(prep, phases).amplitudes
    code = prep.layout.code_basis_indices
    for half in (code, code | (1 << prep.layout.ancilla)):
        assert np.array_equal(fused[half], gates[half])
