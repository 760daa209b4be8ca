import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vqreg.circuit import PhaseVector, apply_regression_map
from vqreg.data import DigitizedTable, RawTable, digitize, standardize
from vqreg.encoders import (
    COMPACT_BINARY,
    ONE_HOT,
    PreparedState,
    ZeroSuccessProbabilityError,
    chain_angles,
    make_layout,
    memory_free_compact,
    prepare_exact,
    prepare_one_hot_chain,
)
from vqreg.data import StandardizedTable
from vqreg.measurement import exact_expectation
from vqreg.statevector import StateVector, apply_controlled_diagonal_phase, postselect


def table_from_values(values):
    """StandardizedTable wrapper for an already-normalized amplitude matrix."""
    values = np.asarray(values, dtype=np.float64)
    m = values.shape[1] - 1
    return StandardizedTable(values=values, column_scales=np.ones(m + 1), c0=1.0 / (1.0 + m))


def unit_norm(prep):
    """The post-selected preparation scaled to unit norm."""
    amps = prep.state.amplitudes / np.sqrt(prep.state.norm_squared)
    return PreparedState(StateVector(prep.state.num_qubits, amps), prep.layout)


def random_std(num_rows, num_features, seed):
    rng = np.random.default_rng(seed)
    return standardize(RawTable(rng.uniform(-1, 1, (num_rows, num_features + 1))))


def map_and_measure(prep, phases):
    """Run the regression map on a prepared state and measure the cost."""
    psi0, _ = apply_regression_map(prep, phases)
    return exact_expectation(psi0, prep.layout)


def make_digitized(x_tilde, num_rows, num_features, n_bits=4):
    x = np.asarray(x_tilde, dtype=np.float64)
    weights = 2.0 ** -np.arange(1, n_bits + 1)
    bits = np.zeros((x.size, n_bits), dtype=np.int64)
    r = x.copy()
    for j, w in enumerate(weights):
        bits[:, j] = r < 0
        r -= w * (1 - 2 * bits[:, j])
    return DigitizedTable(bits, ((1 - 2 * bits) * weights).sum(axis=1), num_rows, num_features)


def prepare_compact_with_memory(dig):
    """Compact preparation driven by a simulated quantum memory register,
    gate by gate as the paper describes it: the oracle of the one diagonal
    layer that :func:`memory_free_compact` applies.

    The digitized bits sit in a computational basis state; every phase
    ``exp(-i dtheta_j Z_A (x) |k><k| (x) Z_{k,j})`` is applied as a genuine
    multi-register gate, the ancilla is post-selected on ``|->`` and the
    memory register (never entangled with the data register) is traced
    out by slicing its basis state.
    """
    n_bits = dig.bits.shape[1]
    layout = make_layout(COMPACT_BINARY, dig.num_rows, dig.num_features, n_bits)
    n = 1 + layout.n_k + layout.memory_qubit_count
    anc = n - 1
    dim_qpu = 1 << layout.n_k

    mem_pattern = 0
    for k in range(layout.num_cells):
        for j in range(n_bits):
            if dig.bits[k, j]:
                mem_pattern |= 1 << (k * n_bits + j)

    amps = np.zeros(1 << n, dtype=np.complex128)
    qpu = np.arange(dim_qpu, dtype=np.int64)
    base = (mem_pattern << layout.n_k) | qpu
    amps[base] = 1.0 / np.sqrt(2.0 * dim_qpu)
    amps[base | (1 << anc)] = 1.0 / np.sqrt(2.0 * dim_qpu)
    state = StateVector(n, amps)

    for k, index in enumerate(layout.code_basis_indices.reshape(-1)):
        controls = tuple((q, (int(index) >> q) & 1) for q in range(layout.n_k))
        for j in range(n_bits):
            dtheta = 2.0 ** -(j + 1)
            mem_q = layout.n_k + k * n_bits + j
            # exp(-i dtheta Z_A |k><k| Z_mem): split on the memory bit value
            state = apply_controlled_diagonal_phase(
                state, controls + ((mem_q, 0),), -dtheta, sign_qubit=anc)
            state = apply_controlled_diagonal_phase(
                state, controls + ((mem_q, 1),), +dtheta, sign_qubit=anc)

    without_anc, prob = postselect(state, anc, "x-")
    if prob <= 0.0:
        raise ZeroSuccessProbabilityError("ancilla projection onto |-> has zero probability")
    # memory register is in a basis state: slice its block
    block = without_anc.amplitudes[(mem_pattern << layout.n_k) + qpu]
    return PreparedState(StateVector(layout.n_k, 1j * block), layout)


def test_one_hot_exact_two_by_two():
    # uniform 2x2 table: amplitude 0.5 on each one-hot basis state
    std = table_from_values([[0.5, 0.5], [0.5, 0.5]])
    prep = prepare_exact(std, ONE_HOT)
    amps = prep.state.amplitudes
    for j in range(4):
        assert abs(amps[1 << j] - 0.5) < 1e-15
    assert abs(prep.state.norm_squared - 1.0) < 1e-12


def test_compact_exact_two_by_two():
    std = table_from_values([[0.5, 0.5], [0.5, 0.5]])
    prep = prepare_exact(std, COMPACT_BINARY)
    np.testing.assert_allclose(prep.state.amplitudes, [0.5, 0.5, 0.5, 0.5])


def test_prepared_states_have_unit_norm():
    for seed in range(3):
        std = random_std(4, 3, seed)
        for scheme in (ONE_HOT, COMPACT_BINARY):
            prep = prepare_exact(std, scheme)
            assert abs(prep.state.norm_squared - 1.0) < 1e-12


def test_chain_angles_single_gadget():
    theta = 0.8
    angles = chain_angles(np.array([np.cos(theta), np.sin(theta)]))
    assert abs(angles[0] - theta) < 1e-12


def test_chain_angles_three_element_example():
    alpha = 0.37
    target = np.array([0.6, 0.8 * np.cos(alpha), 0.8 * np.sin(alpha)])
    angles = chain_angles(target)
    assert abs(angles[0] - np.arctan2(0.8, 0.6)) < 1e-12
    assert abs(angles[1] - alpha) < 1e-12


def test_chain_matches_exact_on_random_vector():
    rng = np.random.default_rng(10)
    vec = rng.standard_normal(8)
    vec /= np.linalg.norm(vec)
    std = table_from_values(vec.reshape(2, 4))
    chain = prepare_one_hot_chain(std)
    exact = prepare_exact(std, ONE_HOT)
    np.testing.assert_allclose(chain.state.amplitudes, exact.state.amplitudes, atol=1e-9)


def test_chain_zero_tail_handled():
    std = table_from_values(np.array([[1.0, 0.0], [0.0, 0.0]]))
    chain = prepare_one_hot_chain(std)
    exact = prepare_exact(std, ONE_HOT)
    np.testing.assert_allclose(chain.state.amplitudes, exact.state.amplitudes, atol=1e-12)


def test_chain_matches_exact_on_random_tables():
    for seed in range(4):
        std = random_std(3, 2, seed)
        chain = prepare_one_hot_chain(std)
        exact = prepare_exact(std, ONE_HOT)
        np.testing.assert_allclose(chain.state.amplitudes, exact.state.amplitudes, atol=1e-9)


def test_memory_free_amplitudes_are_sin_of_digitized():
    std = random_std(2, 1, 3)
    dig = digitize(std, 5)
    prep = memory_free_compact(dig)
    expected = np.sin(dig.x_tilde) / 2.0  # 1/sqrt(K) with K = 4
    np.testing.assert_allclose(prep.state.amplitudes.real, expected, atol=1e-12)
    np.testing.assert_allclose(prep.state.amplitudes.imag, 0.0, atol=1e-12)
    assert abs(prep.state.norm_squared - np.sum(np.sin(dig.x_tilde) ** 2) / 4.0) < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_memory_register_equivalence(num_rows, num_features, n_bits, seed):
    layout = make_layout(COMPACT_BINARY, num_rows, num_features, n_bits)
    assume(1 + layout.n_k + layout.memory_qubit_count <= 18)
    dig = digitize(random_std(num_rows, num_features, seed), n_bits)
    mf = memory_free_compact(dig)
    qm = prepare_compact_with_memory(dig)
    np.testing.assert_allclose(mf.state.amplitudes, qm.state.amplitudes, atol=1e-12)
    assert abs(mf.state.norm_squared - qm.state.norm_squared) < 1e-12


def test_all_zero_table_fails_post_selection():
    dig = make_digitized(np.zeros(4), 2, 1)
    dig = DigitizedTable(dig.bits, np.zeros(4), 2, 1)
    with pytest.raises(ZeroSuccessProbabilityError):
        memory_free_compact(dig)


def test_single_nonzero_cell():
    # oracle: hand simulation gives success sin^2(t)/K and conditional |k=0>
    t = 0.45
    base = make_digitized([t, 0.0, 0.0, 0.0], 2, 1, n_bits=12)
    dig = DigitizedTable(base.bits, np.array([base.x_tilde[0], 0.0, 0.0, 0.0]), 2, 1)
    prep = memory_free_compact(dig)
    t_dig = dig.x_tilde[0]
    assert abs(prep.state.norm_squared - np.sin(t_dig) ** 2 / 4.0) < 1e-12
    conditional = prep.state.amplitudes / np.sqrt(prep.state.norm_squared)
    np.testing.assert_allclose(np.abs(conditional), [1, 0, 0, 0], atol=1e-12)


def test_success_probability_scales_inversely_with_rows():
    probs = {}
    for num_rows in (4, 8, 16):
        std = random_std(num_rows, 1, 21)
        dig = digitize(std, 10)
        prep = memory_free_compact(dig)
        k_pad = 1 << prep.layout.n_k
        # exact simulated value vs the mean-square approximation sum(x~^2) / K
        success = prep.state.norm_squared
        assert abs(success - np.sum(np.sin(dig.x_tilde) ** 2) / k_pad) < 1e-12
        # the x~^2 approximation overshoots by the sin distortion only
        mean_square = np.sum(dig.x_tilde**2) / k_pad
        assert 0.8 < success / mean_square <= 1.0
        probs[num_rows] = success
    assert probs[4] / probs[8] == pytest.approx(2.0, rel=0.25)
    assert probs[8] / probs[16] == pytest.approx(2.0, rel=0.25)


def test_small_amplitude_taylor_bound():
    std = random_std(4, 3, 9)
    dig = digitize(std, 10)
    x = dig.x_tilde
    assert np.max(np.abs(np.sin(x) - x)) <= np.max(np.abs(x)) ** 3 / 6.0 + 1e-15


def test_scheme_equivalence_downstream_cost():
    rng = np.random.default_rng(30)
    for _ in range(5):
        L = int(rng.integers(2, 5))
        M = int(rng.integers(1, 5))
        std = random_std(L, M, int(rng.integers(0, 1 << 30)))
        phases = PhaseVector(rng.uniform(0, 2 * np.pi, M + 1))
        costs = [
            map_and_measure(prepare_exact(std, ONE_HOT), phases),
            map_and_measure(prepare_exact(std, COMPACT_BINARY), phases),
            map_and_measure(prepare_one_hot_chain(std), phases),
        ]
        assert max(costs) - min(costs) < 1e-9


def test_digitization_error_propagation():
    std = random_std(4, 3, 8)
    phases = PhaseVector(np.array([np.pi, 0.4, 1.2, 2.2]))
    exact = map_and_measure(prepare_exact(std, COMPACT_BINARY), phases)
    max_cube = np.max(np.abs(std.values)) ** 3 / 6.0
    errors = {}
    for n_bits in (2, 4, 8, 12):
        prep = unit_norm(memory_free_compact(digitize(std, n_bits)))
        errors[n_bits] = abs(map_and_measure(prep, phases) - exact)
        assert errors[n_bits] <= 5.0 * (2.0**-n_bits + max_cube)
    assert errors[12] <= errors[2] + 1e-12
    # infinite-precision limit: only the sin() distortion remains
    prep_inf = unit_norm(memory_free_compact(digitize(std, 40)))
    assert abs(map_and_measure(prep_inf, phases) - exact) <= 5.0 * max_cube


def test_compact_routes_enforce_the_qubit_cap():
    # 2**22 + 1 rows need 23 row qubits: with the column qubit and the
    # ancilla that is one past the 24-qubit cap.  Broadcast views keep the
    # table itself free; the check must come before the state is allocated.
    num_rows = (1 << 22) + 1
    cells = np.broadcast_to(0.25, (num_rows, 2))
    dig = DigitizedTable(np.broadcast_to(np.int64(0), (2 * num_rows, 1)), cells.reshape(-1),
                         num_rows, 1)
    with pytest.raises(ValueError, match="capped at 24"):
        memory_free_compact(dig)


def test_layout_geometry():
    layout = make_layout(COMPACT_BINARY, 4, 3)
    assert (layout.n_l, layout.n_m, layout.n_k) == (2, 2, 4)
    assert layout.code_basis_indices[2, 1] == 1 + (2 << 2)
    one_hot = make_layout(ONE_HOT, 2, 1)
    assert one_hot.data_qubit_count == 4
    assert one_hot.code_basis_indices[1, 0] == 1 << 2
    assert one_hot.code_basis_indices.shape == (2, 2)


def test_code_basis_indices_are_one_read_only_array():
    layout = make_layout(COMPACT_BINARY, 4, 3)
    assert layout.code_basis_indices is layout.code_basis_indices
    with pytest.raises(ValueError):
        layout.code_basis_indices[0, 0] = 5
