import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqreg.statevector import (
    DiagonalPhaseSpec,
    StateVector,
    ZeroNormError,
    apply_cnot,
    apply_controlled_diagonal_phase,
    apply_controlled_ry,
    apply_hadamard,
    basis_state,
    postselect,
    sample_indices,
)


def random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def test_gadget_matches_matrix_oracle():
    # oracle: explicit 4x4 matrices for controlled-Ry (control q0) and CNOT (control q1)
    theta = 0.3
    c, s = np.cos(theta), np.sin(theta)
    cry = np.eye(4, dtype=complex)
    # basis order |q1 q0>: indices 1 (q0=1,q1=0) and 3 (q0=1,q1=1) form the controlled block
    cry[1, 1], cry[1, 3] = c, -s
    cry[3, 1], cry[3, 3] = s, c
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]  # control q1 flips q0
    vec = np.zeros(4, dtype=complex)
    vec[1] = 1.0  # |10> in cell order (qubit 0 set)
    expected = cnot @ (cry @ vec)

    got = apply_controlled_ry(basis_state(2, 1), control=0, target=1, theta=theta)
    got = apply_cnot(got, control=1, target=0)
    np.testing.assert_allclose(got.amplitudes, expected, atol=1e-14)
    np.testing.assert_allclose(
        [got.amplitudes[1].real, got.amplitudes[2].real], [0.95534, 0.29552], atol=1e-5
    )


def test_diagonal_phase_zero_angle_is_identity():
    s = random_state(3, 1)
    out = apply_controlled_diagonal_phase(s, DiagonalPhaseSpec(((0, 1),), 0.0))
    np.testing.assert_allclose(out.amplitudes, s.amplitudes)


def test_diagonal_phase_single_control():
    s = StateVector(1, [0.6, 0.8])
    out = apply_controlled_diagonal_phase(s, DiagonalPhaseSpec(((0, 1),), 0.9))
    np.testing.assert_allclose(out.amplitudes, [0.6, 0.8 * np.exp(1j * 0.9)])


def test_diagonal_phase_sign_qubit_enumeration():
    # oracle: enumerate all 8 basis states of controls {(q1,1),(q2,0)} with sign qubit q0
    angle = 0.7
    s = random_state(3, 2)
    out = apply_controlled_diagonal_phase(
        s, DiagonalPhaseSpec(((1, 1), (2, 0)), angle, sign_qubit=0)
    )
    for i in range(8):
        b0, b1, b2 = i & 1, (i >> 1) & 1, (i >> 2) & 1
        phase = np.exp(1j * (-1.0) ** b0 * angle) if (b1 == 1 and b2 == 0) else 1.0
        np.testing.assert_allclose(out.amplitudes[i], s.amplitudes[i] * phase, atol=1e-14)


def test_hadamard_definition_and_involution():
    h = apply_hadamard(basis_state(1, 0), 0)
    np.testing.assert_allclose(h.amplitudes, [1 / np.sqrt(2)] * 2)
    s = random_state(3, 3)
    back = apply_hadamard(apply_hadamard(s, 1), 1)
    np.testing.assert_allclose(back.amplitudes, s.amplitudes, atol=1e-14)


def test_strided_controlled_gates_match_index_masks():
    state = random_state(4, 3)
    idx = np.arange(16)
    for control in range(4):
        for target in range(4):
            if control == target:
                continue
            i = idx[((idx >> control) & 1 == 1) & ((idx >> target) & 1 == 0)]
            j = i | (1 << target)
            a = state.amplitudes
            swapped = a.copy()
            swapped[i], swapped[j] = a[j], a[i]
            np.testing.assert_array_equal(apply_cnot(state, control, target).amplitudes, swapped)
            c, s = np.cos(0.7), np.sin(0.7)
            rotated = a.copy()
            rotated[i], rotated[j] = c * a[i] - s * a[j], s * a[i] + c * a[j]
            np.testing.assert_array_equal(
                apply_controlled_ry(state, control, target, 0.7).amplitudes, rotated)


def test_cnot_definition():
    out = apply_cnot(basis_state(2, 1), control=0, target=1)
    np.testing.assert_allclose(out.amplitudes, basis_state(2, 3).amplitudes)


#: the kept outcome of each post-selection basis as a single-qubit vector
OUTCOMES = {
    "z0": np.array([1.0, 0.0]),
    "z1": np.array([0.0, 1.0]),
    "x+": np.array([1.0, 1.0]) / np.sqrt(2.0),
    "x-": np.array([1.0, -1.0]) / np.sqrt(2.0),
}


def project_then_drop(state, target, basis):
    """Oracle: the dense projector |b><b| on ``target``, then <b| on that
    qubit to drop it from the (now product) state."""
    b = OUTCOMES[basis]
    n = state.num_qubits
    projector = np.kron(np.kron(np.eye(1 << (n - 1 - target)), np.outer(b, b)),
                        np.eye(1 << target))
    projected = (projector @ state.amplitudes).reshape(1 << (n - 1 - target), 2, 1 << target)
    return np.einsum("t,htl->hl", b, projected).reshape(-1), np.vdot(projected, projected).real


def test_projection_examples():
    plus = apply_hadamard(basis_state(1, 0), 0)
    survivor, p = postselect(plus, 0, "z0")
    assert abs(p - 0.5) < 1e-12
    assert survivor.num_qubits == 0
    np.testing.assert_allclose(survivor.amplitudes, [1 / np.sqrt(2)])

    survivor, p = postselect(basis_state(1, 0), 0, "z1")
    assert p == 0.0
    np.testing.assert_allclose(survivor.amplitudes, [0])


def test_projection_completeness_and_idempotence():
    s = random_state(4, 4)
    for q in range(4):
        for keep, other in (("z0", "z1"), ("x+", "x-")):
            _, p_keep = postselect(s, q, keep)
            _, p_other = postselect(s, q, other)
            assert abs(p_keep + p_other - s.norm_squared) < 1e-12
    # a qubit already in the kept state comes off unchanged, with probability 1
    phi = random_state(3, 12)
    product = StateVector(4, np.kron(OUTCOMES["x+"], phi.amplitudes))  # qubit 3 is |+>
    survivor, p = postselect(product, 3, "x+")
    np.testing.assert_allclose(survivor.amplitudes, phi.amplitudes, atol=1e-13)
    assert abs(p - 1.0) < 1e-12


def test_x_basis_projection_oracle():
    s = random_state(2, 5)
    survivor, p = postselect(s, 0, "x-")
    # oracle: <-| on qubit 0, written out for two qubits (qubit 0 is the fast index)
    a = s.amplitudes
    expected = np.array([a[0] - a[1], a[2] - a[3]]) / np.sqrt(2)
    np.testing.assert_allclose(survivor.amplitudes, expected, atol=1e-14)
    assert abs(p - np.linalg.norm(expected) ** 2) < 1e-12


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.data())
def test_postselect_equals_projector_then_drop(num_qubits, data):
    target = data.draw(st.integers(0, num_qubits - 1))
    basis = data.draw(st.sampled_from(sorted(OUTCOMES)))
    state = random_state(num_qubits, data.draw(st.integers(0, 2**32 - 1)))
    survivor, p = postselect(state, target, basis)
    expected, p_expected = project_then_drop(state, target, basis)
    assert survivor.num_qubits == num_qubits - 1
    np.testing.assert_allclose(survivor.amplitudes, expected, rtol=0, atol=1e-12)
    assert abs(p - p_expected) < 1e-12
    assert abs(p - survivor.norm_squared) == 0.0


def test_unitarity_and_linearity():
    rng = np.random.default_rng(6)
    s = random_state(5, 7)
    ops = [
        lambda st: apply_hadamard(st, 4),
        lambda st: apply_cnot(st, 1, 3),
        lambda st: apply_controlled_ry(st, 0, 2, -1.1),
        lambda st: apply_controlled_diagonal_phase(
            st, DiagonalPhaseSpec(((0, 1), (3, 0)), 0.41, sign_qubit=2)
        ),
    ]
    for op in ops:
        out = op(s)
        assert abs(out.norm_squared - s.norm_squared) < 1e-12
    a, b = random_state(5, 8), random_state(5, 9)
    alpha, beta = 0.3 - 0.2j, 0.5 + 0.1j
    mix = StateVector(5, alpha * a.amplitudes + beta * b.amplitudes)
    for op in ops:
        lhs = op(mix).amplitudes
        rhs = alpha * op(a).amplitudes + beta * op(b).amplitudes
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_sampling_contracts():
    # deterministic state -> constant samples
    assert sample_indices(basis_state(3, 0), 5, 1).tolist() == [0] * 5
    # Bernoulli 5 sigma on |+>
    plus = apply_hadamard(basis_state(1, 0), 0)
    idx = sample_indices(plus, 10**5, 12)
    frac = idx.mean()
    assert abs(frac - 0.5) < 5 * np.sqrt(0.25 / 10**5)
    # seed determinism
    assert np.array_equal(sample_indices(plus, 100, 3), sample_indices(plus, 100, 3))
    with pytest.raises(ZeroNormError):
        sample_indices(StateVector(1, [0, 0]), 5, 0)


def test_bitstring_convention():
    # qubit 1 set -> index 2
    assert sample_indices(basis_state(3, 2), 1, 0).tolist() == [2]


def test_index_errors_and_validation():
    s = basis_state(2, 0)
    with pytest.raises(IndexError):
        apply_controlled_ry(s, 0, 2, 0.1)
    with pytest.raises(IndexError):
        apply_hadamard(s, -1)
    with pytest.raises(ValueError):
        apply_cnot(s, 1, 1)
    with pytest.raises(ValueError):
        apply_controlled_diagonal_phase(s, DiagonalPhaseSpec(((0, 1), (0, 0)), 0.3))
    with pytest.raises(ValueError):
        apply_controlled_diagonal_phase(s, DiagonalPhaseSpec(((0, 1),), 0.3, sign_qubit=0))
    with pytest.raises(ValueError):
        postselect(s, 0, "y0")
    with pytest.raises(ValueError):
        StateVector(2, np.zeros(3, dtype=complex))


def test_norm_cache_matches_amplitudes():
    s = random_state(4, 11)
    assert abs(s.norm_squared - np.sum(np.abs(s.amplitudes) ** 2)) < 1e-12
