"""Everything downstream of the post-selected state: the cost operator in
both encodings, exact expectations, shot estimators with readout error,
random-Pauli classical shadows, model quality metrics, and shot-budget
arithmetic.

Readout-error model
-------------------
Each recorded bit misreads independently with probability ``delta``.  The
estimators use the customary leading-order treatment of the readout
operators ``R0 = (1-d)|0><0| + d|1><1|`` (and its flip): a shot with any
misread among the measured bits is counted as rejected, so the expected
estimate is attenuated by ``(1 - delta)**n_measured``, i.e. the
first-order slope against ``delta`` is ``-(measured qubits) * C``.
Second-order re-acceptance of corrupted strings is deliberately not
modeled; it is what the leading-order operator expression drops.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import StandardizedTable
from .encoders import ONE_HOT, EncodingLayout
from .statevector import StateVector, _hadamard_in_place, _paired_view, sample_indices

#: median-of-means failure probability of the shadow estimator
SHADOW_FAILURE_PROB = 0.05
#: median-of-means group count of the shadow estimator
SHADOW_GROUPS = max(1, int(np.ceil(2.0 * np.log(1.0 / SHADOW_FAILURE_PROB))))


class LayoutMismatchError(ValueError):
    """State and layout disagree (qubit count or code-space support)."""


@dataclass(frozen=True)
class CostEstimate:
    value: float
    shots: int
    std_error: float


@dataclass(frozen=True)
class ShotBudget:
    """Bernstein-style budget ``ceil(2 sigma^2 ln(1/alpha) / eps^2)``.

    Both variance candidates are carried: ``1 + M C - C^2`` (implied by
    the ``I + M*M_hat`` closure of ``M_hat^2``) and ``2**N_M C - C^2``,
    the compact estimator's exact single-shot variance.
    """

    epsilon: float
    alpha: float
    variance_identity_plus_m: float
    variance_operator: float
    shots_identity_plus_m: int
    shots_operator: int


@dataclass(frozen=True)
class ShadowConfig:
    """Random-Pauli shadow protocol parameters.

    ``locality`` is the observable support size (the column-register width
    for the compact cost operator); the shadow norm scales as
    ``4**locality``.  Snapshots are split into
    ``ceil(2 ln(1/SHADOW_FAILURE_PROB))`` groups for median-of-means.
    """

    snapshots: int
    locality: int
    seed: int = 0

    def __post_init__(self):
        if self.snapshots < 1:
            raise ValueError("snapshots must be positive")

    @property
    def groups(self) -> int:
        return SHADOW_GROUPS


def shadow_snapshot_budget(n_m: int, epsilon: float) -> int:
    """Snapshot count ``ceil(c * ln(2**N_M) * 4**N_M / eps^2)``.

    The constant ``c = 12`` was calibrated so that the estimate lands
    within ``eps`` of the truth in well over 95% of repetitions (the
    protocol's variance per snapshot is below ``4**N_M``, giving roughly a
    3-sigma margin at this budget).
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    return int(np.ceil(12.0 * np.log(2.0**n_m) * 4.0**n_m / epsilon**2))


def exact_expectation(psi0: StateVector, layout: EncodingLayout) -> float:
    """Cost-operator expectation on the (possibly subnormalized) state:
    ``sum_l |sum_m a_lm|^2`` over the amplitudes ``a_lm`` of the real table
    cells.

    Raises :class:`LayoutMismatchError` if the state size disagrees with
    the layout or if weight leaks outside the code space (padding cells
    must stay empty).
    """
    if psi0.num_qubits != layout.data_qubit_count:
        raise LayoutMismatchError(
            f"state has {psi0.num_qubits} qubits, layout wants {layout.data_qubit_count}"
        )
    amps = psi0.amplitudes[layout.code_basis_indices]
    code_weight = float((np.abs(amps) ** 2).sum())
    if psi0.norm_squared - code_weight > 1e-9 * max(1.0, psi0.norm_squared):
        raise LayoutMismatchError("state has weight outside the layout's code space")
    row_sums = amps.sum(axis=1)
    return float((np.abs(row_sums) ** 2).sum())


@dataclass(frozen=True)
class OperatorIdentityReport:
    """Dense cost operator and its square, with the elementwise deviation
    of both candidate closures of ``M_hat^2``."""

    num_rows: int
    num_features: int
    m_hat: np.ndarray
    m_hat_squared: np.ndarray
    deviation_identity_plus_m: float
    deviation_m_plus_one: float
    eigenvalues: np.ndarray


def operator_identity_check(num_rows: int, num_features: int) -> OperatorIdentityReport:
    """Build ``M_hat = I_L (x) J_{M+1}`` densely and compare ``M_hat^2``
    against the two candidate identities ``I + M*M_hat`` and
    ``(M+1)*M_hat``.  The per-row all-ones block satisfies
    ``J^2 = (M+1) J``, so the second candidate is the exact one; the first
    is reported with its deviation."""
    cols = num_features + 1
    m_hat = np.kron(np.eye(num_rows), np.ones((cols, cols)))
    m_sq = m_hat @ m_hat
    dim = m_hat.shape[0]
    dev_affine = float(np.max(np.abs(m_sq - (np.eye(dim) + num_features * m_hat))))
    dev_rows = float(np.max(np.abs(m_sq - (num_features + 1) * m_hat)))
    return OperatorIdentityReport(
        num_rows=num_rows,
        num_features=num_features,
        m_hat=m_hat,
        m_hat_squared=m_sq,
        deviation_identity_plus_m=dev_affine,
        deviation_m_plus_one=dev_rows,
        eigenvalues=np.linalg.eigvalsh(m_hat),
    )


def measured_qubit_count(layout: EncodingLayout) -> int:
    """Qubits read out per shot: the full data register plus the ancilla."""
    return layout.ancilla + 1


def readout_attenuation(delta: float, n_measured: int) -> float:
    """Expected signal retention ``(1 - delta)**n_measured``."""
    return (1.0 - delta) ** n_measured


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _rotate_to_pauli_basis(state: StateVector, x_mask: int, y_mask: int) -> StateVector:
    """Rotate the qubits in ``x_mask`` to the X basis and those in
    ``y_mask`` to the Y basis: in ascending qubit order, S-dagger (the
    ``|1>`` half times ``-1j``) on a Y qubit, then a Hadamard on an X or Y
    qubit."""
    amps = state.amplitudes.copy()
    n = state.num_qubits
    for q in range(n):
        if (y_mask >> q) & 1:
            _paired_view(amps, n, q)[:, 1, :] *= -1j
        if ((x_mask | y_mask) >> q) & 1:
            _hadamard_in_place(amps, n, q)
    return StateVector(n, amps)


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta < 0.5:
        raise ValueError("readout delta must lie in [0, 0.5)")


def _sample_accepted(state: StateVector, layout: EncodingLayout, shots: int,
                     readout_delta: float, seeds) -> tuple:
    """Draw ``shots`` basis indices from the pre-projection ``state`` and
    flag the accepted ones: the ancilla reads 0 and, under readout error,
    no measured bit misreads.  ``seeds`` is ``(sample_seed, noise_seed)``;
    the second draws which shots are clean, each with probability
    :func:`readout_attenuation`."""
    sample_seed, noise_seed = seeds
    idx = sample_indices(state, shots, sample_seed)
    accept = ((idx >> layout.ancilla) & 1) == 0
    if readout_delta > 0.0:
        keep = readout_attenuation(readout_delta, measured_qubit_count(layout))
        accept &= np.random.default_rng(noise_seed).random(shots) < keep
    return idx, accept


def shot_estimate_compact(
    psi_pre_projection: StateVector,
    layout: EncodingLayout,
    shots: int,
    readout_delta: float = 0.0,
    seed=0,
) -> CostEstimate:
    """Single-setting estimator for the compact encoding.

    The cost operator is ``2**N_M`` times the projector onto
    ``|ancilla=0> (x) |columns=+...+>``, so after a Hadamard on every
    column qubit the estimate is ``2**N_M`` times the fraction of shots
    reading ancilla 0 and an all-zero column register.
    """
    if layout.scheme == ONE_HOT:
        raise LayoutMismatchError("compact estimator needs a binary layout")
    if shots < 1:
        raise ValueError("shots must be positive")
    _check_delta(readout_delta)
    if psi_pre_projection.num_qubits != layout.n_k + 1:
        raise LayoutMismatchError("expected the pre-projection state (data + ancilla)")

    col_mask = (1 << layout.n_m) - 1
    state = _rotate_to_pauli_basis(psi_pre_projection, col_mask, 0)
    idx, accept = _sample_accepted(state, layout, shots, readout_delta,
                                   _seed_sequence(seed).spawn(2))
    accept &= (idx & col_mask) == 0

    scale = float(1 << layout.n_m)
    p_hat = accept.mean()
    value = scale * p_hat
    std_error = scale * np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / shots)
    return CostEstimate(value, shots, float(std_error))


def shot_estimate_one_hot(
    psi_pre_projection: StateVector,
    layout: EncodingLayout,
    shots: int,
    readout_delta: float = 0.0,
    seed=0,
) -> CostEstimate:
    """Three-setting grouped-Pauli estimator for the one-hot encoding.

    The cost operator splits into the identity plus half the row-local
    ``X_j X_k + Y_j Y_k`` sums; the three mutually commuting groups are
    measured as (a) the computational basis for the ancilla-0 weight,
    (b) the global X basis, (c) the global Y basis, with the X/Y products
    accumulated only over ancilla-0 shots.  Shots are split evenly.
    """
    if layout.scheme != ONE_HOT:
        raise LayoutMismatchError("grouped-Pauli estimator needs the one-hot layout")
    if shots < 3:
        raise ValueError("need at least one shot per measurement setting")
    _check_delta(readout_delta)
    n_data = layout.num_cells
    if psi_pre_projection.num_qubits != n_data + 1:
        raise LayoutMismatchError("expected the pre-projection state (data + ancilla)")

    third = shots // 3
    split = (shots - 2 * third, third, third)
    children = _seed_sequence(seed).spawn(6)

    # (a) computational basis: identity term restricted to ancilla 0
    _, acc_a = _sample_accepted(psi_pre_projection, layout, split[0], readout_delta,
                                children[0:2])
    w_a = acc_a.astype(np.float64)

    cols = layout.num_features + 1
    shifts = cols * np.arange(layout.num_rows)

    def pair_weights(state, count, seeds):
        idx, acc = _sample_accepted(state, layout, count, readout_delta, seeds)
        # row l's sum of +-1 signs: its cells minus twice its set bits
        ones = np.bitwise_count((idx[:, None] >> shifts) & ((1 << cols) - 1))
        row_sums = cols - 2 * ones.astype(np.int64)
        pair_sum = ((row_sums**2).sum(axis=1) - n_data) / 2.0
        return acc * pair_sum

    # (b) global X basis, (c) global Y basis
    data_mask = (1 << n_data) - 1
    state_x = _rotate_to_pauli_basis(psi_pre_projection, data_mask, 0)
    w_b = pair_weights(state_x, split[1], children[2:4])
    state_y = _rotate_to_pauli_basis(psi_pre_projection, 0, data_mask)
    w_c = pair_weights(state_y, split[2], children[4:6])

    value = w_a.mean() + 0.5 * (w_b.mean() + w_c.mean())
    var = 0.0
    for w, count, factor in ((w_a, split[0], 1.0), (w_b, split[1], 0.25), (w_c, split[2], 0.25)):
        if count > 1:
            var += factor * w.var(ddof=1) / count
    return CostEstimate(float(value), shots, float(np.sqrt(var)))


def pauli_shadow_estimate(
    psi0: StateVector,
    layout: EncodingLayout,
    config: ShadowConfig,
) -> CostEstimate:
    """Random-Pauli classical-shadow estimate of the compact cost operator.

    ``psi0`` must be normalized; the expectation on a post-selected state
    is the estimate times that state's squared norm.  Each snapshot
    measures every qubit in a uniformly random Pauli basis; the
    single-qubit inverse channel
    ``3 |outcome><outcome| - I`` turns the record into unbiased estimates
    of the ``2**N_M`` X/I strings the operator expands into.  A string
    contributes ``3**|S|`` times its outcome signs when every qubit of its
    support ``S`` was measured in X, so the sum over all strings is the
    product ``prod_q (1 + 3 [basis_q = X] sign_q)`` over the column qubits.
    Snapshot estimates are combined by median-of-means over
    ``config.groups`` groups.
    """
    if layout.scheme == ONE_HOT:
        raise LayoutMismatchError("random-Pauli shadows are wired for the compact layout")
    n = layout.data_qubit_count
    if psi0.num_qubits != n:
        raise LayoutMismatchError("state size does not match layout")
    if abs(psi0.norm_squared - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalized")
    groups = config.groups
    if config.snapshots < groups:
        raise ValueError(f"need at least {groups} snapshots for {groups} groups")

    basis_seed, outcome_seed = _seed_sequence(config.seed).spawn(2)
    bases = np.random.default_rng(basis_seed).integers(0, 3, size=(config.snapshots, n))
    outcome_rng = np.random.default_rng(outcome_seed)

    combo_key = bases @ (3 ** np.arange(n, dtype=np.int64))
    bit = 1 << np.arange(n, dtype=np.int64)
    x_masks = (bases == 0) @ bit
    y_masks = (bases == 1) @ bit
    outcomes = np.empty(config.snapshots, dtype=np.int64)
    for key, first in zip(*np.unique(combo_key, return_index=True)):
        mask = combo_key == key
        rotated = _rotate_to_pauli_basis(psi0, int(x_masks[first]), int(y_masks[first]))
        outcomes[mask] = sample_indices(rotated, int(mask.sum()), outcome_rng)

    signs = 1.0 - 2.0 * ((outcomes[:, None] >> np.arange(layout.n_m)) & 1)
    estimates = np.prod(1.0 + 3.0 * (bases[:, :layout.n_m] == 0) * signs, axis=1)

    group_means = np.array([chunk.mean() for chunk in np.array_split(estimates, groups)])
    value = float(np.median(group_means))
    std_error = float(np.std(group_means, ddof=1) / np.sqrt(groups))
    return CostEstimate(value, config.snapshots, std_error)


def r_squared(cost: float, std: StandardizedTable) -> float:
    """``R^2 = 1 - C/C0`` against the null-model cost ``C0 = 1 / (1 + F)``
    of the pinned response phase ``cos(phi_0) = -1``."""
    return 1.0 - float(cost) / std.c0


def variance_identity_plus_m(cost: float, num_features: int) -> float:
    """Single-shot variance ``1 + M C - C^2`` implied by the
    ``I + M*M_hat`` closure (kept for side-by-side reporting)."""
    return 1.0 + num_features * cost - cost**2


def variance_operator_derived(cost: float, num_features: int) -> float:
    """Exact single-shot variance of :func:`shot_estimate_compact`:
    ``2**N_M C - C^2``, with ``C`` the expectation on the normalized
    measured state.  The estimator measures ``2**N_M`` times a projector,
    whose square is ``2**N_M`` times itself; the closure ``M_hat^2 = (M+1)
    M_hat`` gives the same variance only when ``M + 1`` is a power of two."""
    n_m = max(1, int(np.ceil(np.log2(num_features + 1))))
    return (1 << n_m) * cost - cost**2


def required_shots(cost: float, num_features: int, epsilon: float, alpha: float) -> ShotBudget:
    """Bernstein sample budget for resolving the cost to ``epsilon`` at
    confidence ``1 - alpha``, under both variance formulas."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")

    def budget(sigma_sq: float) -> int:
        return int(np.ceil(2.0 * max(sigma_sq, 0.0) * np.log(1.0 / alpha) / epsilon**2))

    var_affine = variance_identity_plus_m(cost, num_features)
    var_op = variance_operator_derived(cost, num_features)
    return ShotBudget(
        epsilon=epsilon,
        alpha=alpha,
        variance_identity_plus_m=var_affine,
        variance_operator=var_op,
        shots_identity_plus_m=budget(var_affine),
        shots_operator=budget(var_op),
    )
