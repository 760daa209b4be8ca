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

from .circuit import PhaseVector, apply_regression_map
from .data import StandardizedTable
from .encoders import ONE_HOT, EncodingLayout, PreparedState
from .statevector import StateVector, apply_hadamard, index_bits, sample_indices

ESTIMATOR_EXACT = "exact"
ESTIMATOR_COMPACT_X = "compact-x-basis"
ESTIMATOR_ONE_HOT_GROUPED = "grouped-pauli"
ESTIMATOR_SHADOWS = "pauli-shadows"

VARIANCE_IDENTITY_PLUS_M = "identity-plus-m"
VARIANCE_OPERATOR = "operator-derived"


class LayoutMismatchError(ValueError):
    """State and layout disagree (qubit count or code-space support)."""


@dataclass(frozen=True)
class CostEstimate:
    value: float
    estimator: str
    shots: int
    std_error: float
    readout_delta: float = 0.0
    seed: int | None = None


@dataclass(frozen=True)
class ModelMetrics:
    cost: float
    c0: float
    r_squared: float


@dataclass(frozen=True)
class ShotBudget:
    """Bernstein-style budget ``ceil(2 sigma^2 ln(1/alpha) / eps^2)``.

    Both variance candidates are carried: ``1 + M C - C^2`` (implied by
    the ``I + M*M_hat`` closure of ``M_hat^2``) and ``(M+1) C - C^2``
    (implied by the verified closure ``M_hat^2 = (M+1) M_hat``).
    """

    epsilon: float
    alpha: float
    formula: str
    variance: float
    required_shots: int
    variance_identity_plus_m: float
    variance_operator: float
    shots_identity_plus_m: int
    shots_operator: int


@dataclass(frozen=True)
class ShadowConfig:
    """Random-Pauli shadow protocol parameters.

    ``locality`` is the observable support size (the column-register width
    for the compact cost operator); the shadow norm scales as
    ``4**locality``.  Snapshots are split into ``ceil(2 ln(1/failure_prob))``
    groups for median-of-means.
    """

    snapshots: int
    locality: int
    seed: int = 0
    failure_prob: float = 0.05

    def __post_init__(self):
        if self.snapshots < 1:
            raise ValueError("snapshots must be positive")
        if not 0.0 < self.failure_prob < 1.0:
            raise ValueError("failure_prob must be in (0, 1)")

    @property
    def shadow_norm_bound(self) -> float:
        return 4.0**self.locality

    @property
    def groups(self) -> int:
        return max(1, int(np.ceil(2.0 * np.log(1.0 / self.failure_prob))))


def shadow_snapshot_budget(n_m: int, epsilon: float, calibration: float = 12.0) -> int:
    """Snapshot count ``ceil(c * ln(2**N_M) * 4**N_M / eps^2)``.

    The constant ``c = 12`` was calibrated so that the estimate lands
    within ``eps`` of the truth in well over 95% of repetitions (the
    protocol's variance per snapshot is below ``4**N_M``, giving roughly a
    3-sigma margin at this budget).
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    return int(np.ceil(calibration * np.log(2.0**n_m) * 4.0**n_m / epsilon**2))


def exact_cost_estimate(psi0: StateVector, layout: EncodingLayout) -> CostEstimate:
    """Wrap the exact expectation as a :class:`CostEstimate` (zero shots,
    zero standard error)."""
    return CostEstimate(exact_expectation(psi0, layout), ESTIMATOR_EXACT, 0, 0.0)


def code_amplitudes(psi0: StateVector, layout: EncodingLayout) -> np.ndarray:
    """Amplitudes of the real table cells, shape (L, M+1).

    Raises :class:`LayoutMismatchError` if the state size disagrees with
    the layout or if weight leaks outside the code space (padding cells
    must stay empty).
    """
    if psi0.num_qubits != layout.data_qubit_count:
        raise LayoutMismatchError(
            f"state has {psi0.num_qubits} qubits, layout wants {layout.data_qubit_count}"
        )
    amps = psi0.amplitudes[layout.code_basis_indices()]
    code_weight = float(np.sum(np.abs(amps) ** 2))
    if psi0.norm_squared - code_weight > 1e-9 * max(1.0, psi0.norm_squared):
        raise LayoutMismatchError("state has weight outside the layout's code space")
    return amps


def exact_expectation(psi0: StateVector, layout: EncodingLayout) -> float:
    """Cost-operator expectation on the (possibly subnormalized) state:
    ``sum_l |sum_m a_lm|^2``."""
    amps = code_amplitudes(psi0, layout)
    row_sums = amps.sum(axis=1)
    return float(np.sum(np.abs(row_sums) ** 2))


def circuit_cost(prep: PreparedState, phases: PhaseVector) -> float:
    """Run the regression map on a prepared state and measure the cost."""
    psi0, _ = apply_regression_map(prep, phases)
    return exact_expectation(psi0, prep.layout)


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
    if layout.scheme == ONE_HOT:
        return layout.num_cells + 1
    return layout.n_k + 1


def readout_attenuation(delta: float, n_measured: int) -> float:
    """Expected signal retention ``(1 - delta)**n_measured``."""
    return (1.0 - delta) ** n_measured


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


#: ``(-i)**k`` for ``k = 0..3``: the phase S-dagger gates leave on a basis state
_MINUS_I_POWERS = np.array([1.0, -1.0j, -1.0, 1.0j])


def _rotate_to_pauli_basis(state: StateVector, x_mask: int, y_mask: int) -> StateVector:
    """Rotate the qubits in ``x_mask`` to the X basis and those in
    ``y_mask`` to the Y basis: S-dagger on every Y qubit as one diagonal
    multiply by ``(-i)**popcount(index & y_mask)``, then a Hadamard on every
    X or Y qubit in ascending order."""
    if y_mask:
        k = np.bitwise_count(np.arange(state.amplitudes.size, dtype=np.int64) & y_mask)
        state = StateVector(state.num_qubits, state.amplitudes * _MINUS_I_POWERS[k & 3])
    for q in range(state.num_qubits):
        if ((x_mask | y_mask) >> q) & 1:
            state = apply_hadamard(state, q)
    return state


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta < 0.5:
        raise ValueError("readout delta must lie in [0, 0.5)")


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
    n_data = layout.n_k
    if psi_pre_projection.num_qubits != n_data + 1:
        raise LayoutMismatchError("expected the pre-projection state (data + ancilla)")

    col_mask = (1 << layout.n_m) - 1
    state = _rotate_to_pauli_basis(psi_pre_projection, col_mask, 0)

    root = _seed_sequence(seed)
    sample_seed, noise_seed = root.spawn(2)
    idx = sample_indices(state, shots, sample_seed)
    accept = (((idx >> n_data) & 1) == 0) & ((idx & col_mask) == 0)
    if readout_delta > 0.0:
        keep = readout_attenuation(readout_delta, measured_qubit_count(layout))
        clean = np.random.default_rng(noise_seed).random(shots) < keep
        accept = accept & clean

    scale = float(1 << layout.n_m)
    p_hat = accept.mean()
    value = scale * p_hat
    std_error = scale * np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / shots)
    return CostEstimate(value, ESTIMATOR_COMPACT_X, shots, float(std_error),
                        readout_delta, _seed_to_int(seed))


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
    root = _seed_sequence(seed)
    children = root.spawn(6)
    keep = readout_attenuation(readout_delta, measured_qubit_count(layout))

    def draw(state, count, sample_seed, noise_seed):
        idx = sample_indices(state, count, sample_seed)
        acc = ((idx >> n_data) & 1) == 0
        if readout_delta > 0.0:
            clean = np.random.default_rng(noise_seed).random(count) < keep
            acc = acc & clean
        return idx, acc

    # (a) computational basis: identity term restricted to ancilla 0
    _, acc_a = draw(psi_pre_projection, split[0], children[0], children[1])
    w_a = acc_a.astype(np.float64)

    def pair_weights(state, count, sample_seed, noise_seed):
        idx, acc = draw(state, count, sample_seed, noise_seed)
        bits = index_bits(idx, range(n_data))
        signs = 1.0 - 2.0 * bits
        row_sums = signs.reshape(count, layout.num_rows, layout.num_features + 1).sum(axis=2)
        pair_sum = ((row_sums**2).sum(axis=1) - n_data) / 2.0
        return acc * pair_sum

    # (b) global X basis, (c) global Y basis
    data_mask = (1 << n_data) - 1
    state_x = _rotate_to_pauli_basis(psi_pre_projection, data_mask, 0)
    w_b = pair_weights(state_x, split[1], children[2], children[3])
    state_y = _rotate_to_pauli_basis(psi_pre_projection, 0, data_mask)
    w_c = pair_weights(state_y, split[2], children[4], children[5])

    value = w_a.mean() + 0.5 * (w_b.mean() + w_c.mean())
    var = 0.0
    for w, count, factor in ((w_a, split[0], 1.0), (w_b, split[1], 0.25), (w_c, split[2], 0.25)):
        if count > 1:
            var += factor * w.var(ddof=1) / count
    return CostEstimate(float(value), ESTIMATOR_ONE_HOT_GROUPED, shots,
                        float(np.sqrt(var)), readout_delta, _seed_to_int(seed))


def _seed_to_int(seed) -> int | None:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return None


def shadow_string_snapshot_estimates(bases: np.ndarray, bits: np.ndarray, qubits) -> np.ndarray:
    """Per-snapshot inverse-channel estimates of one X-string supported on
    ``qubits``, given per-qubit basis picks (0=X, 1=Y, 2=Z) and outcome
    bits.  The empty string is the identity: exactly 1 per snapshot; a
    supported string contributes ``3**|support|`` times the outcome signs
    when every support qubit happened to be measured in X, else 0.
    """
    qs = list(qubits)
    if not qs:
        return np.ones(bases.shape[0])
    match = np.all(bases[:, qs] == 0, axis=1)
    signs = np.prod(1.0 - 2.0 * bits[:, qs], axis=1)
    return match * (3.0 ** len(qs)) * signs


def pauli_shadow_estimate(
    psi0: StateVector,
    layout: EncodingLayout,
    config: ShadowConfig,
    norm_squared: float = 1.0,
) -> CostEstimate:
    """Random-Pauli classical-shadow estimate of the compact cost operator.

    ``psi0`` must be normalized; pass the squared norm of the post-selected
    state through ``norm_squared`` so the unnormalized expectation is
    recovered.  Each snapshot measures every qubit in a uniformly random
    Pauli basis; the single-qubit inverse channel
    ``3 |outcome><outcome| - I`` turns the record into unbiased estimates
    of the ``2**N_M`` X/I strings the operator expands into, combined by
    median-of-means over ``config.groups`` groups.
    """
    if layout.scheme == ONE_HOT:
        raise LayoutMismatchError("random-Pauli shadows are wired for the compact layout")
    n = layout.data_qubit_count
    if psi0.num_qubits != n:
        raise LayoutMismatchError("state size does not match layout")
    if abs(psi0.norm_squared - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalized; track its norm via norm_squared")
    groups = config.groups
    if config.snapshots < groups:
        raise ValueError(f"need at least {groups} snapshots for {groups} groups")

    root = _seed_sequence(config.seed)
    basis_seed, outcome_seed = root.spawn(2)
    bases = np.random.default_rng(basis_seed).integers(0, 3, size=(config.snapshots, n))
    outcome_rng = np.random.default_rng(outcome_seed)

    combo_key = bases @ (3 ** np.arange(n, dtype=np.int64))
    outcomes = np.empty(config.snapshots, dtype=np.int64)
    for key in np.unique(combo_key):
        mask = combo_key == key
        x_mask = y_mask = 0
        value = int(key)
        for q in range(n):
            basis_q = value % 3
            value //= 3
            if basis_q == 0:
                x_mask |= 1 << q
            elif basis_q == 1:
                y_mask |= 1 << q
        rotated = _rotate_to_pauli_basis(psi0, x_mask, y_mask)
        probs = rotated.probabilities()
        probs = probs / probs.sum()
        outcomes[mask] = outcome_rng.choice(probs.size, size=int(mask.sum()), p=probs)

    bits = index_bits(outcomes, range(n))
    estimates = np.zeros(config.snapshots)
    for s_mask in range(1 << layout.n_m):
        qs = [q for q in range(layout.n_m) if (s_mask >> q) & 1]
        estimates += shadow_string_snapshot_estimates(bases, bits, qs)

    group_means = np.array([chunk.mean() for chunk in np.array_split(estimates, groups)])
    value = float(np.median(group_means)) * norm_squared
    if groups > 1:
        std_error = float(np.std(group_means, ddof=1) / np.sqrt(groups)) * norm_squared
    else:
        std_error = float(np.std(estimates, ddof=1) / np.sqrt(config.snapshots)) * norm_squared
    return CostEstimate(value, ESTIMATOR_SHADOWS, config.snapshots, std_error,
                        0.0, _seed_to_int(config.seed))


def model_metrics(cost: float, std: StandardizedTable, phases: PhaseVector) -> ModelMetrics:
    """Null-model cost ``C0 = cos^2(phi_0) / (1 + F)`` and
    ``R^2 = 1 - C/C0``."""
    c0 = float(np.cos(phases.phis[0]) ** 2 * std.c0)
    if c0 <= 0.0:
        raise ValueError("C0 vanishes (degenerate response phase)")
    return ModelMetrics(cost=float(cost), c0=c0, r_squared=1.0 - float(cost) / c0)


def variance_identity_plus_m(cost: float, num_features: int) -> float:
    """Single-shot variance ``1 + M C - C^2`` implied by the
    ``I + M*M_hat`` closure (kept for side-by-side reporting)."""
    return 1.0 + num_features * cost - cost**2


def variance_operator_derived(cost: float, num_features: int) -> float:
    """Variance implied by ``M_hat^2 = (M+1) M_hat``: ``(M+1) C - C^2``,
    with ``C`` the expectation on the normalized measured state; there is
    no constant term."""
    return (num_features + 1) * cost - cost**2


def required_shots(
    cost: float,
    num_features: int,
    epsilon: float,
    alpha: float,
    variance_formula: str = VARIANCE_OPERATOR,
) -> ShotBudget:
    """Bernstein sample budget for resolving the cost to ``epsilon`` at
    confidence ``1 - alpha``; both variance formulas are reported."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if variance_formula not in (VARIANCE_IDENTITY_PLUS_M, VARIANCE_OPERATOR):
        raise ValueError(f"unknown variance formula {variance_formula!r}")

    def budget(sigma_sq: float) -> int:
        return int(np.ceil(2.0 * max(sigma_sq, 0.0) * np.log(1.0 / alpha) / epsilon**2))

    var_affine = variance_identity_plus_m(cost, num_features)
    var_op = variance_operator_derived(cost, num_features)
    chosen = var_affine if variance_formula == VARIANCE_IDENTITY_PLUS_M else var_op
    return ShotBudget(
        epsilon=epsilon,
        alpha=alpha,
        formula=variance_formula,
        variance=chosen,
        required_shots=budget(chosen),
        variance_identity_plus_m=var_affine,
        variance_operator=var_op,
        shots_identity_plus_m=budget(var_affine),
        shots_operator=budget(var_op),
    )
