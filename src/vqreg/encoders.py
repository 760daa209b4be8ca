"""Data-state preparation for both register layouts.

Layouts
-------
* ``one-hot``: cell ``(l, m)`` owns qubit ``j = m + l*(M+1)``; the encoded
  state lives on the ``L*(M+1)`` one-hot basis states ``|1_j>``.
* ``compact-binary`` / ``exact-injection``: the column index ``m`` occupies
  qubits ``0 .. N_M-1`` and the row index ``l`` qubits ``N_M .. N_M+N_L-1``,
  so cell ``(l, m)`` is the basis index ``m + (l << N_M)``.  Cells with
  ``l >= L`` or ``m > M`` are padding and always carry zero amplitude.

Three preparation routes are provided: direct amplitude injection (the
circuit-free reference), the controlled-Ry/CNOT gadget chain for one-hot
states, and the compact route that writes phases ``sin(x_k)`` via an
ancilla (optionally driving them from a simulated quantum memory register
holding the digitized bits).  The classically driven compact routes apply
all cell phases as one diagonal layer; the memory-driven route,
:func:`prepare_compact_with_memory`, stays gate by gate, as the paper
describes it, and is the oracle the fused layer is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DigitizedTable, StandardizedTable
from .statevector import (
    DiagonalPhaseSpec,
    StateVector,
    apply_cnot,
    apply_controlled_diagonal_phase,
    apply_controlled_ry,
    apply_signed_phases,
    basis_state,
    extract_projected_qubit,
    project_qubit,
)

ONE_HOT = "one-hot"
COMPACT_BINARY = "compact-binary"
EXACT_INJECTION = "exact-injection"

AMPLITUDE_EXACT = "exact"
AMPLITUDE_SIN_DIGITIZED = "sin-digitized"

_MAX_SIM_QUBITS = 24


class ZeroSuccessProbabilityError(ValueError):
    """Post-selection can never succeed (e.g. an all-zero table)."""


@dataclass(frozen=True)
class EncodingLayout:
    """Register geometry for one data table under one scheme."""

    scheme: str
    num_rows: int
    num_features: int
    n_bits: int | None = None
    memory_qubit_count: int = 0

    def __post_init__(self):
        if self.scheme not in (ONE_HOT, COMPACT_BINARY, EXACT_INJECTION):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    @property
    def n_l(self) -> int:
        return max(1, int(np.ceil(np.log2(self.num_rows))))

    @property
    def n_m(self) -> int:
        return max(1, int(np.ceil(np.log2(self.num_features + 1))))

    @property
    def n_k(self) -> int:
        return self.n_l + self.n_m

    @property
    def num_cells(self) -> int:
        return self.num_rows * (self.num_features + 1)

    @property
    def data_qubit_count(self) -> int:
        if self.scheme == ONE_HOT:
            return self.num_cells
        return self.n_k

    @property
    def ancilla(self) -> int:
        # circuits place the fresh ancilla above the data register
        return self.data_qubit_count

    def cell_basis_index(self, row: int, col: int) -> int:
        if not (0 <= row < self.num_rows and 0 <= col <= self.num_features):
            raise IndexError(f"cell ({row}, {col}) outside the table")
        if self.scheme == ONE_HOT:
            return 1 << (col + row * (self.num_features + 1))
        return col + (row << self.n_m)

    def code_basis_indices(self) -> np.ndarray:
        """Basis indices of all real cells, row-major, shape (L, M+1)."""
        rows = np.arange(self.num_rows)[:, None]
        cols = np.arange(self.num_features + 1)[None, :]
        if self.scheme == ONE_HOT:
            return np.int64(1) << (cols + rows * (self.num_features + 1))
        return cols + (rows << self.n_m)


@dataclass(frozen=True)
class PreparedState:
    """A data state ready for the regression map.

    ``state`` spans only the data qubits.  For post-selected preparations
    it is the **unnormalized** conditional state, and
    ``success_probability`` equals its squared norm; exact preparations
    carry unit norm and success probability 1.
    """

    state: StateVector
    layout: EncodingLayout
    success_probability: float
    amplitude_model: str

    def normalized(self) -> "PreparedState":
        return PreparedState(
            self.state.renormalized(), self.layout, self.success_probability, self.amplitude_model
        )


def make_layout(scheme: str, num_rows: int, num_features: int, n_bits: int | None = None,
                with_memory: bool = False) -> EncodingLayout:
    mem = 0
    if with_memory:
        if n_bits is None:
            raise ValueError("memory layout requires n_bits")
        mem = num_rows * (num_features + 1) * n_bits
    return EncodingLayout(scheme, num_rows, num_features, n_bits, mem)


def _check_simulable(layout: EncodingLayout) -> None:
    if layout.data_qubit_count + 1 > _MAX_SIM_QUBITS:
        raise ValueError(
            f"{layout.scheme} layout needs {layout.data_qubit_count} data qubits; "
            f"the dense simulator is capped at {_MAX_SIM_QUBITS}"
        )


def prepare_exact(std: StandardizedTable, scheme: str = EXACT_INJECTION) -> PreparedState:
    """Write the standardized table directly into the amplitudes (the
    circuit-free oracle path)."""
    layout = make_layout(scheme, std.num_rows, std.num_features)
    _check_simulable(layout)
    amps = np.zeros(1 << layout.data_qubit_count, dtype=np.complex128)
    amps[layout.code_basis_indices().reshape(-1)] = std.values.reshape(-1)
    return PreparedState(StateVector(layout.data_qubit_count, amps), layout, 1.0, AMPLITUDE_EXACT)


def chain_angles(amplitudes: np.ndarray) -> np.ndarray:
    """Rotation angles for the gadget chain that prepares a unit one-hot
    amplitude vector.

    Gadget ``j`` fixes amplitude ``j`` and forwards the remaining tail to
    qubit ``j+1``: ``cos(theta_j) = a_j / t_j`` with ``t_j`` the norm of
    ``a_{j:}``.  The final gadget carries the sign of the last amplitude;
    an exhausted tail (``t_j = 0``) yields angle 0.
    """
    a = np.asarray(amplitudes, dtype=np.float64)
    n = a.size
    if n < 2:
        raise ValueError("need at least two amplitudes")
    tail_sq = np.concatenate([np.cumsum(a[::-1] ** 2)[::-1], [0.0]])
    tails = np.sqrt(np.maximum(tail_sq, 0.0))
    thetas = np.zeros(n - 1)
    for j in range(n - 1):
        if tails[j] <= 0.0:
            continue
        forward = a[n - 1] if j == n - 2 else tails[j + 1]
        thetas[j] = np.arctan2(forward, a[j])
    return thetas


def prepare_one_hot_chain(std: StandardizedTable) -> PreparedState:
    """Prepare the one-hot data state from ``|1_0>`` with the
    controlled-Ry-then-CNOT gadget applied along qubit pairs
    ``(0,1), (1,2), ...``; unit success probability."""
    layout = make_layout(ONE_HOT, std.num_rows, std.num_features)
    _check_simulable(layout)
    target = std.values.reshape(-1)
    thetas = chain_angles(target)
    state = basis_state(layout.data_qubit_count, 1)
    for j, theta in enumerate(thetas):
        state = apply_controlled_ry(state, control=j, target=j + 1, theta=theta)
        state = apply_cnot(state, control=j + 1, target=j)
    return PreparedState(state, layout, 1.0, AMPLITUDE_EXACT)


def _qpu_controls(layout: EncodingLayout, row: int, col: int) -> tuple:
    index = col + (row << layout.n_m)
    return tuple((q, (index >> q) & 1) for q in range(layout.n_k))


def _compact_from_phases(layout: EncodingLayout, x: np.ndarray) -> PreparedState:
    """Ancilla ``|+>`` over a uniform register superposition, the phase
    ``exp(-i Z_A x_lm)`` on every real cell as one diagonal layer, then
    post-selection of the ancilla on ``|->``."""
    _check_simulable(layout)
    n = layout.n_k + 1
    anc = layout.n_k
    amps = np.full(1 << n, 1.0 / np.sqrt(2.0 * (1 << layout.n_k)), dtype=np.complex128)
    state = apply_signed_phases(StateVector(n, amps), layout.code_basis_indices(), -x, anc)
    projected, prob = project_qubit(state, anc, "x-")
    if prob <= 0.0:
        raise ZeroSuccessProbabilityError("ancilla projection onto |-> has zero probability")
    conditional = extract_projected_qubit(projected, anc, "x-")
    # fix the overall phase (-i from the projection) so code amplitudes are real
    return PreparedState(
        StateVector(conditional.num_qubits, 1j * conditional.amplitudes),
        layout,
        prob,
        AMPLITUDE_SIN_DIGITIZED,
    )


def memory_free_compact(dig: DigitizedTable) -> PreparedState:
    """Compact preparation with the phases driven classically: one
    ancilla-signed phase ``exp(-i Z_A x_k)`` per real cell from the
    digitized values.  The returned conditional state has amplitudes
    proportional to ``sin(x_k)`` and squared norm equal to the success
    probability."""
    layout = make_layout(COMPACT_BINARY, dig.num_rows, dig.num_features, dig.n_bits)
    return _compact_from_phases(
        layout, dig.x_tilde.reshape(dig.num_rows, dig.num_features + 1))


def prepare_compact_with_memory(dig: DigitizedTable) -> PreparedState:
    """Compact preparation driven by a simulated quantum memory register.

    The digitized bits sit in a computational basis state; every phase
    ``exp(-i dtheta_j Z_A (x) |k><k| (x) Z_{k,j})`` is applied as a genuine
    multi-register gate, the ancilla is post-selected on ``|->`` and the
    memory register (never entangled with the data register) is traced
    out by slicing its basis state.
    """
    layout = make_layout(COMPACT_BINARY, dig.num_rows, dig.num_features, dig.n_bits,
                         with_memory=True)
    k_cells = layout.num_cells
    n = 1 + layout.n_k + layout.memory_qubit_count
    if n > _MAX_SIM_QUBITS:
        raise ValueError(
            f"memory simulation needs {n} qubits (> {_MAX_SIM_QUBITS}); "
            "use memory_free_compact for larger tables"
        )
    anc = n - 1
    dim_qpu = 1 << layout.n_k

    mem_pattern = 0
    for k in range(k_cells):
        for j in range(dig.n_bits):
            if dig.bits[k, j]:
                mem_pattern |= 1 << (k * dig.n_bits + j)

    amps = np.zeros(1 << n, dtype=np.complex128)
    qpu = np.arange(dim_qpu, dtype=np.int64)
    base = (mem_pattern << layout.n_k) | qpu
    amps[base] = 1.0 / np.sqrt(2.0 * dim_qpu)
    amps[base | (1 << anc)] = 1.0 / np.sqrt(2.0 * dim_qpu)
    state = StateVector(n, amps)

    cols = dig.num_features + 1
    for k in range(k_cells):
        controls = _qpu_controls(layout, k // cols, k % cols)
        for j, dtheta in enumerate(dig.delta_thetas):
            mem_q = layout.n_k + k * dig.n_bits + j
            # exp(-i dtheta Z_A |k><k| Z_mem): split on the memory bit value
            state = apply_controlled_diagonal_phase(
                state, DiagonalPhaseSpec(controls + ((mem_q, 0),), -dtheta, sign_qubit=anc)
            )
            state = apply_controlled_diagonal_phase(
                state, DiagonalPhaseSpec(controls + ((mem_q, 1),), +dtheta, sign_qubit=anc)
            )

    projected, prob = project_qubit(state, anc, "x-")
    if prob <= 0.0:
        raise ZeroSuccessProbabilityError("ancilla projection onto |-> has zero probability")
    without_anc = extract_projected_qubit(projected, anc, "x-")
    # memory register is in a basis state: slice its block
    block = without_anc.amplitudes[(mem_pattern << layout.n_k) + qpu]
    conditional = StateVector(layout.n_k, 1j * block)
    return PreparedState(conditional, layout, prob, AMPLITUDE_SIN_DIGITIZED)


def compact_from_exact_values(std: StandardizedTable) -> PreparedState:
    """Infinite-precision limit of the compact route: phases are the exact
    standardized values, amplitudes proportional to ``sin(x_lm)``."""
    layout = make_layout(COMPACT_BINARY, std.num_rows, std.num_features)
    return _compact_from_phases(layout, std.values)


def success_probability_approximations(dig: DigitizedTable) -> dict:
    """Two closed-form success-probability approximations for the
    compact route, reported side by side with no reconciliation:
    the mean-square estimate ``sum(x~^2) / K`` and the per-feature-scaled
    bound ``(1 + M) / K`` (they coincide only when the per-column energies
    sum to ``1 + M``)."""
    k_pad = 1 << make_layout(COMPACT_BINARY, dig.num_rows, dig.num_features).n_k
    return {
        "mean_square": float((dig.x_tilde**2).sum() / k_pad),
        "feature_scaled": float((1 + dig.num_features) / k_pad),
    }
