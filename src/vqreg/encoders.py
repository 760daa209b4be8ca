"""Data-state preparation for both register layouts.

Layouts
-------
* ``one-hot``: cell ``(l, m)`` owns qubit ``j = m + l*(M+1)``; the encoded
  state lives on the ``L*(M+1)`` one-hot basis states ``|1_j>``.
* ``compact-binary``: the column index ``m`` occupies qubits
  ``0 .. N_M-1`` and the row index ``l`` qubits ``N_M .. N_M+N_L-1``, so
  cell ``(l, m)`` is the basis index ``m + (l << N_M)``.  Cells with
  ``l >= L`` or ``m > M`` are padding and always carry zero amplitude.

Three preparation routes are provided: direct amplitude injection (the
circuit-free reference), the controlled-Ry/CNOT gadget chain for one-hot
states, and the compact route that writes phases ``sin(x_k)`` via an
ancilla from the digitized values as one diagonal layer (the tests hold
the paper's gate-by-gate, memory-driven form of it as an oracle).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import DigitizedTable, StandardizedTable
from .statevector import (
    StateVector,
    apply_cnot,
    apply_controlled_diagonal_phase,  # noqa: F401  bench/test_bench.py reads it here
    apply_controlled_ry,
    apply_hadamard,
    apply_signed_phases,
    basis_state,
    postselect,
)

ONE_HOT = "one-hot"
COMPACT_BINARY = "compact-binary"

_MAX_SIM_QUBITS = 24


class ZeroSuccessProbabilityError(ValueError):
    """Post-selection can never succeed (e.g. an all-zero table)."""


@dataclass(frozen=True)
class EncodingLayout:
    """Register geometry for one data table under one scheme."""

    scheme: str
    num_rows: int
    num_features: int
    memory_qubit_count: int = 0

    def __post_init__(self):
        if self.scheme not in (ONE_HOT, COMPACT_BINARY):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    @cached_property
    def n_l(self) -> int:
        return max(1, int(np.ceil(np.log2(self.num_rows))))

    @cached_property
    def n_m(self) -> int:
        return max(1, int(np.ceil(np.log2(self.num_features + 1))))

    @cached_property
    def n_k(self) -> int:
        return self.n_l + self.n_m

    @cached_property
    def num_cells(self) -> int:
        return self.num_rows * (self.num_features + 1)

    @cached_property
    def data_qubit_count(self) -> int:
        if self.scheme == ONE_HOT:
            return self.num_cells
        return self.n_k

    @cached_property
    def ancilla(self) -> int:
        # circuits place the fresh ancilla above the data register
        return self.data_qubit_count

    @cached_property
    def code_basis_indices(self) -> np.ndarray:
        """Basis indices of all real cells, row-major, shape (L, M+1); one
        read-only array per layout."""
        rows = np.arange(self.num_rows)[:, None]
        cols = np.arange(self.num_features + 1)[None, :]
        if self.scheme == ONE_HOT:
            indices = np.int64(1) << (cols + rows * (self.num_features + 1))
        else:
            indices = cols + (rows << self.n_m)
        indices.flags.writeable = False
        return indices


@dataclass(frozen=True)
class PreparedState:
    """A data state ready for the regression map.

    ``state`` spans only the data qubits.  For post-selected preparations
    it is the **unnormalized** conditional state, whose squared norm is the
    success probability; exact preparations carry unit norm.
    """

    state: StateVector
    layout: EncodingLayout

    @cached_property
    def ancilla_plus(self) -> StateVector:
        """``state`` with the map's ancilla attached above it in ``|+>``."""
        amps = np.concatenate([self.state.amplitudes, np.zeros_like(self.state.amplitudes)])
        return apply_hadamard(StateVector(self.layout.data_qubit_count + 1, amps),
                              self.layout.ancilla)


def make_layout(scheme: str, num_rows: int, num_features: int,
                memory_bits: int = 0) -> EncodingLayout:
    """Layout of a ``num_rows x (num_features + 1)`` table, with a quantum
    memory of ``memory_bits`` qubits per cell (none by default)."""
    return EncodingLayout(scheme, num_rows, num_features,
                          num_rows * (num_features + 1) * memory_bits)


def _check_simulable(layout: EncodingLayout) -> None:
    if layout.data_qubit_count + 1 > _MAX_SIM_QUBITS:
        raise ValueError(
            f"{layout.scheme} layout needs {layout.data_qubit_count} data qubits; "
            f"the dense simulator is capped at {_MAX_SIM_QUBITS}"
        )


def prepare_exact(std: StandardizedTable, scheme: str = COMPACT_BINARY) -> PreparedState:
    """Write the standardized table directly into the amplitudes (the
    circuit-free oracle path)."""
    layout = make_layout(scheme, std.num_rows, std.num_features)
    _check_simulable(layout)
    amps = np.zeros(1 << layout.data_qubit_count, dtype=np.complex128)
    amps[layout.code_basis_indices.reshape(-1)] = std.values.reshape(-1)
    return PreparedState(StateVector(layout.data_qubit_count, amps), layout)


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
    return PreparedState(state, layout)


def memory_free_compact(dig: DigitizedTable) -> PreparedState:
    """Compact preparation with the phases driven classically: ancilla
    ``|+>`` over a uniform register superposition, the phase ``exp(-i Z_A
    x_k)`` on every real cell from the digitized values as one diagonal
    layer, then post-selection of the ancilla on ``|->``.  The returned
    conditional state has amplitudes proportional to ``sin(x_k)`` and
    squared norm equal to the success probability."""
    layout = make_layout(COMPACT_BINARY, dig.num_rows, dig.num_features)
    _check_simulable(layout)
    x = dig.x_tilde.reshape(dig.num_rows, dig.num_features + 1)
    n = layout.n_k + 1
    anc = layout.n_k
    amps = np.full(1 << n, 1.0 / np.sqrt(2.0 * (1 << layout.n_k)), dtype=np.complex128)
    state = apply_signed_phases(StateVector(n, amps), layout.code_basis_indices, -x, anc)
    conditional, prob = postselect(state, anc, "x-")
    if prob <= 0.0:
        raise ZeroSuccessProbabilityError("ancilla projection onto |-> has zero probability")
    # fix the overall phase (-i from the projection) so code amplitudes are real
    return PreparedState(StateVector(layout.n_k, 1j * conditional.amplitudes), layout)

