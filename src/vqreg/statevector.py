"""Dense complex state-vector simulation with the small gate set the
regression circuits need.

Every phase stage of the model (the regression map, the compact
encoding's phase imprint) is one layer of commuting ancilla-signed phases
on known basis indices, so it is applied as a single diagonal pass by
:func:`apply_signed_phases`.  The tests' gate-by-gate oracles of those
passes use the single controlled-phase gate.

Conventions used everywhere in this package:

* Qubits are **little-endian**: qubit ``q`` owns bit ``q`` of the basis
  index, i.e. basis state ``i`` assigns ``(i >> q) & 1`` to qubit ``q``.
* ``Ry(theta)`` is the real rotation ``[[cos t, -sin t], [sin t, cos t]]``
  in the **full angle** convention (not ``theta/2``), so a controlled
  ``Ry(theta)`` followed by a CNOT maps ``|10>`` to
  ``cos(theta)|10> + sin(theta)|01>``.
* Post-selection (:func:`postselect`) drops the measured qubit and returns
  the *unnormalized* survivor over the remaining qubits together with the
  outcome probability, without renormalizing it.  Subnormalized states
  (norm <= 1) are therefore first-class.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

SQRT_HALF = 1.0 / np.sqrt(2.0)

#: Accepted single-qubit post-selection bases.
PROJECTION_BASES = ("z0", "z1", "x+", "x-")


class ZeroNormError(ValueError):
    """Raised when sampling from a state with vanishing norm."""


@dataclass(frozen=True)
class StateVector:
    """Immutable dense state over ``num_qubits`` little-endian qubits.

    ``amplitudes`` has length ``2**num_qubits``.  ``norm_squared`` is
    computed on first read; it may be < 1 for post-selected states.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"amplitude vector has length {amps.shape}, expected {1 << self.num_qubits}"
            )
        object.__setattr__(self, "amplitudes", amps)

    @cached_property
    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)



def basis_state(num_qubits: int, index: int) -> StateVector:
    if not 0 <= index < (1 << num_qubits):
        raise IndexError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.num_qubits:
        raise IndexError(f"qubit {qubit} out of range for {state.num_qubits}-qubit state")


def _paired_view(amps: np.ndarray, num_qubits: int, target: int) -> np.ndarray:
    # (high bits, target bit, low bits) for a little-endian index layout
    return amps.reshape(1 << (num_qubits - 1 - target), 2, 1 << target)


def _hadamard_in_place(amps: np.ndarray, num_qubits: int, target: int) -> None:
    """Overwrite ``amps`` with the Hadamard on ``target`` applied to it."""
    view = _paired_view(amps, num_qubits, target)
    a0 = view[:, 0, :].copy()
    view[:, 0, :] = SQRT_HALF * (a0 + view[:, 1, :])
    view[:, 1, :] = SQRT_HALF * (a0 - view[:, 1, :])


def apply_hadamard(state: StateVector, target: int) -> StateVector:
    _check_qubit(state, target)
    amps = state.amplitudes.copy()
    _hadamard_in_place(amps, state.num_qubits, target)
    return StateVector(state.num_qubits, amps)


def _controlled_pair(state: StateVector, control: int, target: int):
    """A copy of the amplitudes and two views of it: the control-1 half
    with ``target`` at 0 and at 1."""
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise ValueError("control and target must be distinct")
    amps = state.amplitudes.copy()
    high, low = max(control, target), min(control, target)
    # (bits above high, bit high, bits between, bit low, bits below low)
    view = amps.reshape(1 << (state.num_qubits - 1 - high), 2, 1 << (high - low - 1), 2,
                        1 << low)
    if control == high:
        return amps, view[:, 1, :, 0, :], view[:, 1, :, 1, :]
    return amps, view[:, 0, :, 1, :], view[:, 1, :, 1, :]


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    amps, a0, a1 = _controlled_pair(state, control, target)
    a0[...], a1[...] = a1, a0.copy()
    return StateVector(state.num_qubits, amps)


def apply_controlled_ry(state: StateVector, control: int, target: int, theta: float) -> StateVector:
    """Ry on ``target`` applied only where ``control`` is 1 (the
    state-preparation gadget is a controlled-Ry followed by a CNOT)."""
    amps, a0, a1 = _controlled_pair(state, control, target)
    c, s = np.cos(theta), np.sin(theta)
    b0 = a0.copy()
    a0[...] = c * b0 - s * a1
    a1[...] = s * b0 + c * a1
    return StateVector(state.num_qubits, amps)


def apply_controlled_diagonal_phase(state: StateVector, controls, angle: float,
                                    sign_qubit: int | None = None) -> StateVector:
    """Multiply every basis amplitude whose bits match every ``(qubit,
    required_bit)`` of ``controls`` by ``exp(1j * (-1)**b * angle)``, ``b``
    being the ``sign_qubit`` bit (``+1`` if no sign qubit is given)."""
    qubits = [q for q, _ in controls]
    if sign_qubit is not None:
        qubits.append(sign_qubit)
    if len(set(qubits)) != len(qubits):
        raise ValueError("control/sign qubits must be pairwise distinct")
    for q in qubits:
        _check_qubit(state, q)
    for _, bit in controls:
        if bit not in (0, 1):
            raise ValueError(f"control bit must be 0 or 1, got {bit}")

    amps = state.amplitudes.copy()
    idx = np.arange(amps.size, dtype=np.int64)
    sel = np.ones(amps.size, dtype=bool)
    for q, bit in controls:
        sel &= ((idx >> q) & 1) == bit
    if sign_qubit is None:
        amps[sel] *= np.exp(1j * angle)
    else:
        sign = 1.0 - 2.0 * ((idx[sel] >> sign_qubit) & 1)
        amps[sel] *= np.exp(1j * angle * sign)
    return StateVector(state.num_qubits, amps)


def apply_signed_phases(state: StateVector, indices, angles, sign_qubit: int) -> StateVector:
    """One diagonal layer of ancilla-signed phases: basis index
    ``indices[k]`` gains ``exp(+1j * angles[k])`` where ``sign_qubit`` is 0
    and ``indices[k] | 1 << sign_qubit`` gains ``exp(-1j * angles[k])``.

    ``indices`` must have the sign bit clear and no repeats; ``angles``
    broadcasts against it.  Equal to one signed controlled-phase gate per
    index, applied at once.
    """
    _check_qubit(state, sign_qubit)
    idx = np.asarray(indices, dtype=np.int64)
    theta = np.asarray(angles, dtype=np.float64)
    amps = state.amplitudes.copy()
    amps[idx] *= np.exp(1j * theta)
    amps[idx | (1 << sign_qubit)] *= np.exp(1j * -theta)
    return StateVector(state.num_qubits, amps)


def postselect(state: StateVector, target: int, basis: str) -> tuple[StateVector, float]:
    """Measure ``target`` in ``basis``, keep the named outcome and drop the
    qubit: returns the **unnormalized** survivor over the remaining qubits
    together with its squared norm, the outcome probability.

    ``basis`` is one of ``"z0"``, ``"z1"``, ``"x+"``, ``"x-"``; an X-basis
    outcome is read after one Hadamard on ``target``.
    """
    _check_qubit(state, target)
    if basis not in PROJECTION_BASES:
        raise ValueError(f"unknown projection basis {basis!r}")
    if basis in ("x+", "x-"):
        state = apply_hadamard(state, target)
    keep = 0 if basis in ("z0", "x+") else 1
    # a copy, so the survivor never shares memory with the input state
    block = _paired_view(state.amplitudes, state.num_qubits, target)[:, keep, :].copy()
    survivor = StateVector(state.num_qubits - 1, block.reshape(-1))
    return survivor, survivor.norm_squared


def sample_indices(state: StateVector, shots: int, rng_seed) -> np.ndarray:
    """Draw ``shots`` i.i.d. basis indices from ``|a_i|^2 / norm^2``.

    ``rng_seed`` is anything ``np.random.default_rng`` accepts; a
    ``Generator`` is drawn from in place.  Deterministic for a given seed
    (PCG64).
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    if state.norm_squared <= 0.0:
        raise ZeroNormError("cannot sample from a zero-norm state")
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(rng_seed)
    return rng.choice(probs.size, size=shots, p=probs)
