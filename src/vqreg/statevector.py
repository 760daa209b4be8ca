"""Dense complex state-vector simulation with the small gate set the
regression circuits need.

Every phase stage of the model (the regression map, the compact
encoding's phase imprint) is one layer of commuting ancilla-signed phases
on known basis indices, so it is applied as a single diagonal pass by
:func:`apply_signed_phases`.  The single controlled-phase gate stays for
the memory-driven compact route, which the paper spells out gate by gate.

Conventions used everywhere in this package:

* Qubits are **little-endian**: qubit ``q`` owns bit ``q`` of the basis
  index, i.e. basis state ``i`` assigns ``(i >> q) & 1`` to qubit ``q``.
* ``Ry(theta)`` is the real rotation ``[[cos t, -sin t], [sin t, cos t]]``
  in the **full angle** convention (not ``theta/2``), so a controlled
  ``Ry(theta)`` followed by a CNOT maps ``|10>`` to
  ``cos(theta)|10> + sin(theta)|01>``.
* Projections return the *unnormalized* post-measurement state together
  with the outcome probability; renormalization is a separate, explicit
  call.  Subnormalized states (norm <= 1) are therefore first-class.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SQRT_HALF = 1.0 / np.sqrt(2.0)

#: Accepted single-qubit projection bases.
PROJECTION_BASES = ("z0", "z1", "x+", "x-")


class ZeroNormError(ValueError):
    """Raised when sampling from a state with vanishing norm."""


@dataclass(frozen=True)
class StateVector:
    """Immutable dense state over ``num_qubits`` little-endian qubits.

    ``amplitudes`` has length ``2**num_qubits``.  ``norm_squared`` is cached
    at construction; it may be < 1 for post-selected states.
    """

    num_qubits: int
    amplitudes: np.ndarray
    norm_squared: float = field(init=False)

    def __post_init__(self):
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"amplitude vector has length {amps.shape}, expected {1 << self.num_qubits}"
            )
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "norm_squared", float(np.vdot(amps, amps).real))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def renormalized(self) -> "StateVector":
        if self.norm_squared <= 0.0:
            raise ZeroNormError("cannot renormalize a zero state")
        return StateVector(self.num_qubits, self.amplitudes / np.sqrt(self.norm_squared))


@dataclass(frozen=True)
class DiagonalPhaseSpec:
    """Controlled diagonal phase: amplitudes whose bits match every
    ``(qubit, required_bit)`` control gain ``exp(1j * angle * s)`` where
    ``s = (-1)**b`` and ``b`` is the ``sign_qubit`` bit (``s = +1`` if no
    sign qubit is given)."""

    controls: tuple
    angle: float
    sign_qubit: int | None = None


def zero_state(num_qubits: int) -> StateVector:
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def basis_state(num_qubits: int, index: int) -> StateVector:
    if not 0 <= index < (1 << num_qubits):
        raise IndexError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def from_amplitudes(num_qubits: int, amplitudes) -> StateVector:
    return StateVector(num_qubits, np.asarray(amplitudes, dtype=np.complex128))


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.num_qubits:
        raise IndexError(f"qubit {qubit} out of range for {state.num_qubits}-qubit state")


def _paired_view(amps: np.ndarray, num_qubits: int, target: int) -> np.ndarray:
    # (high bits, target bit, low bits) for a little-endian index layout
    return amps.reshape(1 << (num_qubits - 1 - target), 2, 1 << target)


def apply_ry(state: StateVector, target: int, theta: float) -> StateVector:
    """Rotate ``target`` by ``[[cos t, -sin t], [sin t, cos t]]``."""
    _check_qubit(state, target)
    amps = state.amplitudes.copy()
    view = _paired_view(amps, state.num_qubits, target)
    c, s = np.cos(theta), np.sin(theta)
    a0 = view[:, 0, :].copy()
    view[:, 0, :] = c * a0 - s * view[:, 1, :]
    view[:, 1, :] = s * a0 + c * view[:, 1, :]
    return StateVector(state.num_qubits, amps)


def apply_hadamard(state: StateVector, target: int) -> StateVector:
    _check_qubit(state, target)
    amps = state.amplitudes.copy()
    view = _paired_view(amps, state.num_qubits, target)
    a0 = view[:, 0, :].copy()
    view[:, 0, :] = SQRT_HALF * (a0 + view[:, 1, :])
    view[:, 1, :] = SQRT_HALF * (a0 - view[:, 1, :])
    return StateVector(state.num_qubits, amps)


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise ValueError("control and target must be distinct")
    amps = state.amplitudes.copy()
    idx = np.arange(amps.size, dtype=np.int64)
    sel = (((idx >> control) & 1) == 1) & (((idx >> target) & 1) == 0)
    i = idx[sel]
    j = i | (1 << target)
    amps[i], amps[j] = amps[j], amps[i].copy()
    return StateVector(state.num_qubits, amps)


def apply_controlled_ry(state: StateVector, control: int, target: int, theta: float) -> StateVector:
    """Ry on ``target`` applied only where ``control`` is 1 (the
    state-preparation gadget is a controlled-Ry followed by a CNOT)."""
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise ValueError("control and target must be distinct")
    amps = state.amplitudes.copy()
    idx = np.arange(amps.size, dtype=np.int64)
    on = (((idx >> control) & 1) == 1) & (((idx >> target) & 1) == 0)
    i = idx[on]
    j = i | (1 << target)
    c, s = np.cos(theta), np.sin(theta)
    a0 = amps[i]
    a1 = amps[j]
    amps[i] = c * a0 - s * a1
    amps[j] = s * a0 + c * a1
    return StateVector(state.num_qubits, amps)


def apply_controlled_diagonal_phase(state: StateVector, spec: DiagonalPhaseSpec) -> StateVector:
    """Multiply every basis amplitude matching ``spec.controls`` by
    ``exp(1j * (-1)**b * spec.angle)``, ``b`` being the sign-qubit bit."""
    qubits = [q for q, _ in spec.controls]
    if spec.sign_qubit is not None:
        qubits.append(spec.sign_qubit)
    if len(set(qubits)) != len(qubits):
        raise ValueError("control/sign qubits must be pairwise distinct")
    for q in qubits:
        _check_qubit(state, q)
    for _, bit in spec.controls:
        if bit not in (0, 1):
            raise ValueError(f"control bit must be 0 or 1, got {bit}")

    amps = state.amplitudes.copy()
    idx = np.arange(amps.size, dtype=np.int64)
    sel = np.ones(amps.size, dtype=bool)
    for q, bit in spec.controls:
        sel &= ((idx >> q) & 1) == bit
    if spec.sign_qubit is None:
        amps[sel] *= np.exp(1j * spec.angle)
    else:
        sign = 1.0 - 2.0 * ((idx[sel] >> spec.sign_qubit) & 1)
        amps[sel] *= np.exp(1j * spec.angle * sign)
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


def project_qubit(state: StateVector, target: int, basis: str) -> tuple[StateVector, float]:
    """Project ``target`` onto one basis state and return the
    **unnormalized** survivor together with its squared norm.

    ``basis`` is one of ``"z0"``, ``"z1"``, ``"x+"``, ``"x-"``; the X-basis
    projectors are realized as Hadamard-conjugated Z projectors.
    """
    _check_qubit(state, target)
    if basis not in PROJECTION_BASES:
        raise ValueError(f"unknown projection basis {basis!r}")
    work = state
    if basis in ("x+", "x-"):
        work = apply_hadamard(work, target)
    keep = 0 if basis in ("z0", "x+") else 1
    amps = work.amplitudes.copy()
    view = _paired_view(amps, state.num_qubits, target)
    view[:, 1 - keep, :] = 0.0
    projected = StateVector(state.num_qubits, amps)
    if basis in ("x+", "x-"):
        projected = apply_hadamard(projected, target)
    return projected, projected.norm_squared


def extract_projected_qubit(state: StateVector, target: int, basis: str) -> StateVector:
    """Drop a qubit that has just been projected onto ``basis``.

    The input must be (proportional to) a product ``|b>_target (x) |phi>``;
    the returned state is ``|phi>`` with the same norm as the input.
    """
    _check_qubit(state, target)
    if basis not in PROJECTION_BASES:
        raise ValueError(f"unknown projection basis {basis!r}")
    work = state
    if basis in ("x+", "x-"):
        work = apply_hadamard(work, target)
    keep = 0 if basis in ("z0", "x+") else 1
    view = _paired_view(work.amplitudes, state.num_qubits, target)
    block = view[:, keep, :].reshape(-1)
    return StateVector(state.num_qubits - 1, block.copy())


def sample_indices(state: StateVector, shots: int, rng_seed: int) -> np.ndarray:
    """Draw ``shots`` i.i.d. basis indices from ``|a_i|^2 / norm^2``.

    Deterministic for a given seed (NumPy ``default_rng`` / PCG64).
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    if state.norm_squared <= 0.0:
        raise ZeroNormError("cannot sample from a zero-norm state")
    probs = state.probabilities()
    probs = probs / probs.sum()
    rng = np.random.default_rng(rng_seed)
    return rng.choice(probs.size, size=shots, p=probs)


def sample_bitstrings(state: StateVector, shots: int, rng_seed: int) -> list[str]:
    """As :func:`sample_indices`, formatted so that character ``q`` of each
    string is the value of qubit ``q``."""
    idx = sample_indices(state, shots, rng_seed)
    n = state.num_qubits
    return [format(i, f"0{n}b")[::-1] for i in idx]


def index_bits(indices: np.ndarray, qubits) -> np.ndarray:
    """Bit values of ``qubits`` for each sampled index, shape (shots, len(qubits))."""
    q = np.asarray(list(qubits), dtype=np.int64)
    return ((np.asarray(indices, dtype=np.int64)[:, None] >> q[None, :]) & 1).astype(np.int64)
