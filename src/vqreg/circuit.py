"""The variational regression map and its closed-form evaluation.

The map multiplies every column ``m`` of the encoded table by
``cos(phi_m)``: an ancilla prepared in ``|+>`` picks up ``exp(+i phi_m)``
on its ``|0>`` branch and ``exp(-i phi_m)`` on its ``|1>`` branch for the
basis states of column ``m`` (the symmetric controlled-phase convention;
the one-sided ``exp(-i phi)`` variant differs only by a phase that the
final Hadamard-and-project step cancels).  The per-column phases commute
and act only on the layout's cell indices, so they are simulated as one
diagonal pass over those indices rather than gate by gate.  Projecting
the ancilla back onto ``|0>`` leaves the unnormalized state with
amplitudes ``x_lm cos(phi_m)``, whose cost-operator expectation is the
scaled MSE ``sum_l (sum_m x_lm cos(phi_m))^2``.

Trained weights are recovered as ``W_m = -cos(phi_m) / cos(phi_0)``; the
response phase is conventionally pinned to ``phi_0 = pi`` so the search
can run over unconstrained cosine variables.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import StandardizedTable
from .encoders import PreparedState
from .statevector import StateVector, apply_hadamard, apply_signed_phases, postselect

DEGENERATE_COS_TOL = 1e-9


class DegeneratePhaseError(ValueError):
    """cos(phi_0) is (numerically) zero: weights are undefined."""


@dataclass(frozen=True)
class PhaseVector:
    """Variational angles ``(phi_0, ..., phi_M)``; ``phi_0`` belongs to the
    response column."""

    phis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phis", np.asarray(self.phis, dtype=np.float64))
        if self.phis.ndim != 1 or self.phis.size < 2:
            raise ValueError("need phases for the response and at least one feature")

    @property
    def num_features(self) -> int:
        return self.phis.size - 1

    def cosines(self) -> np.ndarray:
        return np.cos(self.phis)


def phases_to_weights(phases: PhaseVector) -> np.ndarray:
    """``W_m = -cos(phi_m) / cos(phi_0)``; rejects degenerate ``phi_0``."""
    return cosines_to_weights(phases.cosines())


def cosines_to_weights(cosines: np.ndarray) -> np.ndarray:
    c = np.asarray(cosines, dtype=np.float64)
    if abs(c[0]) <= DEGENERATE_COS_TOL:
        raise DegeneratePhaseError("cos(phi_0) ~ 0; trained model is invalid")
    return -c[1:] / c[0]


def phases_from_cosines(cosines: np.ndarray) -> PhaseVector:
    """Angles realizing the given cosine variables on the circuit; values
    are clamped to [-1, 1] (the search may wander outside)."""
    c = np.clip(np.asarray(cosines, dtype=np.float64), -1.0, 1.0)
    return PhaseVector(np.arccos(c))


def regression_map_state(prep: PreparedState, phases: PhaseVector) -> StateVector:
    """The pre-projection state: ancilla ``|+>`` attached above the data
    register, the signed phase ``exp(+-i phi_m)`` on every cell of column
    ``m`` (one diagonal layer, either layout), Hadamard on the ancilla."""
    layout = prep.layout
    if phases.num_features != layout.num_features:
        raise ValueError(
            f"phase vector has {phases.num_features} features, layout {layout.num_features}"
        )
    anc = layout.ancilla
    state = apply_signed_phases(prep.ancilla_plus, layout.code_basis_indices, phases.phis, anc)
    return apply_hadamard(state, anc)


def apply_regression_map(prep: PreparedState, phases: PhaseVector) -> tuple[StateVector, float]:
    """Run the map and post-select the ancilla on ``|0>``.

    Returns the **unnormalized** post-selected state over the data qubits
    (amplitudes ``x_lm cos(phi_m)`` for a unit-norm input) and the
    ancilla-0 probability ``sum x_lm^2 cos^2(phi_m)`` relative to the
    input norm.
    """
    return postselect(regression_map_state(prep, phases), prep.layout.ancilla, "z0")


def analytic_gradient(std: StandardizedTable, phases: PhaseVector) -> np.ndarray:
    """d(cost)/d(phi_m) = -2 sin(phi_m) * (X^T X cos(phi))_m.

    Chain rule applied to :meth:`StandardizedTable.cost`; central finite
    differences are the arbiter for the overall sign convention.
    """
    residual = std.values @ phases.cosines()
    return -2.0 * np.sin(phases.phis) * (std.values.T @ residual)
