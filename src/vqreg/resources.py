"""Closed-form qubit, gate, and shot-cost accounting for both encodings.

Gate counts instantiate the asymptotic complexity expressions with unit
constants, using exact formulas where available.  Gate models:

* ``local-digital``: one/two-qubit digital gates only.  For the compact
  encoder this is the quantum-memory-driven preparation,
  ``L*M*N_P*2^{N_K}`` (and the ``K*N_P`` memory qubits are counted).
* ``global-analog``: nonlocal entangling (Molmer-Sorensen-style) gates.
  Compact preparation is the memory-free ``L^2 M^2`` route; the one-hot
  regression map collapses to one gate per column.
* ``compiled-optimized``: compact preparation after compilation, ``L*M``.

The shot cost is the product ``total_gates * qubit_count``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import COMPACT_BINARY, ONE_HOT, make_layout

LOCAL_DIGITAL = "local-digital"
GLOBAL_ANALOG = "global-analog"
COMPILED_OPTIMIZED = "compiled-optimized"
GATE_MODELS = (LOCAL_DIGITAL, GLOBAL_ANALOG, COMPILED_OPTIMIZED)


@dataclass(frozen=True)
class ResourceEstimate:
    scheme: str
    gate_model: str
    num_rows: int
    num_features: int
    n_bits: int
    qubit_count: int
    memory_qubits: int
    state_prep_gates: int
    regression_map_gates: int
    total_gates: int
    shot_cost: int


def estimate(num_rows: int, num_features: int, n_bits: int, scheme: str,
             gate_model: str) -> ResourceEstimate:
    if num_rows < 1 or num_features < 1 or n_bits < 1:
        raise ValueError("dimensions must be positive")
    if gate_model not in GATE_MODELS:
        raise ValueError(f"unknown gate model {gate_model!r}")
    L, M = num_rows, num_features
    if scheme == ONE_HOT:
        layout = make_layout(ONE_HOT, L, M)
        prep = layout.num_cells  # one gadget per encoded cell
        mapping = layout.num_cells if gate_model == LOCAL_DIGITAL else M + 1
    elif scheme == COMPACT_BINARY:
        layout = make_layout(COMPACT_BINARY, L, M,
                             n_bits if gate_model == LOCAL_DIGITAL else 0)
        if gate_model == LOCAL_DIGITAL:
            prep = L * M * n_bits * (1 << layout.n_k)
        elif gate_model == GLOBAL_ANALOG:
            prep = L * L * M * M
        else:
            prep = L * M
        mapping = (1 << layout.n_m) * (M + 1)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    # data register, ancilla, and (local-digital compact only) the memory
    qubits = layout.ancilla + 1 + layout.memory_qubit_count
    total = prep + mapping
    return ResourceEstimate(
        scheme=scheme,
        gate_model=gate_model,
        num_rows=L,
        num_features=M,
        n_bits=n_bits,
        qubit_count=qubits,
        memory_qubits=layout.memory_qubit_count,
        state_prep_gates=prep,
        regression_map_gates=mapping,
        total_gates=total,
        shot_cost=total * qubits,
    )


def shot_cost_ratio(num_rows: int, num_features: int, n_bits: int,
                    gate_model: str = GLOBAL_ANALOG) -> float:
    """Compact-over-one-hot shot-cost ratio at matched gate model; grows
    like ``log2(L*M)`` for tall tables."""
    compact = estimate(num_rows, num_features, n_bits, COMPACT_BINARY, gate_model)
    one_hot = estimate(num_rows, num_features, n_bits, ONE_HOT, gate_model)
    return compact.shot_cost / one_hot.shot_cost


def sweep_shot_cost_ratio(row_counts, num_features: int, n_bits: int = 8,
                          gate_model: str = GLOBAL_ANALOG) -> list[dict]:
    rows = []
    for L in row_counts:
        rows.append(
            {
                "rows": int(L),
                "features": int(num_features),
                "log2_lm": float(np.log2(L * num_features)),
                "ratio": shot_cost_ratio(int(L), num_features, n_bits, gate_model),
            }
        )
    return rows
