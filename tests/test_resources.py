import numpy as np
import pytest

from vqreg.encoders import COMPACT_BINARY, ONE_HOT
from vqreg.resources import (
    COMPILED_OPTIMIZED,
    GATE_MODELS,
    GLOBAL_ANALOG,
    LOCAL_DIGITAL,
    estimate,
    shot_cost_ratio,
    sweep_shot_cost_ratio,
)


def test_qubit_count_examples():
    assert estimate(4, 3, 8, ONE_HOT, GLOBAL_ANALOG).qubit_count == 17
    assert estimate(4, 3, 8, COMPACT_BINARY, GLOBAL_ANALOG).qubit_count == 5
    # the memory-driven digital route also counts the K*N_P memory qubits
    with_mem = estimate(4, 3, 8, COMPACT_BINARY, LOCAL_DIGITAL)
    assert with_mem.memory_qubits == 4 * 4 * 8
    assert with_mem.qubit_count == 5 + 128


def test_shot_cost_is_gate_qubit_product():
    for scheme in (ONE_HOT, COMPACT_BINARY):
        for model in GATE_MODELS:
            est = estimate(8, 3, 6, scheme, model)
            assert est.shot_cost == est.total_gates * est.qubit_count
            assert est.total_gates == est.state_prep_gates + est.regression_map_gates
            assert est.total_gates > 0


def test_counts_monotone_in_dimensions():
    for scheme in (ONE_HOT, COMPACT_BINARY):
        for model in GATE_MODELS:
            base = estimate(16, 4, 6, scheme, model)
            assert estimate(32, 4, 6, scheme, model).total_gates >= base.total_gates
            assert estimate(16, 8, 6, scheme, model).total_gates >= base.total_gates
            assert estimate(16, 4, 12, scheme, model).total_gates >= base.total_gates


def test_global_analog_never_worse_than_local_digital():
    rng = np.random.default_rng(0)
    for _ in range(20):
        L = int(rng.integers(2, 1 << 10))
        M = int(rng.integers(1, 32))
        bits = int(rng.integers(1, 12))
        for scheme in (ONE_HOT, COMPACT_BINARY):
            analog = estimate(L, M, bits, scheme, GLOBAL_ANALOG)
            digital = estimate(L, M, bits, scheme, LOCAL_DIGITAL)
            assert analog.total_gates <= digital.total_gates


def test_compiled_route_is_linear_in_table_size():
    est = estimate(64, 6, 8, COMPACT_BINARY, COMPILED_OPTIMIZED)
    assert est.state_prep_gates == 64 * 6


def test_shot_cost_ratio_grows_logarithmically():
    rows = [2**k for k in range(4, 11)]
    sweep = sweep_shot_cost_ratio(rows, 6)
    x = np.array([r["log2_lm"] for r in sweep])
    y = np.array([r["ratio"] for r in sweep])
    coef = np.polyfit(x, y, 1)
    residual = np.abs(np.polyval(coef, x) - y) / np.abs(y)
    assert coef[0] > 0
    assert residual.max() < 0.15
    assert shot_cost_ratio(1024, 6, 8) > shot_cost_ratio(16, 6, 8)


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate(0, 3, 8, ONE_HOT, GLOBAL_ANALOG)
    with pytest.raises(ValueError):
        estimate(4, 3, 8, ONE_HOT, "pulse-level")
    with pytest.raises(ValueError):
        estimate(4, 3, 8, "ternary", GLOBAL_ANALOG)
