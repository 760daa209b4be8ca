import json

import numpy as np
import pytest

from vqreg.circuit import PhaseVector
from vqreg.data import (
    BootstrapPlan,
    RawTable,
    SyntheticSpec,
    TableFormatError,
    ZeroVarianceColumnError,
    bootstrap_batch,
    build_power_features,
    digitize,
    generate_linear_synthetic,
    load_csv,
    save_csv,
    save_results_json,
    standardize,
)
from tests.test_encoders import table_from_values
from tests.test_trainer import assert_lasso_optimal, lasso_coordinate_descent


def least_squares_weights(values):
    # classical normal-equations oracle on centered columns, no intercept
    centered = values - values.mean(axis=0)
    w, *_ = np.linalg.lstsq(centered[:, 1:], centered[:, 0], rcond=None)
    return w


def test_standardize_basic_contracts():
    rng = np.random.default_rng(0)
    raw = RawTable(rng.uniform(-1, 1, (20, 7)))
    std = standardize(raw)
    np.testing.assert_allclose(std.values.sum(axis=0), 0.0, atol=1e-10)
    assert abs((std.values**2).sum() - 1.0) < 1e-10
    # equal per-column energy 1/(M+1)
    np.testing.assert_allclose((std.values**2).sum(axis=0), 1.0 / 7.0, atol=1e-10)
    assert abs(std.c0 - 1.0 / 7.0) < 1e-12


@pytest.mark.parametrize("m_feats", [1, 6])
def test_c0_matches_null_model_cost(m_feats):
    # oracle: evaluate the cost directly at W = 0 (phi = (pi, pi/2, ...))
    rng = np.random.default_rng(m_feats)
    std = standardize(RawTable(rng.uniform(-1, 1, (24, m_feats + 1))))
    phases = PhaseVector(np.array([np.pi] + [np.pi / 2] * m_feats))
    assert abs(std.c0 - 1.0 / (1.0 + m_feats)) < 1e-12
    assert abs(std.cost(phases.cosines()) - std.c0) < 1e-12


def test_standardize_zero_variance_rejected_with_index():
    vals = np.random.default_rng(1).uniform(-1, 1, (10, 4))
    vals[:, 2] = 3.25
    with pytest.raises(ZeroVarianceColumnError) as err:
        standardize(RawTable(vals))
    assert err.value.column == 2


def test_standardize_idempotent_on_own_output():
    rng = np.random.default_rng(2)
    std = standardize(RawTable(rng.uniform(-1, 1, (12, 4))))
    again = standardize(RawTable(std.values), equalize_columns=True)
    np.testing.assert_allclose(again.values, std.values, atol=1e-10)
    unequalized = standardize(RawTable(rng.uniform(-1, 1, (12, 4))), equalize_columns=False)
    again = standardize(RawTable(unequalized.values), equalize_columns=False)
    np.testing.assert_allclose(again.values, unequalized.values, atol=1e-10)


def digitize_column(xs, n_bits):
    """Bits and decoded values of ``xs``, digitized as a one-column table."""
    dig = digitize(table_from_values(np.reshape(xs, (-1, 1))), n_bits)
    return dig.bits, dig.x_tilde


def test_digitize_examples():
    bits, val = digitize_column([0.5], 1)
    assert bits.tolist() == [[0]] and val.tolist() == [0.5]
    bits, val = digitize_column([0.0], 2)
    assert val.tolist() == [0.25]  # +1/2 - 1/4; bound holds with equality

    # oracle: exhaustive search over all 4-bit signed expansions
    target = -0.8125
    weights = 2.0 ** -np.arange(1, 5)
    best = min(
        (abs(sum(w * (1 - 2 * ((code >> j) & 1)) for j, w in enumerate(weights)) - target), code)
        for code in range(16)
    )
    bits, val = digitize_column([target], 4)
    achieved = abs(val[0] - target)
    assert achieved <= best[0] + 1e-15


def test_digitize_error_bound_grid_and_random():
    for n_bits in (1, 2, 4, 8):
        xs = np.arange(-1.0, 1.0, 1e-3)
        vals = digitize_column(xs, n_bits)[1]
        assert np.max(np.abs(vals - xs)) <= 2.0**-n_bits + 1e-12
    rng = np.random.default_rng(3)
    std = standardize(RawTable(rng.uniform(-1, 1, (500, 3))))
    for n_bits in (3, 6, 10):
        dig = digitize(std, n_bits)
        assert np.max(np.abs(dig.x_tilde - std.values.reshape(-1))) <= 2.0**-n_bits + 1e-12
        # decoded values match the recorded bits
        recon = ((1.0 - 2.0 * dig.bits) * 2.0 ** -np.arange(1, n_bits + 1)).sum(axis=1)
        np.testing.assert_allclose(recon, dig.x_tilde)


def test_digitize_random_million_bound():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, 10**6)
    n_bits = 7
    bits = np.zeros((x.size, n_bits), dtype=np.int64)
    r = x.copy()
    for j in range(n_bits):
        w = 2.0 ** -(j + 1)
        bits[:, j] = r < 0
        r -= w * (1 - 2 * bits[:, j])
    assert np.max(np.abs(r)) <= 2.0**-n_bits + 1e-15


def test_synthetic_noise_free_recovery():
    spec = SyntheticSpec(200, np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), 0.0, 42)
    table = generate_linear_synthetic(spec)
    w = least_squares_weights(table.values)
    np.testing.assert_allclose(w, spec.true_weights, atol=1e-10)


def test_synthetic_single_feature_identity():
    table = generate_linear_synthetic(SyntheticSpec(50, np.array([1.0]), 0.0, 1))
    np.testing.assert_allclose(table.values[:, 0], table.values[:, 1])


def test_synthetic_noisy_within_sampling_error():
    # 100 seeds; LS estimates scatter around the true weights
    truth = np.array([1.0, 2.0])
    estimates = []
    for seed in range(100):
        table = generate_linear_synthetic(SyntheticSpec(120, truth, 0.1, seed))
        estimates.append(least_squares_weights(table.values))
    estimates = np.array(estimates)
    se = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
    assert np.all(np.abs(estimates.mean(axis=0) - truth) < 3 * se + 1e-3)


def test_synthetic_determinism():
    a = generate_linear_synthetic(SyntheticSpec(30, np.array([2.0, -1.0]), 0.05, 9))
    b = generate_linear_synthetic(SyntheticSpec(30, np.array([2.0, -1.0]), 0.05, 9))
    np.testing.assert_array_equal(a.values, b.values)


@pytest.mark.parametrize("weights, noise", [
    ([1.0, np.nan], 0.0),
    ([np.inf], 0.0),
    ([1.0], np.nan),
    ([1.0], np.inf),
    ([1.0], -0.1),
])
def test_synthetic_spec_rejects_non_finite_or_negative_values(weights, noise):
    with pytest.raises(ValueError):
        SyntheticSpec(8, np.array(weights), noise, 0)


def test_power_features():
    np.testing.assert_allclose(build_power_features([0.5], 3)[0], [0.5, 0.25, 0.125])
    np.testing.assert_allclose(build_power_features([-1.0], 4)[0], [-1, 1, -1, 1])


def test_power_features_lasso_oracle_prefers_odd():
    # classical Lasso oracle: odd powers dominate when fitting sin(x).  The
    # intercept is fitted by centering; alpha = 2 n * 1e-5 is scikit-learn's
    # Lasso(alpha=1e-5), whose squared error carries a 1/(2n) factor
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, 64)
    feats = build_power_features(x, 15)
    X = feats - feats.mean(axis=0)
    y = np.sin(x) - np.sin(x).mean()
    alpha = 2 * x.size * 1e-5
    coef = lasso_coordinate_descent(X, y, alpha)
    assert_lasso_optimal(X, y, coef, alpha)
    odd = np.abs(coef[0::2]).sum()
    even = np.abs(coef[1::2]).sum()
    assert odd > 10 * even


def drawn_rows(plan, num_rows):
    """Row indices of every batch, read back through ``bootstrap_batch`` from
    a table whose response is the row index."""
    index_table = RawTable(np.column_stack([np.arange(num_rows), np.zeros(num_rows)]))
    return np.array([bootstrap_batch(index_table, plan, b).values[:, 0]
                     for b in range(plan.num_batches)]).astype(int)


def test_bootstrap_containment_and_determinism():
    rng = np.random.default_rng(6)
    raw = RawTable(rng.uniform(-1, 1, (40, 3)))
    plan = BootstrapPlan(num_batches=1, batch_size=40, rng_seed=3)
    batch = bootstrap_batch(raw, plan, 0)
    source_rows = {tuple(r) for r in raw.values}
    assert all(tuple(r) in source_rows for r in batch.values)
    again = bootstrap_batch(raw, plan, 0)
    np.testing.assert_array_equal(batch.values, again.values)
    with pytest.raises(IndexError):
        bootstrap_batch(raw, plan, 1)


def test_bootstrap_distinct_fraction():
    # oracle: expected distinct fraction 1 - (1 - 1/L)^batch_size
    L, batch_size, n_batches = 64, 32, 1000
    idx = drawn_rows(BootstrapPlan(n_batches, batch_size, 17), L)
    distinct = np.array([len(set(row)) for row in idx]) / L
    p_hit = 1 - (1 - 1 / L) ** batch_size
    se = distinct.std(ddof=1) / np.sqrt(n_batches)
    assert abs(distinct.mean() - p_hit) < 3 * se + 1e-3


def test_bootstrap_exchangeability_under_permutation():
    rng = np.random.default_rng(7)
    raw = RawTable(rng.uniform(-1, 1, (25, 3)))
    perm = rng.permutation(25)
    permuted = RawTable(raw.values[perm])
    plan = BootstrapPlan(5, 11, rng_seed=23)
    idx = drawn_rows(plan, 25)
    for b in range(5):
        np.testing.assert_array_equal(bootstrap_batch(permuted, plan, b).values,
                                      raw.values[perm[idx[b]]])


def test_csv_round_trip_and_errors(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y,x1\n1,2\n3,4\n")
    table = load_csv(path)
    assert table.num_rows == 2 and table.num_features == 1
    np.testing.assert_allclose(table.values, [[1, 2], [3, 4]])

    bad = tmp_path / "bad.csv"
    bad.write_text("y,x1\n1,abc\n3,4\n")
    with pytest.raises(TableFormatError, match="line 2"):
        load_csv(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("y,x1\n1,2\n3,4,5\n")
    with pytest.raises(TableFormatError, match="line 3"):
        load_csv(ragged)

    rng = np.random.default_rng(8)
    original = RawTable(rng.uniform(-1, 1, (10, 4)))
    out = tmp_path / "round.csv"
    save_csv(out, original)
    np.testing.assert_array_equal(load_csv(out).values, original.values)


def test_json_round_trip_full_precision(tmp_path):
    payload = {
        "weights": np.array([1 / 3, np.pi, 5.1e-17]),
        "cost": 0.1 + 0.2,
        "config_echo": {"seed": 7},
        "t_stats": None,
    }
    path = tmp_path / "r.json"
    save_results_json(path, payload)
    loaded = json.loads(path.read_text())
    assert loaded["weights"] == [1 / 3, np.pi, 5.1e-17]
    assert loaded["cost"] == 0.1 + 0.2
    # deterministic bytes
    path2 = tmp_path / "r2.json"
    save_results_json(path2, payload)
    assert path.read_bytes() == path2.read_bytes()
