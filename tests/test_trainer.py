import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqreg import trainer
from vqreg.data import (
    BootstrapPlan,
    RawTable,
    SyntheticSpec,
    ZeroVarianceColumnError,
    bootstrap_batch,
    generate_linear_synthetic,
    standardize,
)
from vqreg.trainer import (
    ConvergenceFailure,
    NelderMeadError,
    RegularizationParams,
    TrainConfig,
    fit,
    fit_ensemble,
    nelder_mead,
    sin_ansatz_weights,
)


def least_squares_weights(values):
    centered = values - values.mean(axis=0)
    w, *_ = np.linalg.lstsq(centered[:, 1:], centered[:, 0], rcond=None)
    return w


def test_nelder_mead_convex_quadratic():
    res = nelder_mead(lambda x: float(np.sum(x**2)), np.ones(3), 1e-16, 1e-16, 4000)
    assert np.max(np.abs(res.point)) < 1e-8


def test_nelder_mead_shifted_quadratic():
    res = nelder_mead(lambda x: (x[0] - 2) ** 2 + 10 * (x[1] + 3) ** 2,
                      np.zeros(2), 1e-16, 1e-16, 4000)
    np.testing.assert_allclose(res.point, [2.0, -3.0], atol=1e-6)


def test_nelder_mead_rosenbrock_with_restarts():
    def rosen(x):
        return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2

    point = np.array([-1.2, 1.0])
    for scale in (0.5, 0.25, 0.125):
        res = nelder_mead(rosen, point, 1e-16, 1e-16, 4000, initial_scale=scale)
        point = res.point
    np.testing.assert_allclose(point, [1.0, 1.0], atol=1e-4)


def test_nelder_mead_propagates_nan():
    def bad(x):
        return np.nan if x[0] > 1.2 else float(np.sum(x**2))

    with pytest.raises(NelderMeadError) as err:
        nelder_mead(bad, np.array([1.0, 0.0]), 1e-12, 1e-12, 100)
    assert err.value.point is not None


def test_fit_recovers_least_squares():
    master = generate_linear_synthetic(
        SyntheticSpec(300, np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), 0.0, 3)
    )
    std = standardize(master)
    result = fit(std)
    raw_weights = std.raw_weights(result.weights.weights)
    oracle = least_squares_weights(master.values)
    np.testing.assert_allclose(raw_weights, oracle, atol=1e-3)
    assert result.cost < 1e-10
    assert result.r_squared > 1.0 - 1e-8
    assert result.converged


def test_fit_matches_ridge_oracle_and_shrinks():
    rng = np.random.default_rng(4)
    raw = RawTable(rng.uniform(-1, 1, (60, 4)))
    std = standardize(raw)
    y = std.values[:, 0]
    X = std.values[:, 1:]
    norms = []
    for beta in (0.0, 1e-3, 1e-2, 1e-1, 1.0):
        # closed-form ridge oracle in the standardized geometry
        oracle = np.linalg.solve(X.T @ X + beta * np.eye(3), X.T @ y)
        res = fit(std, RegularizationParams(beta_l2=beta),
                  TrainConfig(max_restarts=5, nm_tolerance_f=1e-16,
                              max_iterations_per_restart=3000))
        np.testing.assert_allclose(res.weights.weights, oracle, atol=2e-5)
        norms.append(np.abs(res.weights.weights).sum())
    assert all(norms[i + 1] <= norms[i] + 1e-9 for i in range(len(norms) - 1))


def test_l1_penalty_monotone():
    rng = np.random.default_rng(5)
    raw = RawTable(rng.uniform(-1, 1, (40, 4)))
    std = standardize(raw)
    totals = []
    for alpha in (0.0, 1e-4, 1e-3, 1e-2, 1e-1):
        res = fit(std, RegularizationParams(alpha_l1=alpha),
                  TrainConfig(max_restarts=5, nm_tolerance_f=1e-16,
                              max_iterations_per_restart=3000))
        totals.append(np.abs(res.weights.weights).sum())
    assert all(totals[i + 1] <= totals[i] + 1e-6 for i in range(len(totals) - 1))


def lasso_coordinate_descent(X, y, alpha, sweeps=20000):
    """Minimize ``||y - X w||^2 + alpha * ||w||_1`` one coordinate at a time:
    each update soft-thresholds ``x_j . r_j`` at ``alpha / 2``."""
    w = np.zeros(X.shape[1])
    col_sq = (X**2).sum(axis=0)
    for _ in range(sweeps):
        previous = w.copy()
        for j in range(w.size):
            rho = X[:, j] @ (y - X @ w + X[:, j] * w[j])
            w[j] = np.sign(rho) * max(abs(rho) - alpha / 2.0, 0.0) / col_sq[j]
        if np.max(np.abs(w - previous)) <= 1e-15:
            break
    return w


def test_fit_matches_lasso_coordinate_descent():
    rng = np.random.default_rng(12)
    zeroed = 0
    for _ in range(4):
        std = standardize(RawTable(rng.uniform(-1, 1, (40, 4))))
        y, X = std.values[:, 0], std.values[:, 1:]
        for alpha in (1e-4, 1e-3, 1e-2, 5e-2):
            oracle = lasso_coordinate_descent(X, y, alpha)
            # the oracle itself satisfies the Lasso optimality conditions
            grad = 2.0 * X.T @ (y - X @ oracle)
            on = oracle != 0.0
            np.testing.assert_allclose(grad[on], alpha * np.sign(oracle[on]), atol=1e-12)
            assert np.all(np.abs(grad[~on]) <= alpha + 1e-12)
            zeroed += int(np.sum(~on))
            res = fit(std, RegularizationParams(alpha_l1=alpha),
                      TrainConfig(max_restarts=5, nm_tolerance_f=1e-16,
                                  max_iterations_per_restart=3000))
            np.testing.assert_allclose(res.weights.weights, oracle, rtol=0, atol=1e-6)
    assert zeroed > 0  # some cases sit on the L1 kink at zero


@pytest.mark.parametrize("penalties", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0),
                                       (0.0, -1e-3)])
def test_penalties_must_be_finite_and_non_negative(penalties):
    with pytest.raises(ValueError):
        RegularizationParams(*penalties)


def test_backend_equivalence_fixed_budget():
    # perfect-fit problem: both backends follow the same trajectory
    master = generate_linear_synthetic(SyntheticSpec(16, np.array([0.5, -0.3]), 0.0, 5))
    std = standardize(master)
    results = []
    for backend in ("analytic", "circuit"):
        cfg = TrainConfig(cost_backend=backend, max_restarts=4, nm_tolerance_f=0.0,
                          nm_tolerance_x=0.0, max_iterations_per_restart=300)
        results.append(fit(std, config=cfg))
    np.testing.assert_allclose(
        results[0].weights.weights, results[1].weights.weights, atol=1e-9
    )
    assert abs(results[0].cost - results[1].cost) < 1e-12


def test_fit_determinism_at_json_level():
    master = generate_linear_synthetic(SyntheticSpec(64, np.array([1.0, -2.0]), 0.1, 6))
    std = standardize(master)
    dumps = []
    for _ in range(2):
        res = fit(std, RegularizationParams(1e-6, 1e-6), TrainConfig(seed=3))
        dumps.append(json.dumps({
            "w": res.weights.weights.tolist(),
            "cost": res.cost,
            "phases": res.phases.phis.tolist(),
        }))
    assert dumps[0] == dumps[1]


@pytest.mark.parametrize("estimator", ["compact", "one-hot"])
def test_fit_shots_backend_smoke(estimator):
    # the one-hot register needs one qubit per table cell: keep it small
    master = generate_linear_synthetic(SyntheticSpec(4, np.array([0.8]), 0.0, 7))
    std = standardize(master)
    cfg = TrainConfig(cost_backend="shots", estimator=estimator, shots=12000, seed=1,
                      max_restarts=2, max_iterations_per_restart=80)
    res = fit(std, config=cfg)
    oracle = least_squares_weights(master.values)
    raw = std.raw_weights(res.weights.weights)
    # a sampled objective leaves a sqrt(noise) plateau around the minimum
    assert abs(raw[0] - oracle[0]) < 0.3


def test_shots_fit_reports_the_cost_without_readout_attenuation():
    # a 60x3 table with R^2 about 0.66; readout error at 0.05 on the 9
    # measured qubits attenuates the estimates by 0.95**9 = 0.63, which would
    # read as R^2 0.78 if the report kept it
    rng = np.random.default_rng(5)
    x = rng.standard_normal((60, 3))
    y = x @ np.array([1.0, -0.5, 0.8]) + 0.8 * rng.standard_normal(60)
    std = standardize(RawTable(np.column_stack([y, x])))
    w0, *_ = np.linalg.lstsq(std.values[:, 1:], std.values[:, 0], rcond=None)
    cfg = TrainConfig(cost_backend="shots", shots=1 << 18, readout_delta=0.05, seed=2,
                      max_restarts=1, max_iterations_per_restart=1, initial_weights=w0)
    res = fit(std, config=cfg)
    exact = std.cost(np.concatenate(([-1.0], res.weights.weights)))
    assert abs(res.cost / exact - 1.0) < 0.05
    assert abs(res.r_squared - (1.0 - exact / std.c0)) < 0.02


def test_fit_initial_weights_validation():
    std = standardize(generate_linear_synthetic(SyntheticSpec(20, np.array([1.0]), 0.0, 8)))
    with pytest.raises(ValueError):
        fit(std, config=TrainConfig(initial_weights=np.zeros(3)))


def test_ensemble_serial_parallel_identical():
    master = generate_linear_synthetic(SyntheticSpec(128, np.array([1.0, 2.0]), 0.0, 9))
    plan = BootstrapPlan(num_batches=12, batch_size=24, rng_seed=4)
    cfg = TrainConfig(max_restarts=2, nm_tolerance_f=1e-14, max_iterations_per_restart=800)
    serial = fit_ensemble(master, plan, config=cfg)
    parallel = fit_ensemble(master, plan, config=cfg, jobs=2)
    np.testing.assert_array_equal(serial.per_batch_weights, parallel.per_batch_weights)
    np.testing.assert_array_equal(serial.mean_weights, parallel.mean_weights)


def test_ensemble_mean_tracks_truth():
    truth = np.array([1.0, 2.0, 3.0])
    master = generate_linear_synthetic(SyntheticSpec(256, truth, 0.0, 10))
    plan = BootstrapPlan(num_batches=64, batch_size=40, rng_seed=5)
    cfg = TrainConfig(max_restarts=3, nm_tolerance_f=1e-15, max_iterations_per_restart=1200)
    result = fit_ensemble(master, plan, config=cfg)
    assert np.all(np.abs(result.mean_weights - truth) <= 3 * result.std_errors)
    assert np.all(result.t_stats > 10)


def test_ensemble_single_batch_has_no_standard_errors():
    master = generate_linear_synthetic(SyntheticSpec(64, np.array([1.0, -1.0]), 0.0, 11))
    plan = BootstrapPlan(num_batches=1, batch_size=64, rng_seed=6)
    result = fit_ensemble(master, plan, config=TrainConfig(max_restarts=2))
    assert result.per_batch_weights.shape == (1, 2)
    assert np.all(np.isnan(result.std_errors))
    assert np.all(np.isnan(result.t_stats))


def test_ensemble_records_failed_batches():
    # two-row table: any batch that resamples a single row twice has
    # constant columns and must be excluded, not silently dropped
    raw = RawTable(np.array([[0.0, 1.0], [1.0, 0.0]]))
    plan = BootstrapPlan(num_batches=16, batch_size=2, rng_seed=7)
    result = fit_ensemble(raw, plan, config=TrainConfig(max_restarts=1,
                                                        max_iterations_per_restart=200))
    assert 0 < result.failed_batches < 16
    assert result.per_batch_weights.shape[0] == 16 - result.failed_batches
    assert all("ZeroVarianceColumnError" in msg for _, msg in result.failures)


def test_sin_ansatz_sign_pattern():
    w = sin_ansatz_weights(15)
    assert list(w[0::2]) == [1, -1, 1, -1, 1, -1, 1, -1]
    assert np.all(w[1::2] == 0)


def reference_fit(std, reg, config):
    """The warm-restart policy written out as one scalar loop, apart from
    the trainer's shared driver: restart Nelder-Mead from the best point at
    half the simplex scale until two consecutive restart optima agree."""
    backend = trainer._make_backend(std, config)
    objective = trainer._objective(backend, reg, std.num_features)
    x0 = trainer._initial_point(config, std.num_features)
    max_iter = config.max_iterations_per_restart or 400 * x0.size
    scale = config.initial_simplex_scale
    stop = (config.nm_tolerance_f, config.nm_tolerance_x, max_iter)
    result = nelder_mead(objective, x0, *stop, scale)
    total_evals, restarts, converged = result.evaluations, 1, False
    while restarts < config.max_restarts:
        scale *= 0.5
        nxt = nelder_mead(objective, result.point, *stop, scale)
        total_evals += nxt.evaluations
        restarts += 1
        improvement = result.value - nxt.value
        if nxt.value <= result.value:
            result = nxt
        if abs(improvement) < config.nm_tolerance_f:
            converged = True
            break
    return trainer._fit_result(std, config, backend, result.point, restarts, converged,
                               total_evals)


def scalar_outcomes(raw, plan, reg, config):
    """What the reference loop gives on each batch: ``{b: FitResult}`` and
    ``{b: failure message}``.  ``fit`` must give the same bit for bit, or
    raise the same :class:`NelderMeadError`."""
    fits, failures = {}, {}
    for b in range(plan.num_batches):
        seed = int(np.random.SeedSequence([config.seed, b]).generate_state(1)[0])
        batch_config = replace(config, seed=seed)
        try:
            std = standardize(bootstrap_batch(raw, plan, b))
        except ZeroVarianceColumnError as exc:
            failures[b] = f"{type(exc).__name__}: {exc}"
            continue
        try:
            fits[b] = reference_fit(std, reg, batch_config)
        except NelderMeadError as exc:
            failures[b] = f"{type(exc).__name__}: {exc}"
            with pytest.raises(NelderMeadError) as err:
                fit(std, reg, batch_config)
            np.testing.assert_array_equal(err.value.point, exc.point)  # the same first NaN
            continue
        assert_same_fit(fit(std, reg, batch_config), fits[b])
    return fits, failures


def assert_same_fit(got, want):
    np.testing.assert_array_equal(got.weights.weights, want.weights.weights)
    np.testing.assert_array_equal(got.phases.phis, want.phases.phis)
    assert (got.cost, got.r_squared) == (want.cost, want.r_squared)
    assert (got.evaluations, got.restarts_used) == (want.evaluations, want.restarts_used)
    assert (got.converged, got.failure_reason) == (want.converged, want.failure_reason)


def assert_ensemble_matches_scalar(raw, plan, reg, config, jobs=None):
    fits, failures = scalar_outcomes(raw, plan, reg, config)
    if not fits:
        with pytest.raises(ConvergenceFailure):
            fit_ensemble(raw, plan, reg, config, jobs=jobs)
        return
    result = fit_ensemble(raw, plan, reg, config, jobs=jobs)
    assert dict(result.failures) == failures
    assert [b for b, _ in result.fits] == sorted(fits)
    for b, got in result.fits:
        assert_same_fit(got, fits[b])
    assert result.unconverged == tuple(b for b in sorted(fits) if not fits[b].converged)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    features=st.integers(1, 6),
    rows=st.integers(2, 30),
    batch_size=st.integers(2, 24),
    batches=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    penalty=st.sampled_from([(0.0, 0.0), (1e-3, 0.0), (0.0, 1e-2), (1e-4, 1e-3)]),
    max_restarts=st.integers(1, 6),
    cap=st.sampled_from([None, 3, 40]),
    start=st.booleans(),
)
def test_lockstep_ensemble_equals_scalar_fit_bit_for_bit(features, rows, batch_size, batches,
                                                         seed, penalty, max_restarts, cap,
                                                         start):
    rng = np.random.default_rng(seed)
    # few source rows make batches with a constant column likely
    raw = RawTable(rng.uniform(-1.0, 1.0, (rows, features + 1)))
    config = TrainConfig(
        max_restarts=max_restarts, max_iterations_per_restart=cap,
        initial_weights=rng.uniform(-1.0, 1.0, features) if start else None)
    assert_ensemble_matches_scalar(raw, BootstrapPlan(batches, batch_size, seed),
                                   RegularizationParams(*penalty), config)


def test_lockstep_ensemble_covers_failing_batches_and_binding_caps():
    raw = RawTable(np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.2]]))
    plan = BootstrapPlan(num_batches=24, batch_size=3, rng_seed=2)
    config = TrainConfig(max_restarts=4, max_iterations_per_restart=6)
    fits, failures = scalar_outcomes(raw, plan, RegularizationParams(), config)
    assert fits and failures  # both kinds occur
    assert_ensemble_matches_scalar(raw, plan, RegularizationParams(), config)
    assert_ensemble_matches_scalar(raw, plan, RegularizationParams(), config, jobs=3)


def test_lockstep_results_do_not_depend_on_batch_order_or_count():
    master = generate_linear_synthetic(SyntheticSpec(200, np.array([1.0, -2.0, 0.5]), 0.1, 3))
    config = TrainConfig(max_restarts=4)
    reg = RegularizationParams(1e-4, 0.0)
    full = dict(fit_ensemble(master, BootstrapPlan(10, 20, 8), reg, config).fits)
    part = dict(fit_ensemble(master, BootstrapPlan(4, 20, 8), reg, config).fits)
    order = [7, 2, 9, 0, 5]
    shuffled = trainer._train_batches((master, BootstrapPlan(10, 20, 8), order, reg, config))
    assert [b for b, _, _ in shuffled] == order
    for b, result, _ in shuffled:
        assert_same_fit(result, full[b])
    for b, result in part.items():
        assert_same_fit(result, full[b])


def test_lockstep_nan_fails_only_its_row_with_the_scalar_outcome():
    centres = np.array([[0.2, -0.1], [2.0, 0.0], [0.0, 0.3], [1.5, 1.0]])
    limits = np.array([1.2, 1.2, 9.0, 0.9])

    def problem(p):
        def objective(x):
            if x[0] > limits[p]:
                return np.nan
            return float(np.sum((x - centres[p]) ** 2))
        return objective

    def batched(problems, points):
        return np.array([problem(p)(x) for p, x in zip(problems, points)])

    x0 = np.zeros((4, 2))
    points, values, evaluations, failed = trainer._lockstep_nelder_mead(
        batched, np.arange(4), x0, 1e-14, 1e-14, 500, 0.5)
    outcomes = []
    for p in range(4):
        try:
            res = nelder_mead(problem(p), x0[p], 1e-14, 1e-14, 500, 0.5)
        except NelderMeadError:
            outcomes.append("nan")
            assert failed[p] and np.isnan(values[p])
            continue
        outcomes.append("ok")
        assert not failed[p]
        np.testing.assert_array_equal(points[p], res.point)
        assert (values[p], evaluations[p]) == (res.value, res.evaluations)
    assert "nan" in outcomes and "ok" in outcomes


def test_ensemble_reports_the_scalar_nan_failure(monkeypatch):
    make_backend = trainer._make_backend

    def backend_with_a_hole(std, config):
        cost = make_backend(std, replace(config, cost_backend="analytic"))
        hole = std.values[0, 1] > 0.0  # about half the batches
        return lambda c: np.nan if hole and c[1] > 0.3 else cost(c)

    monkeypatch.setattr(trainer, "_make_backend", backend_with_a_hole)
    master = generate_linear_synthetic(SyntheticSpec(64, np.array([1.0, 0.5]), 0.1, 4))
    plan = BootstrapPlan(8, 16, 5)
    config = TrainConfig(cost_backend="nan-holes", max_restarts=3)
    fits, failures = scalar_outcomes(master, plan, RegularizationParams(), config)
    assert fits and set(failures.values()) == {"NelderMeadError: objective returned NaN"}
    assert_ensemble_matches_scalar(master, plan, RegularizationParams(), config)


@pytest.mark.parametrize("backend", ["analytic", "circuit", "shots"])
def test_fit_equals_the_reference_restart_loop(backend):
    std = standardize(generate_linear_synthetic(SyntheticSpec(12, np.array([0.7, -0.2]), 0.1, 14)))
    config = TrainConfig(cost_backend=backend, shots=256, seed=5, max_restarts=4,
                         max_iterations_per_restart=60)
    reg = RegularizationParams(1e-3, 1e-3)
    assert_same_fit(fit(std, reg, config), reference_fit(std, reg, config))


def test_circuit_backend_ensemble_equals_per_batch_fit():
    master = generate_linear_synthetic(SyntheticSpec(32, np.array([0.6, -0.4]), 0.05, 12))
    plan = BootstrapPlan(3, 8, 6)
    config = TrainConfig(cost_backend="circuit", max_restarts=2,
                         max_iterations_per_restart=60)
    assert_ensemble_matches_scalar(master, plan, RegularizationParams(), config)


def test_ensemble_reports_every_batch_when_restarts_cannot_agree():
    master = generate_linear_synthetic(SyntheticSpec(64, np.array([1.0, 2.0]), 0.1, 13))
    result = fit_ensemble(master, BootstrapPlan(6, 20, 2), config=TrainConfig(max_restarts=1))
    assert result.unconverged == tuple(range(6))
    assert all(r.failure_reason == trainer.RESTARTS_DISAGREE for _, r in result.fits)
    converged = fit_ensemble(master, BootstrapPlan(6, 20, 2))
    assert converged.unconverged == ()
