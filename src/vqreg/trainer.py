"""Model training: Nelder-Mead over the standardized weights with warm
restarts, elastic-net penalties, bootstrap-ensemble training with standard
errors and t-statistics, and the nonlinear sin(x) regression demo.

The cost depends on the phases only through their cosines ``c_m =
cos(phi_m)``, and the response cosine is pinned at ``c_0 = -1``.  The
readout ``W_m = -c_m / c_0`` is then ``c_m`` itself, so the optimizer
point *is* the standardized weight vector: the backends see
``(-1, W_1, ..., W_M)`` and the penalties act on ``W`` directly.  Circuit
and shot backends clamp the cosines into [-1, 1] before synthesizing
angles.
"""
from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field, replace

import numpy as np

from .circuit import (
    PhaseVector,
    WeightVector,
    apply_regression_map,
    phases_from_cosines,
    regression_map_state,
)
from .data import (
    BootstrapPlan,
    RawTable,
    StandardizedTable,
    ZeroVarianceColumnError,
    bootstrap_batch,
    build_power_features,
    power_feature_table,
    standardize,
)
from .encoders import ONE_HOT, prepare_exact
from .measurement import (
    exact_expectation,
    model_metrics,
    shot_estimate_compact,
    shot_estimate_one_hot,
)

BACKEND_ANALYTIC = "analytic"
BACKEND_CIRCUIT = "circuit"
BACKEND_SHOTS = "shots"


class ConvergenceFailure(RuntimeError):
    """Training produced no usable model."""


class NelderMeadError(RuntimeError):
    """Objective returned NaN; the offending point is attached."""

    def __init__(self, message: str, point: np.ndarray):
        super().__init__(message)
        self.point = point


@dataclass(frozen=True)
class NelderMeadResult:
    point: np.ndarray
    value: float
    iterations: int
    evaluations: int
    converged: bool


def nelder_mead(
    objective,
    initial_point,
    f_tol: float = 1e-12,
    x_tol: float = 1e-12,
    max_iterations: int = 2000,
    initial_scale: float = 0.5,
) -> NelderMeadResult:
    """Downhill-simplex minimization with the standard coefficients
    (reflection 1, expansion 2, contraction 0.5, shrink 0.5).

    Terminates when the simplex function spread drops below ``f_tol``, the
    coordinate spread drops below ``x_tol``, or ``max_iterations`` is hit.
    Fully deterministic: the initial simplex is ``x0 + scale * e_i``.
    """
    x0 = np.asarray(initial_point, dtype=np.float64)
    dim = x0.size
    simplex = np.tile(x0, (dim + 1, 1))
    for i in range(dim):
        simplex[i + 1, i] += initial_scale

    evaluations = 0

    def call(x):
        nonlocal evaluations
        evaluations += 1
        v = float(objective(x))
        if np.isnan(v):
            raise NelderMeadError("objective returned NaN", np.array(x))
        return v

    values = np.array([call(x) for x in simplex])
    iterations = 0
    converged = False
    while iterations < max_iterations:
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]
        if values[-1] - values[0] <= f_tol:
            converged = True
            break
        if np.max(np.abs(simplex[1:] - simplex[0])) <= x_tol:
            converged = True
            break
        iterations += 1

        centroid = simplex[:-1].mean(axis=0)
        reflected = centroid + (centroid - simplex[-1])
        f_reflected = call(reflected)
        if f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            f_expanded = call(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid - 0.5 * (centroid - simplex[-1])
            f_contracted = call(contracted)
            if f_contracted < min(f_reflected, values[-1]):
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                for i in range(1, dim + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = call(simplex[i])

    best = int(np.argmin(values))
    return NelderMeadResult(simplex[best].copy(), float(values[best]),
                            iterations, evaluations, converged)


@dataclass(frozen=True)
class RegularizationParams:
    """Elastic-net penalties on the standardized weights (not the phases):
    ``alpha_l1 * sum|W| + beta_l2 * sum W^2``."""

    alpha_l1: float = 0.0
    beta_l2: float = 0.0

    def __post_init__(self):
        if self.alpha_l1 < 0.0 or self.beta_l2 < 0.0:
            raise ValueError("penalty strengths must be non-negative")


@dataclass(frozen=True)
class TrainConfig:
    cost_backend: str = BACKEND_ANALYTIC
    shots: int = 4096
    readout_delta: float = 0.0
    estimator: str = "compact"
    max_restarts: int = 6
    nm_tolerance_f: float = 1e-13
    nm_tolerance_x: float = 1e-13
    max_iterations_per_restart: int | None = None
    initial_weights: np.ndarray | None = None
    initial_simplex_scale: float = 0.5
    seed: int = 0


@dataclass(frozen=True)
class FitResult:
    weights: WeightVector
    phases: PhaseVector
    cost: float
    r_squared: float
    restarts_used: int
    converged: bool
    evaluations: int


@dataclass(frozen=True)
class EnsembleResult:
    """Bootstrap-ensemble summary; weights are reported in the raw column
    units of each batch (recovered through the batch's standardization
    scales) so they are directly comparable to generating truths."""

    mean_weights: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    per_batch_weights: np.ndarray
    batch_size: int
    num_batches: int
    failures: tuple = field(default_factory=tuple)

    @property
    def failed_batches(self) -> int:
        return len(self.failures)


def _make_backend(std: StandardizedTable, config: TrainConfig):
    """Cost-of-cosines callable for the configured backend."""
    if config.cost_backend == BACKEND_ANALYTIC:
        return std.cost
    if config.cost_backend == BACKEND_CIRCUIT:
        prep = prepare_exact(std)

        def cost(c):
            psi0, _ = apply_regression_map(prep, phases_from_cosines(c))
            return exact_expectation(psi0, prep.layout)

        return cost
    if config.cost_backend == BACKEND_SHOTS:
        if config.estimator == "one-hot":
            prep = prepare_exact(std, ONE_HOT)
            estimator = shot_estimate_one_hot
        else:
            prep = prepare_exact(std)
            estimator = shot_estimate_compact
        counter = [0]

        def cost(c):
            state = regression_map_state(prep, phases_from_cosines(c))
            seed = np.random.SeedSequence([config.seed, counter[0]])
            counter[0] += 1
            est = estimator(state, prep.layout, config.shots, config.readout_delta, seed)
            return est.value

        return cost
    raise ValueError(f"unknown cost backend {config.cost_backend!r}")


def fit(std: StandardizedTable, reg: RegularizationParams | None = None,
        config: TrainConfig | None = None) -> FitResult:
    """Minimize backend cost plus elastic-net penalty over the standardized
    weights, with warm restarts that halve the simplex scale until two
    consecutive restart optima agree to ``nm_tolerance_f``."""
    reg = reg or RegularizationParams()
    config = config or TrainConfig()
    m_feats = std.num_features
    backend = _make_backend(std, config)

    buffer = np.empty(m_feats + 1)
    buffer[0] = -1.0

    def assemble(x):
        buffer[1:] = x
        return buffer

    use_penalty = reg.alpha_l1 > 0.0 or reg.beta_l2 > 0.0

    def objective(x):
        value = backend(assemble(x))
        if use_penalty:
            value += reg.alpha_l1 * np.sum(np.abs(x)) + reg.beta_l2 * np.sum(x**2)
        return value

    if config.initial_weights is not None:
        x0 = np.asarray(config.initial_weights, dtype=np.float64)
        if x0.size != m_feats:
            raise ValueError("initial_weights length must equal the feature count")
    else:
        x0 = np.zeros(m_feats)

    max_iter = config.max_iterations_per_restart or 400 * m_feats
    scale = config.initial_simplex_scale
    total_evals = 0
    result = nelder_mead(objective, x0, config.nm_tolerance_f, config.nm_tolerance_x,
                         max_iter, scale)
    total_evals += result.evaluations
    restarts = 1
    converged = False
    while restarts < config.max_restarts:
        scale *= 0.5
        nxt = nelder_mead(objective, result.point, config.nm_tolerance_f,
                          config.nm_tolerance_x, max_iter, scale)
        total_evals += nxt.evaluations
        restarts += 1
        improvement = result.value - nxt.value
        if nxt.value <= result.value:
            result = nxt
        if abs(improvement) < config.nm_tolerance_f:
            converged = True
            break

    cosines = assemble(result.point)
    phases = phases_from_cosines(cosines)
    cost_value = backend(cosines)
    metrics = model_metrics(cost_value, std, phases)
    return FitResult(
        weights=WeightVector(result.point),
        phases=phases,
        cost=cost_value,
        r_squared=metrics.r_squared,
        restarts_used=restarts,
        converged=converged,
        evaluations=total_evals,
    )


def fit_raw_table(raw: RawTable, reg: RegularizationParams | None = None,
                  config: TrainConfig | None = None,
                  equalize_columns: bool = True) -> tuple[FitResult, np.ndarray]:
    """Standardize, fit, and also return weights in raw column units."""
    std = standardize(raw, equalize_columns)
    result = fit(std, reg, config)
    return result, std.raw_weights(result.weights.weights)


def _ensemble_worker(args):
    """Fit batch ``batch_index``; returns ``(raw_weights, None)`` or
    ``(None, failure message)``."""
    (raw, plan, batch_index, reg, config) = args
    batch = bootstrap_batch(raw, plan, batch_index)
    batch_seed = int(np.random.SeedSequence([config.seed, batch_index]).generate_state(1)[0])
    batch_config = replace(config, seed=batch_seed)
    try:
        _, raw_weights = fit_raw_table(batch, reg, batch_config)
    except (ZeroVarianceColumnError, NelderMeadError) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return raw_weights, None


def fit_ensemble(
    raw: RawTable,
    plan: BootstrapPlan,
    reg: RegularizationParams | None = None,
    config: TrainConfig | None = None,
    jobs: int | None = None,
) -> EnsembleResult:
    """Standardize-and-fit every bootstrap batch independently and pool
    the recovered raw-space weights.

    The reported standard error is the across-batch standard deviation of
    the weights (the batch-to-batch spread, not divided by sqrt(N_b));
    ``t = mean / SE``.  Per-batch seeds derive from (master seed, batch
    index), so serial and parallel runs agree exactly and the aggregate
    is invariant under batch-order permutations.
    """
    reg = reg or RegularizationParams()
    config = config or TrainConfig()
    args = [(raw, plan, b, reg, config) for b in range(plan.num_batches)]
    if jobs and jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, plan.num_batches // (jobs * 8))
            results = list(pool.map(_ensemble_worker, args, chunksize=chunk))
    else:
        results = map(_ensemble_worker, args)
    good, failures = [], []
    for b, (w, err) in enumerate(results):
        if w is None:
            failures.append((b, err))
        else:
            good.append(w)

    if not good:
        b, err = failures[0]
        raise ConvergenceFailure(
            f"every bootstrap batch failed to train; the first, batch {b}, failed with {err}")
    good = np.array(good)
    mean = good.mean(axis=0)
    if good.shape[0] > 1:
        std_err = good.std(axis=0, ddof=1)
    else:
        std_err = np.full(raw.num_features, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(std_err > 0.0, mean / std_err, np.nan)
    return EnsembleResult(
        mean_weights=mean,
        std_errors=std_err,
        t_stats=t_stats,
        per_batch_weights=good,
        batch_size=plan.batch_size,
        num_batches=plan.num_batches,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class SinDemoResult:
    fit: FitResult
    raw_weights: np.ndarray
    grid_x: np.ndarray
    predictions: np.ndarray
    truth: np.ndarray


def sin_ansatz_weights(max_power: int) -> np.ndarray:
    """Alternating-sign initial guess on the odd powers: +1 on x, -1 on
    x^3, +1 on x^5, ...; even powers start at zero."""
    w = np.zeros(max_power)
    for p in range(1, max_power + 1, 2):
        w[p - 1] = 1.0 if ((p - 1) // 2) % 2 == 0 else -1.0
    return w


def fit_nonlinear_sin_demo(
    alpha_l1: float = 1.2e-7,
    num_records: int = 32,
    max_power: int = 15,
    seed: int = 11,
    grid_points: int = 201,
    config: TrainConfig | None = None,
) -> SinDemoResult:
    """Nonlinear regression via preprocessed power features: y = sin(x) on
    uniform x in [-1, 1], 15 power columns, L1 penalty, and the
    alternating-sign ansatz on the odd powers."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=num_records)
    table = power_feature_table(x, np.sin(x), max_power)
    std = standardize(table, equalize_columns=True)

    raw_init = sin_ansatz_weights(max_power)
    std_init = raw_init * std.column_scales[0] / std.column_scales[1:]
    if config is None:
        config = TrainConfig(
            max_restarts=24,
            nm_tolerance_f=1e-14,
            nm_tolerance_x=1e-14,
            max_iterations_per_restart=20000,
            initial_weights=std_init,
            initial_simplex_scale=0.25,
        )
    elif config.initial_weights is None:
        config = replace(config, initial_weights=std_init)

    result = fit(std, RegularizationParams(alpha_l1=alpha_l1), config)
    raw_weights = std.raw_weights(result.weights.weights)
    grid = np.linspace(-1.0, 1.0, grid_points)
    response_mean = float(table.values[:, 0].mean())
    feature_means = table.values[:, 1:].mean(axis=0)
    powers = build_power_features(grid, max_power)
    predictions = response_mean + (powers - feature_means) @ raw_weights
    return SinDemoResult(
        fit=result,
        raw_weights=raw_weights,
        grid_x=grid,
        predictions=predictions,
        truth=np.sin(grid),
    )
