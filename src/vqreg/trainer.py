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

One warm-restart driver, :func:`_restarts`, decides when a fit is done
and whether it converged, and drives one of two Nelder-Mead engines on the
penalized :func:`_objective`.  :func:`fit` runs the scalar
:func:`nelder_mead` on one table.  :func:`fit_ensemble` runs the lockstep
engine on all bootstrap batches at once: their simplices advance together
as ``(B, M+1, M)`` arrays, the analytic cost is one stacked product, and
every batch's weights, evaluation count, restarts and convergence flag are
bit for bit those of :func:`fit` on that batch.  ``jobs > 1`` splits the
batches into ``jobs`` contiguous chunks, one lockstep run per process; the
results do not depend on the split.
"""
from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field, replace
from functools import partial

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
    child_seed,
    power_feature_table,
    standardize,
)
from .encoders import COMPACT_BINARY, ONE_HOT, make_layout, prepare_exact
from .measurement import (
    exact_expectation,
    measured_qubit_count,
    r_squared,
    readout_attenuation,
    shot_estimate_compact,
    shot_estimate_one_hot,
)

BACKEND_ANALYTIC = "analytic"
BACKEND_CIRCUIT = "circuit"
BACKEND_SHOTS = "shots"


class ConvergenceFailure(RuntimeError):
    """Training produced no usable model."""


NAN_OBJECTIVE = "objective returned NaN"


class NelderMeadError(RuntimeError):
    """Objective returned NaN; the offending point is attached."""

    def __init__(self, message: str, point: np.ndarray):
        super().__init__(message)
        self.point = point


@dataclass(frozen=True)
class NelderMeadResult:
    point: np.ndarray
    value: float
    evaluations: int


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
            raise NelderMeadError(NAN_OBJECTIVE, np.array(x))
        return v

    values = np.array([call(x) for x in simplex])
    iterations = 0
    while iterations < max_iterations:
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]
        if values[-1] - values[0] <= f_tol:
            break
        if np.max(np.abs(simplex[1:] - simplex[0])) <= x_tol:
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
    return NelderMeadResult(simplex[best].copy(), float(values[best]), evaluations)


def _lockstep_nelder_mead(objective, ids, x0, f_tol, x_tol, max_iterations, initial_scale):
    """:func:`nelder_mead` on every row of ``x0`` at once, bit for bit.

    Row ``i`` minimizes problem ``ids[i]``, with ``ids`` increasing.
    ``objective(problems, points)`` returns the value at each ``(problem,
    point)`` pair; it is asked only for the points scalar Nelder-Mead would
    evaluate, each problem's in scalar order, and ``problems`` is increasing.
    The simplices advance together as ``(rows, dim+1, dim)`` arrays: per-row
    masks choose reflect, expand, contract or shrink, and a row retires when
    its own stop test fires.  Returns ``(points, values, evaluations,
    failed)``; a row whose objective returned NaN is failed, with NaN point
    and value.
    """
    n, dim = x0.shape
    points = np.full((n, dim), np.nan)
    values = np.full(n, np.nan)
    evaluations = np.zeros(n, dtype=np.int64)
    failed = np.zeros(n, dtype=bool)
    live = np.arange(n)
    bad = np.zeros(n, dtype=bool)

    def evaluate(rows, pts):
        """Values at ``pts[i]`` for live row ``rows[i]``; a NaN marks the
        row bad."""
        v = objective(ids[live[rows]], pts)
        evaluations[live[rows]] += 1
        nan = np.isnan(v)
        if nan.any():
            bad[rows[nan]] = True
        return v

    def drop(gone, finished):
        """Retire the rows of mask ``gone``: report the best vertex of
        ``finished`` rows, fail the others."""
        nonlocal live, s, f
        rows = np.flatnonzero(gone)
        if finished:
            best = np.argmin(f[rows], axis=1)
            points[live[rows]] = s[rows, best]
            values[live[rows]] = f[rows, best]
        else:
            failed[live[rows]] = True
        live, s, f = live[~gone], s[~gone], f[~gone]

    s = np.repeat(x0[:, None, :], dim + 1, axis=1)
    diag = np.arange(dim)
    s[:, diag + 1, diag] += initial_scale
    f = np.stack([evaluate(live, s[:, j]) for j in range(dim + 1)], axis=1)
    if bad.any():
        drop(bad, False)
    iterations = 0
    while live.size and iterations < max_iterations:
        every = np.arange(live.size)
        order = np.argsort(f, axis=1, kind="stable")
        f = f[every[:, None], order]
        s = s[every[:, None], order]
        stop = ((f[:, -1] - f[:, 0] <= f_tol)
                | (np.max(np.abs(s[:, 1:] - s[:, :1]), axis=(1, 2)) <= x_tol))
        if stop.any():
            drop(stop, True)
            if not live.size:
                break
            every = np.arange(live.size)
        iterations += 1
        bad = np.zeros(live.size, dtype=bool)

        centroid = s[:, :-1].sum(axis=1) / dim
        worst = s[:, -1]
        new_x = centroid + (centroid - worst)
        f_reflected = evaluate(every, new_x)
        new_f = f_reflected.copy()

        expand = np.flatnonzero(f_reflected < f[:, 0])
        if expand.size:
            expanded = centroid[expand] + 2.0 * (centroid[expand] - worst[expand])
            f_expanded = evaluate(expand, expanded)
            better = f_expanded < f_reflected[expand]
            new_x[expand[better]] = expanded[better]
            new_f[expand[better]] = f_expanded[better]

        contract = np.flatnonzero(~(f_reflected < f[:, -2]) & ~bad)
        step = every
        if contract.size:
            c, r, w = centroid[contract], new_x[contract], worst[contract]
            outside = (f_reflected[contract] < f[contract, -1])[:, None]
            contracted = np.where(outside, c + 0.5 * (r - c), c - 0.5 * (c - w))
            f_contracted = evaluate(contract, contracted)
            accepted = f_contracted < np.minimum(f_reflected[contract], f[contract, -1])
            new_x[contract[accepted]] = contracted[accepted]
            new_f[contract[accepted]] = f_contracted[accepted]
            shrink = contract[~accepted & ~bad[contract]]
            if shrink.size:
                step = np.setdiff1d(every, shrink, assume_unique=True)
                best = s[shrink, :1]
                s[shrink, 1:] = best + 0.5 * (s[shrink, 1:] - best)
                for j in range(1, dim + 1):
                    f[shrink, j] = evaluate(shrink, s[shrink, j])
        s[step, -1] = new_x[step]
        f[step, -1] = new_f[step]
        if bad.any():
            drop(bad, False)

    drop(np.ones(live.size, dtype=bool), True)
    return points, values, evaluations, failed


@dataclass(frozen=True)
class RegularizationParams:
    """Elastic-net penalties on the standardized weights (not the phases):
    ``alpha_l1 * sum|W| + beta_l2 * sum W^2``."""

    alpha_l1: float = 0.0
    beta_l2: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.alpha_l1 < np.inf and 0.0 <= self.beta_l2 < np.inf):
            raise ValueError("penalty strengths must be finite and non-negative")


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


#: why a fit is not converged (``FitResult.failure_reason``)
RESTARTS_DISAGREE = "the restart optima did not agree within the restart budget"
NO_SHOT_ACCEPTED = "the shots estimate at the returned point accepted no shot"


@dataclass(frozen=True)
class FitResult:
    weights: WeightVector
    phases: PhaseVector
    cost: float
    r_squared: float
    restarts_used: int
    converged: bool
    evaluations: int
    failure_reason: str | None = None


@dataclass(frozen=True)
class EnsembleResult:
    """Bootstrap-ensemble summary; weights are reported in the raw column
    units of each batch (recovered through the batch's standardization
    scales) so they are directly comparable to generating truths.
    ``fits`` holds ``(batch index, FitResult)`` for every trained batch and
    ``failures`` ``(batch index, message)`` for every other one."""

    mean_weights: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    per_batch_weights: np.ndarray
    batch_size: int
    num_batches: int
    failures: tuple = field(default_factory=tuple)
    fits: tuple = field(default_factory=tuple)

    @property
    def failed_batches(self) -> int:
        return len(self.failures)

    @property
    def unconverged(self) -> tuple:
        """Indices of the pooled batches whose fits did not converge."""
        return tuple(b for b, result in self.fits if not result.converged)


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


def _penalty(reg: RegularizationParams, x: np.ndarray):
    """Elastic-net penalty of ``x``, or of each row of a 2-D ``x``."""
    return reg.alpha_l1 * np.sum(np.abs(x), axis=-1) + reg.beta_l2 * np.sum(x**2, axis=-1)


def _objective(backend, reg: RegularizationParams, num_features: int):
    """Backend cost at the cosines ``(-1, x)``, assembled in one reused
    buffer, plus the elastic-net penalty of the weights ``x``."""
    buffer = np.empty(num_features + 1)
    buffer[0] = -1.0
    use_penalty = reg.alpha_l1 > 0.0 or reg.beta_l2 > 0.0

    def objective(x):
        buffer[1:] = x
        value = backend(buffer)
        if use_penalty:
            value += _penalty(reg, x)
        return value

    return objective


def _initial_point(config: TrainConfig, m_feats: int) -> np.ndarray:
    if config.initial_weights is None:
        return np.zeros(m_feats)
    x0 = np.asarray(config.initial_weights, dtype=np.float64)
    if x0.size != m_feats:
        raise ValueError("initial_weights length must equal the feature count")
    return x0


def _fit_result(std: StandardizedTable, config: TrainConfig, backend, point: np.ndarray,
                restarts_used: int, converged: bool, evaluations: int) -> FitResult:
    """Phases, backend cost and R^2 at the trained ``point``.

    A shots estimate under readout error is attenuated by
    :func:`readout_attenuation`; the reported cost and R^2 divide it out.
    A shot estimate is exactly zero when it accepts no shot, which on noisy
    data says nothing about the cost; a shots fit whose estimate at the
    returned point is zero is therefore not converged.
    """
    cosines = np.concatenate(([-1.0], point))
    phases = phases_from_cosines(cosines)
    cost_value = backend(cosines)
    reason = None if converged else RESTARTS_DISAGREE
    if config.cost_backend == BACKEND_SHOTS:
        scheme = ONE_HOT if config.estimator == "one-hot" else COMPACT_BINARY
        layout = make_layout(scheme, std.num_rows, std.num_features)
        cost_value /= readout_attenuation(config.readout_delta, measured_qubit_count(layout))
        if cost_value == 0.0:
            reason = NO_SHOT_ACCEPTED
    return FitResult(
        weights=WeightVector(point),
        phases=phases,
        cost=cost_value,
        r_squared=r_squared(cost_value, std, phases),
        restarts_used=restarts_used,
        converged=reason is None,
        evaluations=evaluations,
        failure_reason=reason,
    )


def _restarts(solve, count: int, x0: np.ndarray, config: TrainConfig):
    """Warm restarts of ``count`` problems from ``x0``, each at half the
    last simplex scale, until two consecutive optima agree to
    ``nm_tolerance_f``.  ``solve`` is :func:`_lockstep_nelder_mead` without
    its objective.  Returns ``(points, restarts_used, converged,
    evaluations, failed)``."""
    f_tol, x_tol = config.nm_tolerance_f, config.nm_tolerance_x
    max_iter = config.max_iterations_per_restart or 400 * x0.size
    scale = config.initial_simplex_scale
    live = np.arange(count)
    points, values, evaluations, failed = map(np.asarray, solve(
        live, np.tile(x0, (count, 1)), f_tol, x_tol, max_iter, scale))
    restarts = np.ones(count, dtype=np.int64)
    converged = np.zeros(count, dtype=bool)
    live = live[~failed]
    for _ in range(1, config.max_restarts):
        if not live.size:
            break
        scale *= 0.5
        nxt, nxt_values, evals, nxt_failed = map(np.asarray, solve(
            live, points[live], f_tol, x_tol, max_iter, scale))
        evaluations[live] += evals
        restarts[live] += 1
        failed[live] = nxt_failed
        improvement = values[live] - nxt_values
        better = nxt_values <= values[live]
        points[live[better]] = nxt[better]
        values[live[better]] = nxt_values[better]
        agreed = np.abs(improvement) < f_tol
        converged[live[agreed]] = True
        live = live[~(agreed | nxt_failed)]
    return points, restarts, converged, evaluations, failed


def fit(std: StandardizedTable, reg: RegularizationParams | None = None,
        config: TrainConfig | None = None) -> FitResult:
    """Minimize backend cost plus elastic-net penalty over the standardized
    weights by the scalar :func:`nelder_mead` under :func:`_restarts`."""
    reg = reg or RegularizationParams()
    config = config or TrainConfig()
    backend = _make_backend(std, config)
    objective = _objective(backend, reg, std.num_features)

    def solve(ids, x0, *options):
        result = nelder_mead(objective, x0[0], *options)
        return result.point[None], [result.value], [result.evaluations], [False]

    points, restarts, converged, evaluations, _ = _restarts(
        solve, 1, _initial_point(config, std.num_features), config)
    return _fit_result(std, config, backend, points[0], int(restarts[0]), bool(converged[0]),
                       int(evaluations[0]))


def _ensemble_objective(stacked: np.ndarray, backends: list, reg: RegularizationParams,
                        config: TrainConfig):
    """``objective(problems, points)``: the penalized cost of batch
    ``problems[i]`` at ``points[i]`` for increasing ``problems``.  On the
    analytic backend it is one stacked product over the ``(B, L, M+1)``
    batch tables that makes, point by point, the gemv and dot of
    :meth:`StandardizedTable.cost`; any other backend calls each batch's
    own :func:`_objective`, in the order given."""
    if config.cost_backend != BACKEND_ANALYTIC:
        objectives = [_objective(backend, reg, stacked.shape[2] - 1) for backend in backends]
        return lambda problems, points: np.array(
            [objectives[p](x) for p, x in zip(problems, points)], dtype=np.float64)

    use_penalty = reg.alpha_l1 > 0.0 or reg.beta_l2 > 0.0

    def objective(problems, points):
        cosines = np.empty((len(points), points.shape[1] + 1))
        cosines[:, 0] = -1.0
        cosines[:, 1:] = points
        tables = stacked if len(problems) == len(stacked) else stacked[problems]
        r = np.matmul(tables, cosines[:, :, None])
        values = np.matmul(r.transpose(0, 2, 1), r)[:, 0, 0]
        if use_penalty:
            values += _penalty(reg, points)
        return values

    return objective


def batch_fit_result(std: StandardizedTable, config: TrainConfig, backend, point: np.ndarray,
                     restarts_used: int, converged: bool, evaluations: int) -> FitResult:
    """The :class:`FitResult` of one ensemble batch trained in lockstep,
    built exactly as :func:`fit` builds its own.  It is public and called
    once per trained batch, so that whatever counts the fit results of
    public trainer calls counts an ensemble of B batches as B fits, as it
    did when every batch called :func:`fit`."""
    return _fit_result(std, config, backend, point, restarts_used, converged, evaluations)


def _train_batches(args) -> list:
    """Train the batches ``batch_indices`` of ``plan`` in one lockstep run;
    returns ``(b, FitResult, raw weights)`` or ``(b, None, failure
    message)`` for each, in order."""
    (raw, plan, batch_indices, reg, config) = args
    outcomes = {}
    trained, tables = [], []
    for b in batch_indices:
        try:
            tables.append(standardize(bootstrap_batch(raw, plan, b)))
        except ZeroVarianceColumnError as exc:
            outcomes[b] = (None, f"{type(exc).__name__}: {exc}")
            continue
        trained.append(b)
    if trained:
        # keep one copy of the tables: each batch's table is a view of the stack
        stacked = np.stack([std.values for std in tables])
        tables = [replace(std, values=values) for std, values in zip(tables, stacked)]
        configs = [replace(config, seed=child_seed(config.seed, b)) for b in trained]
        backends = [_make_backend(std, c) for std, c in zip(tables, configs)]
        points, restarts, converged, evaluations, failed = _restarts(
            partial(_lockstep_nelder_mead, _ensemble_objective(stacked, backends, reg, config)),
            len(trained), _initial_point(config, raw.num_features), config)
        for i, (b, std, batch_config, backend) in enumerate(
                zip(trained, tables, configs, backends)):
            if failed[i]:
                outcomes[b] = (None, f"{NelderMeadError.__name__}: {NAN_OBJECTIVE}")
                continue
            result = batch_fit_result(std, batch_config, backend, points[i].copy(),
                                      int(restarts[i]), bool(converged[i]),
                                      int(evaluations[i]))
            outcomes[b] = (result, std.raw_weights(result.weights.weights))
    return [(b, *outcomes[b]) for b in batch_indices]


def fit_ensemble(
    raw: RawTable,
    plan: BootstrapPlan,
    reg: RegularizationParams | None = None,
    config: TrainConfig | None = None,
    jobs: int | None = None,
) -> EnsembleResult:
    """Standardize-and-fit every bootstrap batch and pool the recovered
    raw-space weights.

    All batches train together in one lockstep Nelder-Mead with warm
    restarts, and each batch's result is bit for bit what :func:`fit` gives
    on it; ``jobs > 1`` splits the batches into ``jobs`` contiguous chunks
    trained in separate processes.  The reported standard error is the
    across-batch standard deviation of the weights (the batch-to-batch
    spread, not divided by sqrt(N_b)); ``t = mean / SE``.  Per-batch seeds
    derive from (master seed, batch index), so serial and parallel runs
    agree exactly and the aggregate is invariant under batch-order
    permutations.
    """
    reg = reg or RegularizationParams()
    config = config or TrainConfig()
    parts = jobs if jobs and jobs > 1 else 1
    chunks = [c.tolist() for c in np.array_split(np.arange(plan.num_batches), parts) if c.size]
    args = [(raw, plan, chunk, reg, config) for chunk in chunks]
    if len(args) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(args)) as pool:
            outcomes = [o for part in pool.map(_train_batches, args) for o in part]
    else:
        outcomes = _train_batches(args[0])
    good, fits, failures = [], [], []
    for b, result, value in outcomes:
        if result is None:
            failures.append((b, value))
        else:
            fits.append((b, result))
            good.append(value)

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
        fits=tuple(fits),
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
) -> SinDemoResult:
    """Nonlinear regression via preprocessed power features: y = sin(x) on
    uniform x in [-1, 1], 15 power columns, L1 penalty, and the
    alternating-sign ansatz on the odd powers.  The fitted curve is
    evaluated on 201 evenly spaced points of [-1, 1]."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=num_records)
    table = power_feature_table(x, np.sin(x), max_power)
    std = standardize(table, equalize_columns=True)

    raw_init = sin_ansatz_weights(max_power)
    std_init = raw_init * std.column_scales[0] / std.column_scales[1:]
    config = TrainConfig(
        max_restarts=24,
        nm_tolerance_f=1e-14,
        nm_tolerance_x=1e-14,
        max_iterations_per_restart=20000,
        initial_weights=std_init,
        initial_simplex_scale=0.25,
    )

    result = fit(std, RegularizationParams(alpha_l1=alpha_l1), config)
    raw_weights = std.raw_weights(result.weights.weights)
    grid = np.linspace(-1.0, 1.0, 201)
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
