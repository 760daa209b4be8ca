"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is deterministic (fixed seeds throughout).
"""
import os
import time

import numpy as np

from vqreg.circuit import (
    PhaseVector,
    analytic_gradient,
    apply_regression_map,
    regression_map_state,
)
from vqreg.data import (
    BootstrapPlan,
    RawTable,
    SyntheticSpec,
    generate_linear_synthetic,
    standardize,
)
from vqreg.encoders import COMPACT_BINARY, ONE_HOT, prepare_exact
from vqreg.measurement import (
    ShadowConfig,
    exact_expectation,
    measured_qubit_count,
    operator_identity_check,
    pauli_shadow_estimate,
    required_shots,
    shadow_snapshot_budget,
    shot_estimate_compact,
    shot_estimate_one_hot,
)
from vqreg.resources import sweep_shot_cost_ratio
from vqreg.statevector import basis_state
from vqreg.trainer import TrainConfig, fit_ensemble, fit_nonlinear_sin_demo

TRUE_WEIGHTS = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
BATCH_SIZES = (10, 20, 40, 60, 100, 150)

ENSEMBLE_CONFIG = TrainConfig(
    max_restarts=3, nm_tolerance_f=1e-15, nm_tolerance_x=1e-10,
    max_iterations_per_restart=1200,
)


def report(num, name, passed, detail, elapsed, limit):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] C{num:02d} {name}: {status} ({detail}; {elapsed:.1f}s < {limit:.0f}s)")
    assert passed, f"criterion {num} failed: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded its {limit:.0f}s budget ({elapsed:.1f}s)"


def ensemble_jobs():
    return min(8, os.cpu_count() or 1)


def test_c01_quantum_classical_equivalence():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        L = int(rng.integers(2, 5))
        M = int(rng.integers(1, 4))
        std = standardize(RawTable(rng.uniform(-1, 1, (L, M + 1))))
        phases = PhaseVector(rng.uniform(0, 2 * np.pi, M + 1))
        want = std.cost(phases.cosines())
        for scheme in (ONE_HOT, COMPACT_BINARY):
            prep = prepare_exact(std, scheme)
            psi0, _ = apply_regression_map(prep, phases)
            worst = max(worst, abs(exact_expectation(psi0, prep.layout) - want))
    elapsed = time.time() - start
    report(1, "quantum-classical equivalence", worst <= 1e-9,
           f"worst |circuit-analytic| = {worst:.2e} over 200 tables x 2 encodings",
           elapsed, 10.0)


def test_c02_operator_identity_arbitration():
    start = time.time()
    worst_exact = 0.0
    worst_affine = np.inf
    for L in range(1, 13):
        for M in range(1, 12):
            if L * (M + 1) > 12:
                continue
            rep = operator_identity_check(L, M)
            worst_exact = max(worst_exact, rep.deviation_m_plus_one)
            worst_affine = min(worst_affine, rep.deviation_identity_plus_m)
    budget = required_shots(0.125, 6, 0.01, 0.05)
    both_emitted = budget.shots_identity_plus_m > 0 and budget.shots_operator > 0
    elapsed = time.time() - start
    report(2, "operator identity arbitration",
           worst_exact == 0.0 and worst_affine > 0.0 and both_emitted,
           f"M^2=(M+1)M exact, I+M*M deviation >= {worst_affine:.1f}, "
           f"budgets affine/operator = {budget.shots_identity_plus_m}/{budget.shots_operator}",
           elapsed, 1.0)


def _run_ensembles(noise, seed):
    master = generate_linear_synthetic(SyntheticSpec(1024, TRUE_WEIGHTS, noise, seed))
    results = {}
    for batch_size in BATCH_SIZES:
        plan = BootstrapPlan(num_batches=1024, batch_size=batch_size, rng_seed=seed)
        results[batch_size] = fit_ensemble(master, plan, config=ENSEMBLE_CONFIG,
                                           jobs=ensemble_jobs())
    return results


def test_c03_noise_free_recovery():
    start = time.time()
    results = _run_ensembles(noise=0.0, seed=7)
    worst_dev = 0.0
    min_t = np.inf
    for batch_size, res in results.items():
        dev = np.abs(res.mean_weights - TRUE_WEIGHTS) / res.std_errors
        worst_dev = max(worst_dev, float(dev.max()))
        min_t = min(min_t, float(np.nanmin(res.t_stats)))
    elapsed = time.time() - start
    report(3, "noise-free ensemble recovery",
           worst_dev <= 3.0 and min_t > 10.0,
           f"max |mean-truth|/SE = {worst_dev:.2f}, min t = {min_t:.1e}",
           elapsed, 300.0)


def test_c04_gaussian_noise_robustness():
    start = time.time()
    results = _run_ensembles(noise=0.1, seed=11)
    worst_dev = 0.0
    for batch_size in (60, 100, 150):
        res = results[batch_size]
        dev = np.abs(res.mean_weights - TRUE_WEIGHTS) / res.std_errors
        worst_dev = max(worst_dev, float(dev.max()))
    shrink_ok = bool(np.all(results[150].std_errors < results[10].std_errors))
    elapsed = time.time() - start
    report(4, "Gaussian-noise robustness",
           worst_dev <= 3.0 and shrink_ok,
           f"max |mean-truth|/SE (batch>=60) = {worst_dev:.2f}, "
           f"SE(150) < SE(10) for all features = {shrink_ok}",
           elapsed, 300.0)


def test_c05_sin_demo():
    start = time.time()
    demo = fit_nonlinear_sin_demo(alpha_l1=1.2e-7)
    w = demo.raw_weights
    evens = float(np.max(np.abs(w[1::2])))
    curve = float(np.max(np.abs(demo.predictions - demo.truth)))
    ok = (0.98 <= w[0] <= 1.02 and -0.18 <= w[2] <= -0.15
          and evens < 0.01 and curve < 1e-2)
    elapsed = time.time() - start
    report(5, "sin(x) nonlinear demo", ok,
           f"W1 = {w[0]:.4f}, W3 = {w[2]:.4f}, max even |W| = {evens:.1e}, "
           f"max curve error = {curve:.1e}",
           elapsed, 30.0)


def test_c06_shot_estimator_convergence():
    start = time.time()
    rng = np.random.default_rng(5)
    std = standardize(RawTable(rng.uniform(-1, 1, (2, 2))))
    phases = PhaseVector(np.array([np.pi, 0.7]))
    shots_grid = (10**3, 10**4, 10**5, 10**6)
    details = []
    ok = True
    for scheme, estimator in ((COMPACT_BINARY, shot_estimate_compact),
                              (ONE_HOT, shot_estimate_one_hot)):
        prep = prepare_exact(std, scheme)
        state = regression_map_state(prep, phases)
        psi0, _ = apply_regression_map(prep, phases)
        exact = exact_expectation(psi0, prep.layout)
        stds = []
        for shots in shots_grid:
            vals = [estimator(state, prep.layout, shots, 0.0,
                              np.random.SeedSequence([shots, r])).value
                    for r in range(48)]
            stds.append(np.std(vals, ddof=1))
        slope = float(np.polyfit(np.log10(shots_grid), np.log10(stds), 1)[0])
        vals = np.array([estimator(state, prep.layout, 10**4, 0.0,
                                   np.random.SeedSequence([99, r])).value
                         for r in range(200)])
        bias_z = float((vals.mean() - exact) / (vals.std(ddof=1) / np.sqrt(vals.size)))
        ok = ok and abs(slope + 0.5) <= 0.05 and abs(bias_z) <= 3.0
        details.append(f"{scheme}: slope {slope:+.3f}, bias z {bias_z:+.2f}")
    elapsed = time.time() - start
    report(6, "shot-estimator convergence", ok, "; ".join(details), elapsed, 120.0)


def test_c07_readout_error_law():
    start = time.time()
    rng = np.random.default_rng(9)
    std = standardize(RawTable(rng.uniform(-1, 1, (4, 4))))
    phases = PhaseVector(np.array([np.pi, np.pi / 2, np.pi / 2, np.pi / 2]))  # C = C0
    deltas = np.array([0.0, 0.002, 0.004, 0.006])
    slopes = {}
    details = []
    ok = True
    for scheme, estimator, shots, reps in (
        (ONE_HOT, shot_estimate_one_hot, 200000, 10),
        (COMPACT_BINARY, shot_estimate_compact, 1000000, 8),
    ):
        prep = prepare_exact(std, scheme)
        state = regression_map_state(prep, phases)
        psi0, _ = apply_regression_map(prep, phases)
        cost = exact_expectation(psi0, prep.layout)
        n_meas = measured_qubit_count(prep.layout)
        means = [
            np.mean([estimator(state, prep.layout, shots, d,
                               np.random.SeedSequence([int(d * 1e6), r])).value
                     for r in range(reps)])
            for d in deltas
        ]
        slope = float(np.polyfit(deltas, means, 1)[0])
        expected = -n_meas * cost
        rel = abs(slope - expected) / abs(expected)
        slopes[scheme] = slope
        ok = ok and rel <= 0.10
        details.append(f"{scheme}: slope {slope:.3f} vs {expected:.3f} ({rel * 100:.1f}%)")
    ratio = slopes[ONE_HOT] / slopes[COMPACT_BINARY]
    target = 16.0 / 5.0  # N_Q one-hot over (N_L + N_M + 1)
    ratio_ok = abs(ratio / target - 1.0) <= 0.15
    ok = ok and ratio_ok
    details.append(f"slope ratio {ratio:.2f} ~ {target:.2f}")
    elapsed = time.time() - start
    report(7, "readout-error first-order law", ok, "; ".join(details), elapsed, 120.0)


def test_c08_pauli_shadow_coverage():
    start = time.time()
    epsilon = 0.25
    details = []
    ok = True
    for n_m, num_rows in ((1, 4), (2, 4)):
        m_feats = (1 << n_m) - 1
        rng = np.random.default_rng(40 + n_m)
        std = standardize(RawTable(rng.uniform(-1, 1, (num_rows, m_feats + 1))))
        prep = prepare_exact(std)
        exact = exact_expectation(prep.state, prep.layout)
        snapshots = shadow_snapshot_budget(n_m, epsilon)
        errors = np.array([
            pauli_shadow_estimate(
                prep.state, prep.layout,
                ShadowConfig(snapshots=snapshots, locality=n_m,
                             seed=int(np.random.SeedSequence([n_m, r]).generate_state(1)[0])),
            ).value - exact
            for r in range(100)
        ])
        coverage = float(np.mean(np.abs(errors) <= epsilon))
        ok = ok and coverage >= 0.95
        details.append(f"N_M={n_m}: coverage {coverage:.2f} at {snapshots} snapshots")

    # variance scaling at a fixed snapshot count on basis states
    variances = {}
    for n_m in (1, 2):
        layout = prepare_exact(
            standardize(RawTable(np.random.default_rng(1).uniform(-1, 1, (2, (1 << n_m))))),
        ).layout
        psi = basis_state(layout.n_k, 0)
        vals = [
            pauli_shadow_estimate(
                psi, layout,
                ShadowConfig(snapshots=600, locality=n_m,
                             seed=int(np.random.SeedSequence([5, n_m, r]).generate_state(1)[0])),
            ).value
            for r in range(300)
        ]
        variances[n_m] = float(np.var(vals, ddof=1))
    ratio = variances[2] / variances[1]
    ok = ok and 2.0 <= ratio <= 8.0
    details.append(f"variance ratio {ratio:.2f} (4 within x2)")
    elapsed = time.time() - start
    report(8, "Pauli-shadow coverage and scaling", ok, "; ".join(details), elapsed, 180.0)


def test_c09_gradient_check():
    start = time.time()
    rng = np.random.default_rng(3)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        L = int(rng.integers(3, 9))
        M = int(rng.integers(1, 6))
        std = standardize(RawTable(rng.uniform(-1, 1, (L, M + 1))))
        phis = rng.uniform(0, 2 * np.pi, M + 1)
        grad = analytic_gradient(std, PhaseVector(phis))
        for k in range(M + 1):
            up, down = phis.copy(), phis.copy()
            up[k] += h
            down[k] -= h
            fd = (std.cost(PhaseVector(up).cosines())
                  - std.cost(PhaseVector(down).cosines())) / (2 * h)
            worst = max(worst, abs(grad[k] - fd) / max(1.0, abs(fd)))
    grad_ok = worst <= 1e-6

    col = np.random.default_rng(4).standard_normal(12)
    mags = {}
    for m_feats in (2, 4, 8, 16):
        std = standardize(RawTable(np.tile(col[:, None], (1, m_feats + 1))))
        phases = PhaseVector(np.array([np.pi] + [np.pi / 2] * m_feats))
        mags[m_feats] = float(np.abs(analytic_gradient(std, phases)[1:]).mean())
    scale_ok = all(abs(mags[m] * (m + 1) - 2.0) < 1e-9 for m in mags)
    elapsed = time.time() - start
    report(9, "analytic gradient check", grad_ok and scale_ok,
           f"max FD mismatch {worst:.1e}; |grad|*(M+1) = 2 exactly across M",
           elapsed, 10.0)


def test_c10_model_metrics():
    start = time.time()
    from vqreg.measurement import r_squared

    rng = np.random.default_rng(6)
    ok = True
    for m_feats in range(1, 9):
        std = standardize(RawTable(rng.uniform(-1, 1, (16, m_feats + 1))))
        ok = ok and abs(std.c0 - 1.0 / (1.0 + m_feats)) <= 1e-10
    std = standardize(RawTable(rng.uniform(-1, 1, (12, 4))))
    phases = PhaseVector(np.array([np.pi, 0.0, 0.0, 0.0]))
    anchors = (
        r_squared(0.0, std, phases) == 1.0,
        abs(r_squared(std.c0, std, phases)) < 1e-12,
        abs(r_squared(4 * std.c0, std, phases) + 3.0) < 1e-12,
    )
    ok = ok and all(anchors)
    elapsed = time.time() - start
    report(10, "model metrics anchors", ok,
           "R^2 = 1/0/-3 at C = 0/C0/4C0; C0 = 1/(1+M) for M in 1..8",
           elapsed, 1.0)


def test_c11_resource_ratio_scaling():
    start = time.time()
    rows = [2**k for k in range(4, 11)]
    sweep = sweep_shot_cost_ratio(rows, 6)
    x = np.array([r["log2_lm"] for r in sweep])
    y = np.array([r["ratio"] for r in sweep])
    coef = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(np.polyval(coef, x) - y) / np.abs(y)))
    ok = coef[0] > 0 and residual < 0.15
    elapsed = time.time() - start
    report(11, "shot-cost ratio scaling", ok,
           f"log-fit slope {coef[0]:.2f}, max relative residual {residual * 100:.1f}%",
           elapsed, 1.0)
