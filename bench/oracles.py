"""Correctness oracles for the benchmark, computed outside the timed region.

The shot and shadow estimators are random, so their checks compare each
estimate against ``readout_attenuation(delta, measured qubits) *
exact_expectation`` with a half-width taken from the estimator's own error
model: the exact per-shot variance of the estimator on the state at hand,
plugged into Bernstein's inequality (and, for median-of-means, a union bound
over the groups that must all stray).  The half-widths are chosen so that a
correct estimator fails its check with probability below ``alpha``.
"""
from __future__ import annotations

import math

import numpy as np


def bernstein_halfwidth(variance: float, bound: float, log_term: float) -> float:
    """Smallest ``t`` with ``exp(-t**2 / (2 V + 2 B t / 3)) <= exp(-log_term)``.

    For a sum of independent zero-mean terms with total variance ``V`` and
    every term bounded by ``B`` in absolute value, Bernstein's inequality gives
    ``P(sum >= t) <= exp(-t**2 / (2 V + 2 B t / 3))``.
    """
    a = 2.0 * bound * log_term / 3.0
    return 0.5 * (a + math.sqrt(a * a + 8.0 * variance * log_term))


def lstsq_standardized_weights(values: np.ndarray) -> np.ndarray:
    """Least-squares weights of a table in the fit's standardized space.

    Columns are centred and scaled to unit norm (the CLI default,
    ``equalize_columns``); the global normalization cancels in the weights.
    """
    centered = values - values.mean(axis=0)
    scaled = centered / np.linalg.norm(centered, axis=0)
    weights, *_ = np.linalg.lstsq(scaled[:, 1:], scaled[:, 0], rcond=None)
    return weights


def compact_halfwidth(scaled_mean: float, n_m: int, shots: int, alpha: float) -> float:
    """Half-width for ``shot_estimate_compact``.

    The estimate is ``2**n_m`` times the mean of ``shots`` Bernoulli(q)
    acceptances, with ``q = scaled_mean / 2**n_m`` and ``scaled_mean`` the
    attenuated exact expectation on the normalized state.
    """
    scale = float(1 << n_m)
    q = min(max(scaled_mean / scale, 0.0), 1.0)
    t = bernstein_halfwidth(q * (1.0 - q) / shots, max(q, 1.0 - q) / shots,
                            math.log(2.0 / alpha))
    return scale * t


def _walsh_hadamard(x: np.ndarray) -> np.ndarray:
    """Normalized Hadamard on every qubit of a little-endian vector."""
    n = x.size
    h = 1
    while h < n:
        y = x.reshape(-1, 2, h)
        x = np.stack((y[:, 0, :] + y[:, 1, :], y[:, 0, :] - y[:, 1, :]), axis=1).reshape(n)
        h *= 2
    return x / math.sqrt(n)


def one_hot_pair_sums(num_rows: int, num_cols: int) -> np.ndarray:
    """Per-outcome pair weight of the grouped-Pauli estimator: for data
    outcome ``d`` with signs ``s_j = 1 - 2 bit_j``, half of
    ``sum_rows (sum_cols s)**2`` minus the qubit count."""
    n_data = num_rows * num_cols
    d = np.arange(1 << n_data, dtype=np.int64)
    signs = 1 - 2 * ((d[:, None] >> np.arange(n_data)) & 1)
    row_sums = signs.reshape(d.size, num_rows, num_cols).sum(axis=2)
    return ((row_sums**2).sum(axis=1) - n_data) / 2.0


def one_hot_halfwidth(pre_projection: np.ndarray, pair_sums: np.ndarray, keep: float,
                      shots: int, alpha: float) -> float:
    """Half-width for ``shot_estimate_one_hot`` on a pre-projection state.

    The estimator averages three independent settings (computational, global
    X, global Y on the data qubits, the ancilla always in Z); each shot
    counts only if the ancilla reads 0 and no readout error struck, which
    happens independently with probability ``keep``.  The per-setting means
    and variances are computed exactly from the rotated states.
    """
    n_data = pair_sums.size.bit_length() - 1
    amps = pre_projection.reshape(2, 1 << n_data)  # ancilla is the top qubit
    norm_sq = float(np.vdot(pre_projection, pre_projection).real)
    anc0 = amps[0]
    popcount = np.bitwise_count(np.arange(1 << n_data, dtype=np.uint64)) % 4
    y_phase = np.array([1, -1j, -1, 1j])[popcount]  # S-dagger on every data qubit
    n_b = shots // 3
    n_a = shots - 2 * n_b

    p_a = keep * float(np.sum(np.abs(anc0) ** 2)) / norm_sq
    variance = p_a * (1.0 - p_a) / n_a
    bound = max(p_a, 1.0 - p_a) / n_a
    for rotated in (_walsh_hadamard(anc0), _walsh_hadamard(anc0 * y_phase)):
        probs = np.abs(rotated) ** 2 / norm_sq
        mean = keep * float(probs @ pair_sums)
        second = keep * float(probs @ pair_sums**2)
        variance += 0.25 * (second - mean * mean) / n_b
        bound = max(bound, 0.5 * (float(np.max(np.abs(pair_sums))) + abs(mean)) / n_b)
    return bernstein_halfwidth(variance, bound, math.log(2.0 / alpha))


def _x_string_expectation(amps: np.ndarray, mask: int) -> float:
    idx = np.arange(amps.size)
    return float(np.vdot(amps, amps[idx ^ mask]).real)


def shadow_halfwidth(amps: np.ndarray, n_m: int, snapshots: int, groups: int,
                     alpha: float) -> float:
    """Half-width for ``pauli_shadow_estimate`` (median of ``groups`` means).

    A snapshot's estimate is ``sum_S f_S`` over the X/I strings ``S`` on the
    column qubits, with ``E[f_S f_T] = 3**|S & T| <X_{S ^ T}>``, so its exact
    variance follows from the state.  It is bounded by ``4**n_m`` in absolute
    value.  The median strays by ``t`` only if at least ``r = groups -
    groups // 2`` group means do, which a union bound over the
    ``C(groups, r)`` subsets limits to ``C(groups, r) p**r``.
    """
    masks = range(1 << n_m)
    x_exp = {r: _x_string_expectation(amps, r) for r in masks}
    mean = sum(x_exp[s] for s in masks)
    second = sum(3.0 ** bin(s & t).count("1") * x_exp[s ^ t] for s in masks for t in masks)
    variance = second - mean * mean
    per_group = snapshots // groups
    r = groups - groups // 2
    p = (alpha / (2.0 * math.comb(groups, r))) ** (1.0 / r)
    return bernstein_halfwidth(variance / per_group, (4.0**n_m + abs(mean)) / per_group,
                               math.log(1.0 / p))
