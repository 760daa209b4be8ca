"""Classical data handling: table ingestion, standardization and global
normalization, fixed-point digitization, synthetic data generation,
nonlinear feature construction, and bootstrap resampling.

Table convention: an ``L x (M+1)`` matrix whose column 0 is the response
``y`` and columns ``1..M`` are the features.  All randomness goes through
NumPy ``default_rng`` (PCG64) seeded from explicit integers; bootstrap
batch ``b`` uses ``SeedSequence([master_seed, b])`` so batches can be
generated independently and in any order.  Where a child run takes an
integer seed, :func:`child_seed` derives it the same way.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np


class TableFormatError(ValueError):
    """Malformed CSV input (row length mismatch, non-numeric cell, ...)."""


class ZeroVarianceColumnError(ValueError):
    """A column is constant; weight recovery for it would be meaningless."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} has zero variance; remove it before training")


@dataclass(frozen=True)
class RawTable:
    """Classical data table; ``values[l, 0] = y_l``, ``values[l, m]`` for
    ``m >= 1`` are features."""

    values: np.ndarray
    column_names: tuple | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError("table must be two-dimensional")
        if not np.all(np.isfinite(vals)):
            raise ValueError("table contains non-finite values")
        if vals.shape[0] < 2:
            raise ValueError("need at least two rows")
        if vals.shape[1] < 2:
            raise ValueError("need a response column plus at least one feature")
        object.__setattr__(self, "values", vals)

    @property
    def num_rows(self) -> int:
        return self.values.shape[0]

    @property
    def num_features(self) -> int:
        return self.values.shape[1] - 1


@dataclass(frozen=True)
class StandardizedTable:
    """Mean-centered, optionally column-equalized, globally normalized table.

    ``values`` satisfies: every column sums to zero and the total squared
    sum is 1.  ``column_scales`` are the per-column multipliers applied
    before the global normalization; raw-space weights are recovered as
    ``W_raw_m = W_m * column_scales[m] / column_scales[0]``.  ``c0 =
    1 / (1 + F)`` is the null-model cost (for cos^2 phi_0 = 1), where ``F =
    M * V`` and ``V`` is the mean feature-to-response energy ratio.
    """

    values: np.ndarray
    column_scales: np.ndarray
    c0: float

    @property
    def num_rows(self) -> int:
        return self.values.shape[0]

    @property
    def num_features(self) -> int:
        return self.values.shape[1] - 1

    def raw_weights(self, weights: np.ndarray) -> np.ndarray:
        """Map trained (standardized-space) feature weights back to the
        original column units."""
        w = np.asarray(weights, dtype=np.float64)
        return w * self.column_scales[1:] / self.column_scales[0]

    def cost(self, cosines: np.ndarray) -> float:
        """The regression cost ``sum_l (sum_m x_lm c_m)^2`` at the column
        cosines ``c_m = cos(phi_m)``."""
        r = self.values @ cosines
        return float(r @ r)


def standardize(raw: RawTable, equalize_columns: bool = True) -> StandardizedTable:
    """Center each column; if ``equalize_columns``, rescale every column to
    unit norm (equal energy per column, the optimal-gap choice, giving
    V = 1 and C0 = 1/(1+M)); finally divide by the global norm so the
    squared amplitudes sum to 1.

    Raises :class:`ZeroVarianceColumnError` for constant columns.
    """
    vals = raw.values
    means = vals.mean(axis=0)
    centered = vals - means
    col_norms = np.linalg.norm(centered, axis=0)
    for m, nrm in enumerate(col_norms):
        if nrm <= 0.0 or not np.isfinite(nrm):
            raise ZeroVarianceColumnError(m)
    scales = 1.0 / col_norms if equalize_columns else np.ones_like(col_norms)
    scaled = centered * scales
    global_norm = float(np.linalg.norm(scaled))
    normalized = scaled / global_norm

    energies = (normalized**2).sum(axis=0)
    v_ratio = float(energies[1:].mean() / energies[0])
    f_factor = raw.num_features * v_ratio
    return StandardizedTable(values=normalized, column_scales=scales, c0=1.0 / (1.0 + f_factor))


@dataclass(frozen=True)
class DigitizedTable:
    """Signed-binary fixed-point representation of the flattened table.

    ``bits[k, j]`` holds the sign bit of the ``2**-(j+1)`` term for cell
    ``k`` (row-major ``k = l*(M+1) + m``); ``x_tilde[k]`` is the decoded
    value ``sum_j 2**-(j+1) * (-1)**bits[k, j]``, within ``2**-n`` of the
    input for ``n = bits.shape[1]`` bits.
    """

    bits: np.ndarray
    x_tilde: np.ndarray
    num_rows: int
    num_features: int


def digitize(std: StandardizedTable, n_bits: int) -> DigitizedTable:
    """Greedy signed-binary expansion of every table cell to ``n_bits``
    of precision.  Valid for ``|x| <= 1`` (guaranteed after global
    normalization); the residual error is at most ``2**-n_bits``.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be positive")
    x = std.values.reshape(-1)
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise ValueError("digitization requires |x| <= 1")
    bits = np.zeros((x.size, n_bits), dtype=np.int64)
    residual = x.copy()
    weights = 2.0 ** -(np.arange(1, n_bits + 1))
    for j, w in enumerate(weights):
        bits[:, j] = residual < 0.0
        residual = residual - w * (1.0 - 2.0 * bits[:, j])
    x_tilde = ((1.0 - 2.0 * bits) * weights).sum(axis=1)
    return DigitizedTable(
        bits=bits,
        x_tilde=x_tilde,
        num_rows=std.num_rows,
        num_features=std.num_features,
    )


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic linear-map dataset: features uniform on [-1, 1], response
    generated row-by-row with weights ``true_weights * (1 + N(0, noise_std^2))``."""

    num_rows: int
    true_weights: np.ndarray
    noise_std: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        w = np.asarray(self.true_weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1 or not np.all(np.isfinite(w)):
            raise ValueError("true_weights must be a non-empty vector of finite numbers")
        if not 0.0 <= self.noise_std < np.inf:
            raise ValueError("noise_std must be finite and non-negative")
        object.__setattr__(self, "true_weights", w)

    @property
    def num_features(self) -> int:
        return self.true_weights.size


def generate_linear_synthetic(spec: SyntheticSpec) -> RawTable:
    """Draw the features first, then the per-row weight perturbations, so
    the noiseless and noisy tables share the same feature matrix for a
    given seed."""
    rng = np.random.default_rng(spec.rng_seed)
    features = rng.uniform(-1.0, 1.0, size=(spec.num_rows, spec.num_features))
    row_weights = np.broadcast_to(spec.true_weights, features.shape)
    if spec.noise_std > 0.0:
        row_weights = spec.true_weights * (
            1.0 + spec.noise_std * rng.standard_normal(features.shape)
        )
    response = (features * row_weights).sum(axis=1)
    names = ("y",) + tuple(f"x{i}" for i in range(1, spec.num_features + 1))
    return RawTable(np.column_stack([response, features]), column_names=names)


def build_power_features(x_column, max_power: int) -> np.ndarray:
    """Column ``p`` (1-based) holds ``x**p`` elementwise; shape (L, max_power)."""
    if max_power < 1:
        raise ValueError("max_power must be positive")
    x = np.asarray(x_column, dtype=np.float64)
    return np.power(x[:, None], np.arange(1, max_power + 1)[None, :])


def power_feature_table(x_column, response, max_power: int) -> RawTable:
    feats = build_power_features(x_column, max_power)
    names = ("y",) + tuple(f"x^{p}" for p in range(1, max_power + 1))
    return RawTable(np.column_stack([np.asarray(response, dtype=np.float64), feats]), names)


@dataclass(frozen=True)
class BootstrapPlan:
    num_batches: int
    batch_size: int
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_batches < 1:
            raise ValueError("num_batches must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def child_seed(*entropy: int) -> int:
    """The integer seed of the child run keyed by ``entropy``, e.g.
    ``(master_seed, batch_index)``: the first word of
    ``SeedSequence(entropy)``'s state."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def bootstrap_batch(raw: RawTable, plan: BootstrapPlan, batch_index: int) -> RawTable:
    """Batch ``b``: ``batch_size`` rows drawn with replacement from
    ``default_rng(SeedSequence([rng_seed, b]))``, so batches are
    reproducible independently of each other."""
    if not 0 <= batch_index < plan.num_batches:
        raise IndexError("batch index out of range")
    rng = np.random.default_rng(np.random.SeedSequence([plan.rng_seed, batch_index]))
    idx = rng.integers(0, raw.num_rows, size=plan.batch_size)
    return RawTable(raw.values[idx], column_names=raw.column_names)


def load_csv(path) -> RawTable:
    """Read a UTF-8, comma-separated table with a header row; the response
    column comes first.  Errors cite the offending 1-based line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TableFormatError(f"{path}: empty file") from None
        width = len(header)
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise TableFormatError(
                    f"{path}: line {line_no}: expected {width} cells, got {len(row)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise TableFormatError(f"{path}: line {line_no}: {exc}") from None
    if len(rows) < 2:
        raise TableFormatError(f"{path}: need at least two data rows")
    return RawTable(np.asarray(rows, dtype=np.float64), column_names=tuple(header))


def save_csv(path, table: RawTable) -> None:
    names = table.column_names or ("y",) + tuple(
        f"x{i}" for i in range(1, table.num_features + 1)
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in table.values:
            writer.writerow([repr(float(v)) for v in row])


def save_results_json(path, result: dict) -> None:
    """Serialize results deterministically; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(result), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj
