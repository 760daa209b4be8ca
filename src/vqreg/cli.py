"""Command-line front end wiring the library into the standard
experiments: synthetic data generation, single fits, bootstrap ensembles,
noise sweeps, shadow studies, and resource tables.

Every run echoes its fully resolved configuration (including the seed of
every command that draws random numbers) into the JSON output, and all
outputs are byte-identical across re-runs with the same inputs.  Exit
codes: 0 success, 2 usage (including an out-of-range count and a NaN,
infinite or out-of-range number), 3 malformed input data (including a
constant column in the table ``fit`` trains on), 4 I/O failure, 5
training did not converge (including an ensemble whose every batch
failed), 1 anything else.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import resources
from .data import (
    BootstrapPlan,
    RawTable,
    SyntheticSpec,
    TableFormatError,
    ZeroVarianceColumnError,
    child_seed,
    generate_linear_synthetic,
    load_csv,
    save_csv,
    save_results_json,
    standardize,
)
from .encoders import COMPACT_BINARY, ONE_HOT, prepare_exact
from .measurement import (
    SHADOW_GROUPS,
    ShadowConfig,
    exact_expectation,
    pauli_shadow_estimate,
    shadow_snapshot_budget,
)
from .trainer import (
    BACKEND_ANALYTIC,
    ConvergenceFailure,
    NelderMeadError,
    RegularizationParams,
    TrainConfig,
    fit,
    fit_ensemble,
    fit_nonlinear_sin_demo,
)

EXIT_OK = 0
EXIT_DATA = 3
EXIT_IO = 4
EXIT_CONVERGENCE = 5
EXIT_OTHER = 1


def _output_path(name: str) -> str:
    base = os.environ.get("VQREG_OUTPUT_DIR", ".")
    return os.path.join(base, name)


def _number(accepts=lambda v: True, bound: str = "finite"):
    """argparse type: a finite number that ``accepts``; ``bound`` says which."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
        if not (np.isfinite(value) and accepts(value)):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        return value

    return parse


_NON_NEGATIVE = _number(lambda v: v >= 0.0, "finite and at least 0")


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _list_of(parse_one):
    """argparse type: comma-separated values, each read by ``parse_one``, at least one."""

    def parse(text: str) -> list:
        values = [parse_one(t) for t in text.split(",") if t.strip() != ""]
        if not values:
            raise argparse.ArgumentTypeError("expected at least one value")
        return values

    return parse


def _echo(args: argparse.Namespace) -> dict:
    echo = {}
    for key, value in sorted(vars(args).items()):
        if key == "func":
            continue
        echo[key] = value if not isinstance(value, (list, tuple)) else list(value)
    return echo


def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(
        cost_backend=getattr(args, "backend", BACKEND_ANALYTIC),
        shots=getattr(args, "shots", 4096),
        readout_delta=getattr(args, "readout_delta", 0.0),
        estimator=getattr(args, "estimator", "compact"),
        seed=args.seed,
    )


def _warn_unconverged(results: list) -> None:
    """One stderr line counting the pooled batches that did not converge."""
    unconverged = sum(len(r.unconverged) for r in results)
    if unconverged:
        trained = sum(len(r.fits) for r in results)
        print(f"warning: {unconverged} of {trained} trained bootstrap batches did not "
              "converge; their weights are pooled anyway", file=sys.stderr)


def cmd_generate(args) -> int:
    spec = SyntheticSpec(
        num_rows=args.rows,
        true_weights=np.asarray(args.weights),
        noise_std=args.noise,
        rng_seed=args.seed,
    )
    table = generate_linear_synthetic(spec)
    save_csv(args.out, table)
    print(f"wrote {args.rows}x{len(args.weights) + 1} table to {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    std = standardize(load_csv(args.input), equalize_columns=not args.no_equalize)
    reg = RegularizationParams(alpha_l1=args.l1, beta_l2=args.l2)
    result = fit(std, reg, _train_config(args))
    if not result.converged:
        raise ConvergenceFailure(
            f"fit did not converge: {result.failure_reason} (cost {result.cost:.3e})"
        )
    payload = {
        "config_echo": _echo(args),
        "weights": std.raw_weights(result.weights),
        "weights_standardized": result.weights,
        "phases": result.phases.phis,
        "cost": result.cost,
        "r_squared": result.r_squared,
        "restarts_used": result.restarts_used,
        "standard_errors": None,
        "t_stats": None,
    }
    save_results_json(args.out, payload)
    print(f"fit: cost={result.cost:.6e} r2={result.r_squared:.6f} -> {args.out}")
    return EXIT_OK


def cmd_ensemble(args) -> int:
    raw = load_csv(args.input)
    plan = BootstrapPlan(num_batches=args.batches, batch_size=args.batch_size,
                         rng_seed=args.seed)
    reg = RegularizationParams(alpha_l1=args.l1, beta_l2=args.l2)
    result = fit_ensemble(raw, plan, reg, _train_config(args), jobs=args.jobs)
    _warn_unconverged([result])
    payload = {
        "config_echo": _echo(args),
        "weights": result.mean_weights,
        "standard_errors": result.std_errors,
        "t_stats": result.t_stats,
        "cost": None,
        "r_squared": None,
        "batch_size": result.batch_size,
        "num_batches": result.num_batches,
        "failed_batches": result.failed_batches,
    }
    save_results_json(args.out, payload)
    if args.per_batch_csv:
        header = ",".join(f"w{i + 1}" for i in range(raw.num_features))
        np.savetxt(args.per_batch_csv, result.per_batch_weights, delimiter=",",
                   header=header, comments="")
    print(f"ensemble: {result.num_batches} batches of {result.batch_size} -> {args.out}")
    return EXIT_OK


def cmd_sin_demo(args) -> int:
    demo = fit_nonlinear_sin_demo(alpha_l1=args.alpha, num_records=args.records,
                                  max_power=args.max_power, seed=args.seed)
    if not demo.fit.converged:
        raise ConvergenceFailure("sin demo training did not converge")
    payload = {
        "config_echo": _echo(args),
        "weights": demo.raw_weights,
        "weights_standardized": demo.fit.weights,
        "cost": demo.fit.cost,
        "r_squared": demo.fit.r_squared,
        "max_abs_curve_error": float(np.max(np.abs(demo.predictions - demo.truth))),
        "standard_errors": None,
        "t_stats": None,
    }
    save_results_json(args.out, payload)
    if args.curve_csv:
        curve = np.column_stack([demo.grid_x, demo.predictions, demo.truth])
        np.savetxt(args.curve_csv, curve, delimiter=",", header="x,y_hat,sin_x", comments="")
    print(f"sin-demo: W1={demo.raw_weights[0]:.4f} W3={demo.raw_weights[2]:.4f} -> {args.out}")
    return EXIT_OK


def cmd_noise_sweep(args) -> int:
    rows, results = [], []
    for level_index, noise in enumerate(args.noise_levels):
        spec = SyntheticSpec(
            num_rows=args.rows,
            true_weights=np.asarray(args.weights),
            noise_std=noise,
            rng_seed=child_seed(args.seed, level_index),
        )
        master = generate_linear_synthetic(spec)
        for batch_size in args.batch_sizes:
            plan = BootstrapPlan(args.batches, batch_size, rng_seed=args.seed)
            result = fit_ensemble(master, plan, RegularizationParams(),
                                  _train_config(args), jobs=args.jobs)
            results.append(result)
            for i in range(master.num_features):
                rows.append({
                    "noise": noise,
                    "batch_size": batch_size,
                    "feature": i + 1,
                    "mean_weight": float(result.mean_weights[i]),
                    "std_error": float(result.std_errors[i]),
                    "t_stat": float(result.t_stats[i]),
                })
    _warn_unconverged(results)
    payload = {"config_echo": _echo(args), "sweep": rows}
    save_results_json(args.out, payload)
    if args.table_csv:
        with open(args.table_csv, "w", encoding="utf-8") as fh:
            fh.write("noise,batch_size,feature,mean_weight,std_error,t_stat\n")
            for r in rows:
                fh.write(
                    f"{r['noise']!r},{r['batch_size']},{r['feature']},"
                    f"{r['mean_weight']!r},{r['std_error']!r},{r['t_stat']!r}\n"
                )
    print(f"noise-sweep: {len(rows)} rows -> {args.out}")
    return EXIT_OK


def cmd_shadow_study(args) -> int:
    records = []
    for n_m in args.col_qubits:
        m_feats = (1 << n_m) - 1
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, n_m]))
        values = rng.uniform(-1.0, 1.0, size=(4, m_feats + 1))
        std = standardize(RawTable(values), equalize_columns=True)
        prep = prepare_exact(std)
        exact = exact_expectation(prep.state, prep.layout)
        snapshots = args.snapshots or shadow_snapshot_budget(n_m, args.epsilon)
        errors = []
        for rep in range(args.replications):
            config = ShadowConfig(
                snapshots=snapshots,
                locality=n_m,
                seed=child_seed(args.seed, n_m, rep),
            )
            est = pauli_shadow_estimate(prep.state, prep.layout, config)
            errors.append(est.value - exact)
        errors = np.asarray(errors)
        records.append({
            "col_qubits": n_m,
            "snapshots": snapshots,
            "exact": float(exact),
            "coverage": float(np.mean(np.abs(errors) <= args.epsilon)),
            "error_variance": float(errors.var(ddof=1)),
            "mean_error": float(errors.mean()),
        })
    payload = {"config_echo": _echo(args), "study": records}
    save_results_json(args.out, payload)
    print(f"shadow-study: {len(records)} settings -> {args.out}")
    return EXIT_OK


def cmd_resources(args) -> int:
    table = []
    for L in args.rows_list:
        for scheme in (ONE_HOT, COMPACT_BINARY):
            est = resources.estimate(L, args.features, args.bits, scheme, args.gate_model)
            table.append(vars(est).copy())
    ratios = resources.sweep_shot_cost_ratio(args.rows_list, args.features, args.bits,
                                             args.gate_model)
    payload = {"config_echo": _echo(args), "estimates": table, "shot_cost_ratios": ratios}
    save_results_json(args.out, payload)
    if args.table_csv:
        keys = list(table[0].keys())
        with open(args.table_csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(keys) + "\n")
            for row in table:
                fh.write(",".join(str(row[k]) for k in keys) + "\n")
    print(f"resources: {len(table)} estimates -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqreg",
        description="Variational quantum regression: simulate, train, and budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic linear-map table as CSV")
    p.add_argument("--rows", type=_int_at_least(2), required=True)
    p.add_argument("--weights", type=_list_of(_number()), required=True,
                   help="comma-separated generating weights, one per feature")
    p.add_argument("--noise", type=_NON_NEGATIVE, default=0.0,
                   help="relative weight-noise standard deviation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=_output_path("synthetic.csv"))
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="train a single model on a CSV table")
    p.add_argument("--input", required=True)
    p.add_argument("--backend", choices=("analytic", "circuit", "shots"), default="analytic")
    p.add_argument("--l1", type=_NON_NEGATIVE, default=0.0, help="L1 penalty strength")
    p.add_argument("--l2", type=_NON_NEGATIVE, default=0.0, help="L2 penalty strength")
    p.add_argument("--shots", type=_int_at_least(1), default=4096)
    p.add_argument("--readout-delta", type=_number(lambda v: 0.0 <= v < 0.5, "in [0, 0.5)"),
                   default=0.0, dest="readout_delta")
    p.add_argument("--estimator", choices=("compact", "one-hot"), default="compact")
    p.add_argument("--no-equalize", action="store_true",
                   help="skip per-column energy equalization")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=_output_path("fit.json"))
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("ensemble", help="bootstrap-ensemble training")
    p.add_argument("--input", required=True)
    p.add_argument("--batches", type=_int_at_least(1), default=1024)
    p.add_argument("--batch-size", type=_int_at_least(2), required=True, dest="batch_size")
    p.add_argument("--l1", type=_NON_NEGATIVE, default=0.0)
    p.add_argument("--l2", type=_NON_NEGATIVE, default=0.0)
    p.add_argument("--jobs", type=_int_at_least(1), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=_output_path("ensemble.json"))
    p.add_argument("--per-batch-csv", default=None, dest="per_batch_csv")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("sin-demo", help="nonlinear sin(x) regression demo")
    p.add_argument("--alpha", type=_NON_NEGATIVE, default=1.2e-7, help="L1 strength")
    p.add_argument("--records", type=_int_at_least(2), default=32)
    p.add_argument("--max-power", type=_int_at_least(3), default=15, dest="max_power",
                   help="at least 3, for the reported W3")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--out", default=_output_path("sin_demo.json"))
    p.add_argument("--curve-csv", default=None, dest="curve_csv")
    p.set_defaults(func=cmd_sin_demo)

    p = sub.add_parser("noise-sweep", help="ensemble training across noise levels")
    p.add_argument("--rows", type=_int_at_least(2), default=1024)
    p.add_argument("--weights", type=_list_of(_number()), default=[1, 2, 3, 4, 5, 6])
    p.add_argument("--noise-levels", type=_list_of(_NON_NEGATIVE), default=[0.0, 0.1],
                   dest="noise_levels")
    p.add_argument("--batch-sizes", type=_list_of(_int_at_least(2)),
                   default=[10, 20, 40, 60, 100, 150], dest="batch_sizes")
    p.add_argument("--batches", type=_int_at_least(1), default=1024)
    p.add_argument("--jobs", type=_int_at_least(1), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=_output_path("noise_sweep.json"))
    p.add_argument("--table-csv", default=None, dest="table_csv")
    p.set_defaults(func=cmd_noise_sweep)

    p = sub.add_parser("shadow-study", help="random-Pauli shadow coverage study")
    p.add_argument("--col-qubits", type=_list_of(_int_at_least(1)), default=[1, 2],
                   dest="col_qubits")
    p.add_argument("--epsilon", type=_number(lambda v: v > 0.0, "finite and greater than 0"),
                   default=0.2)
    p.add_argument("--replications", type=_int_at_least(2), default=100,
                   help="at least 2, so the error variance is defined")
    p.add_argument("--snapshots", type=_int_at_least(SHADOW_GROUPS), default=None,
                   help="override the calibrated snapshot budget; at least one per "
                        "median-of-means group")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=_output_path("shadow_study.json"))
    p.set_defaults(func=cmd_shadow_study)

    p = sub.add_parser("resources", help="gate/qubit/shot-cost tables")
    p.add_argument("--rows-list", type=_list_of(_int_at_least(1)),
                   default=[16, 32, 64, 128, 256, 512, 1024], dest="rows_list")
    p.add_argument("--features", type=_int_at_least(1), default=6)
    p.add_argument("--bits", type=_int_at_least(1), default=8, help="digitization bits")
    p.add_argument("--gate-model", choices=resources.GATE_MODELS,
                   default=resources.GLOBAL_ANALOG, dest="gate_model")
    p.add_argument("--out", default=_output_path("resources.json"))
    p.add_argument("--table-csv", default=None, dest="table_csv")
    p.set_defaults(func=cmd_resources)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "backend", None) == "shots" and args.estimator == "one-hot" and args.shots < 3:
        parser.error(f"--shots must be at least 3 for the one-hot estimator, got {args.shots}")
    try:
        return args.func(args)
    except (TableFormatError, ZeroVarianceColumnError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConvergenceFailure, NelderMeadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
