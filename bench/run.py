"""Benchmark of vqreg: three closed-loop workloads driven through the public
API and CLI, one fresh process per measurement.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is ``ensemble``, ``circuit-fit``, ``hw-estimate`` or ``all``.  Run
from anywhere; the program is imported from ``src/`` beside this directory.

``--trace 0`` measures set-up in several fresh processes, then runs the
closed loop untraced and reports the end-to-end metrics.  ``--trace 1`` runs
the loop untraced and then traced, each for half of ``--seconds``, and
reports the per-layer metrics and the tracing overhead.  Every operation is checked
against an oracle outside the timed region, and every output enters a
SHA-256 digest that must repeat for the same seed (see README.md).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run records, span
files and digests are written under ``.bench_runs/`` at the repository root.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".bench_runs")
WORKLOADS = ("ensemble", "circuit-fit", "hw-estimate")
#: fresh processes whose set-up time enters the median ``setup_s``
SETUP_SAMPLES = 5
#: a run of one workload, every worker included, ends within this many seconds
TIME_LIMIT = 170.0
#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{f"{layer}.self_ms": "ms" for layer in
       ("trainer", "data", "cli", "circuit", "encoders", "measurement", "statevector")},
    **{f"{layer}.calls": "count" for layer in
       ("data", "circuit", "encoders", "measurement", "statevector")},
    "trainer.fits": "count", "trainer.cost_evals": "count", "trainer.restarts": "count",
    "trainer.nonconverged_frac": "frac", "measurement.shots": "count",
    "statevector.amp_bytes": "B_computed", "statevector.minflt": "count",
    "trainer.nelder_mead.self_ms": "ms", "circuit.regression_map_state.self_ms": "ms",
    "encoders.memory_free_compact.self_ms": "ms",
    "encoders.prepare_one_hot_chain.self_ms": "ms",
    "measurement.shot_estimate_one_hot.self_ms": "ms",
    "measurement.shot_estimate_compact.self_ms": "ms",
    "measurement.pauli_shadow_estimate.self_ms": "ms",
    "statevector.apply_controlled_diagonal_phase.self_ms": "ms",
}


class BenchError(RuntimeError):
    pass


def remaining(deadline):
    return max(0.0, deadline - time.monotonic())


def start_worker(workload, seed, seconds, trace, smoke, setup_only, deadline):
    """Run one worker; return its set-up seconds (from process start to its
    ``ready`` line) and its result."""
    os.makedirs(RUNS, exist_ok=True)
    result_path = os.path.join(RUNS, f"result-{workload}-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--result", result_path]
    cmd += ["--smoke"] * smoke + ["--setup-only"] * setup_only
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], remaining(deadline))
        line = proc.stdout.readline() if readable else ""
        setup_s = time.perf_counter() - start
        code = proc.wait(timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"{workload} worker failed (exit code {code})")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    return setup_s, result


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples beyond it, as
    ``(value, percentile, samples)``; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def digest(hashes):
    h = hashlib.sha256()
    for item in hashes:
        h.update(bytes.fromhex(item))
    return h.hexdigest()


def check_determinism(name, hashes, others):
    """Op indices whose output hash differs from another run of the same seed:
    the stored record of earlier runs in this checkout and ``others``."""
    os.makedirs(os.path.join(RUNS, "digests"), exist_ok=True)
    path = os.path.join(RUNS, "digests", f"{name}.json")
    stored = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    mismatched = set()
    for reference in [stored] + others:
        mismatched.update(i for i, (a, b) in enumerate(zip(hashes, reference)) if a != b)
    if len(hashes) > len(stored):
        tmp = path + f".{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(hashes, fh)
        os.replace(tmp, path)
    return sorted(mismatched)


def metadata():
    import numpy as np

    src = os.path.join(ROOT, "src")
    lines = 0
    content = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname), "rb") as fh:
                    text = fh.read()
                lines += text.count(b"\n")
                content.update(fname.encode() + text)
    try:
        # the ceiling keeps git from finding a repository above this checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, env=env).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "src_sha256": content.hexdigest(),
        "src_lines": lines,
    }


def blas_threads():
    """OpenBLAS's thread count, read from the library bundled with NumPy."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def measure(workload, seed, seconds, trace, smoke, deadline):
    """Run the workers of one workload and return its run record."""
    name = f"{workload}{'-smoke' if smoke else ''}-seed{seed}"
    setups = []
    results = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_s, result = start_worker(workload, seed, seconds, 0, smoke, True, deadline)
            setups.append(setup_s)
            results.append(result)
    # a traced run splits its measuring time between an untraced and a traced
    # worker, so that both kinds of run take about the same time
    loop_s = seconds / 2 if trace else seconds
    setup_s, untraced = start_worker(workload, seed, loop_s, 0, smoke, False, deadline)
    setups.append(setup_s)
    results.append(untraced)
    traced = None
    if trace:
        _, traced = start_worker(workload, seed, loop_s, 1, smoke, False, deadline)
        results.append(traced)

    attempted = sum(1 + len(r["hashes"]) for r in results)
    failures = []
    failed = 0
    for r in results:
        failures += [[0, f"warm-up: {f}"] for f in r["warmup_failures"]]
        failures += r["failures"]
        failed += bool(r["warmup_failures"]) + len({i for i, _ in r["failures"]})

    def flag(result, mismatched, what):
        nonlocal failed
        already = {i for i, _ in result["failures"]}
        for i in mismatched:
            failures.append([i, f"{what} output differs from another run with the same seed"])
            failed += i not in already

    hashes = untraced["hashes"]
    mismatched = set(check_determinism(name, hashes, [traced["hashes"]] if traced else []))
    if any(r["warmup_hash"] != hashes[0] for r in results):
        mismatched.add(0)
    flag(untraced, sorted(mismatched), "untraced")
    if traced:
        flag(traced, check_determinism(name, traced["hashes"], []), "traced")

    lat = untraced["latencies"]
    ops_per_s = len(lat) / sum(lat)
    tail_value, tail_pct, tail_n = tail(lat)
    record = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "digest": {"seed": seed, "ops": len(hashes), "sha256": digest(hashes)},
        "end_to_end": {
            "ops_per_s": ops_per_s,
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_tail_ms": 1e3 * tail_value,
            "op_tail_percentile": tail_pct,
            "op_tail_samples": tail_n,
            "peak_rss_mb": untraced["peak_rss_kb"] / 1024.0,
        },
    }
    if not trace:
        record["end_to_end"]["setup_s"] = statistics.median(setups)
        record["setup_samples_s"] = setups
    else:
        summary = traced["trace"]
        traced_ops_per_s = len(traced["latencies"]) / sum(traced["latencies"])
        functions = summary["functions_self_ms"]
        layers = {**summary["metrics"],
                  **{f"{fn}.self_ms": ms for fn, ms in functions.items()}}
        record["per_layer"] = {key: layers.get(key, 0.0) for key in PER_LAYER_UNITS}
        record["functions_self_ms"] = functions
        record["tracing"] = {
            "untraced_ops_per_s": ops_per_s,
            "traced_ops_per_s": traced_ops_per_s,
            "overhead_ops_per_s": traced_ops_per_s - ops_per_s,
            "layer_share_of_op_time": summary["layer_share"],
        }
    return record


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(record):
    """Human-readable lines for one workload's run record."""
    w = record["workload"]
    e = record["end_to_end"]
    out = [f"== {w} seed={record['seed']} ops={record['digest']['ops']} "
           f"digest={record['digest']['sha256'][:16]}"]
    if not record["trace"]:
        for key, unit in END_TO_END_UNITS.items():
            out.append(f"{w} {key} = {fmt(e[key])} {unit}")
        out.append(f"{w} op_tail_ms is p{e['op_tail_percentile']:.1f} "
                   f"of {e['op_tail_samples']} samples")
    out.append(f"{w} failed_frac = {fmt(record['failed_frac'])} frac "
               f"({record['failed']} of {record['attempted']} operations)")
    for i, msg in record["failures"][:10]:
        out.append(f"{w} FAILED op {i}: {msg}")
    if record["trace"]:
        for key, unit in PER_LAYER_UNITS.items():
            out.append(f"{w} {key} = {fmt(record['per_layer'][key])} {unit}")
        t = record["tracing"]
        out.append(f"{w} tracing overhead: {fmt(t['overhead_ops_per_s'])} ops/s "
                   f"(untraced {fmt(t['untraced_ops_per_s'])}, "
                   f"traced {fmt(t['traced_ops_per_s'])}); layer self times cover "
                   f"{100 * t['layer_share_of_op_time']:.1f}% of traced op time")
    return out


def result_line(records):
    """The final JSON line; metric names carry the workload prefix for ``all``."""
    metrics = {}
    for r in records:
        prefix = f"{r['workload']}." if len(records) > 1 else ""
        if r["trace"]:
            values, units = r["per_layer"], PER_LAYER_UNITS
        else:
            values, units = r["end_to_end"], END_TO_END_UNITS
        for key, unit in units.items():
            metrics[prefix + key] = {"value": values[key], "unit": unit}
    failed = sum(r["failed"] for r in records)
    return json.dumps({"correct": failed == 0,
                       "attempted": sum(r["attempted"] for r in records),
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and a fixed three operations, for the tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vqreg", "__init__.py")):
        print(f"error: no vqreg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT * len(names)
    meta = metadata()
    print("# " + json.dumps(meta, sort_keys=True))
    records = []
    try:
        for workload in names:
            record = measure(workload, args.seed, args.seconds, args.trace, args.smoke,
                             deadline)
            record["metadata"] = meta
            records.append(record)
            path = os.path.join(RUNS, f"record-{workload}-seed{args.seed}"
                                      f"-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
            print("\n".join(report(record)), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result_line(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
