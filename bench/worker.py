"""One benchmark process: set up a workload, run its warm-up operation, signal
``ready`` on stdout, check the warm-up, then (unless ``--setup-only``) run the
closed loop until the operations' own time reaches ``--seconds`` and write a
JSON result to ``--result``.

``run.py`` starts one fresh worker per measurement; run it directly only to
debug a workload.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_OPS = 3
#: a run stops after this many wall seconds per measured second, so that slow
#: oracles cannot stretch it past run.py's time limit
WALL_FACTOR = 4.0


class Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def run_one(workload, i: int, tracer) -> dict:
    """Prepare, time and check operation ``i``."""
    inputs = workload.prepare(i)
    error = None
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(inputs)
        else:
            with tracer.operation(i):
                result = workload.run(inputs)
    except Exception as exc:  # a failed operation is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if error is None:
        output = workload.output(inputs, result)
        failures = workload.check(inputs, result)
    else:
        output = error.encode()
        failures = [error]
    return {"latency": latency, "hash": hashlib.sha256(output).hexdigest(),
            "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from tracer import Tracer

    result_path = os.path.abspath(args.result)
    workdir = os.path.join(ROOT, ".bench_runs", "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    os.chdir(workdir)
    protocol = sys.stdout
    sys.stdout = Discard()  # the CLI's progress lines
    try:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
        workload.setup()
        records = [run_one(workload, 0, None)]
        protocol.write("ready\n")
        protocol.flush()

        if not args.setup_only:
            measured = 0.0
            deadline = time.monotonic() + WALL_FACTOR * args.seconds + 30.0
            i = 0
            while True:
                record = run_one(workload, i, tracer)
                records.append(record)
                measured += record["latency"]
                i += 1
                if args.smoke:
                    if i >= SMOKE_OPS:
                        break
                elif measured >= args.seconds or time.monotonic() > deadline:
                    break

        out = {
            "warmup_hash": records[0]["hash"],
            "warmup_failures": records[0]["failures"],
            "latencies": [r["latency"] for r in records[1:]],
            "hashes": [r["hash"] for r in records[1:]],
            "failures": [[i, f] for i, r in enumerate(records[1:]) for f in r["failures"]],
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "trace": None,
        }
        if tracer is not None:
            tracer.uninstall()
            out["trace"] = tracer.summary()
            tracer.write(os.path.join(ROOT, ".bench_runs",
                                      f"spans-{args.workload}-seed{args.seed}.jsonl"))
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)
    finally:
        sys.stdout = protocol
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
