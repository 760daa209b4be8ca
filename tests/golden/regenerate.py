"""Regenerate the committed CLI output contract in this directory.

Usage, from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

Every entry of ``RUNS`` is one ``vqreg`` command.  The commands run in order,
in-process, in one scratch directory and with relative paths, so that the
paths echoed into ``config_echo`` do not depend on where they ran; later
commands read the tables earlier ``generate`` commands wrote.  For each run,
``runs.json`` records its exit code, its stderr text, the warnings it raised
and the files it wrote or rewrote, which are copied to ``out/<run>/``.
``runs.json`` also records the NumPy and BLAS versions, because another
build can move the last bits of a trained weight.  ``tests/test_golden.py``
re-runs the list and compares.  Regenerate only in a change that moves
outputs on purpose, and say there which numbers moved and why.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import warnings

import numpy as np

from vqreg.cli import main

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))
FIT_TABLE = ("--input", "fit.csv")
C04_TABLE = ("--input", "c04.csv", "--batches", "32")

#: (name, argv)
RUNS = (
    ("gen-fit", ["generate", "--rows", "40", "--weights", "0.5,-1.5,2",
                 "--noise", "0.1", "--seed", "3", "--out", "fit.csv"]),
    ("gen-noisy", ["generate", "--rows", "64", "--weights", "1,2",
                   "--noise", "0.1", "--seed", "5", "--out", "noisy.csv"]),
    ("gen-tiny", ["generate", "--rows", "4", "--weights", "0.8",
                  "--noise", "0.1", "--seed", "2", "--out", "tiny.csv"]),
    ("gen-c04", ["generate", "--rows", "1024", "--weights", "1,2,3,4,5,6",
                 "--noise", "0.1", "--seed", "7", "--out", "c04.csv"]),
    ("fit-analytic", ["fit", *FIT_TABLE, "--out", "fit-analytic.json"]),
    ("fit-l1-raw", ["fit", *FIT_TABLE, "--l1", "1e-3", "--no-equalize",
                    "--out", "fit-l1-raw.json"]),
    ("fit-l2", ["fit", *FIT_TABLE, "--l2", "1e-3", "--out", "fit-l2.json"]),
    ("fit-circuit", ["fit", *FIT_TABLE, "--backend", "circuit", "--out", "fit-circuit.json"]),
    ("fit-shots", ["fit", "--input", "noisy.csv", "--backend", "shots",
                   "--out", "fit-shots.json"]),
    ("fit-shots-one-hot", ["fit", "--input", "tiny.csv", "--backend", "shots",
                           "--estimator", "one-hot", "--out", "fit-shots-one-hot.json"]),
    ("ensemble", ["ensemble", *C04_TABLE, "--batch-size", "60", "--seed", "3",
                  "--out", "ensemble.json", "--per-batch-csv", "ensemble-batches.csv"]),
    ("ensemble-jobs", ["ensemble", *C04_TABLE, "--batch-size", "60", "--seed", "3",
                       "--jobs", "2", "--out", "ensemble-jobs.json",
                       "--per-batch-csv", "ensemble-jobs-batches.csv"]),
    ("ensemble-penalized", ["ensemble", *C04_TABLE, "--batch-size", "20", "--l1", "1e-3",
                            "--l2", "1e-3", "--out", "ensemble-penalized.json"]),
    ("sin-demo", ["sin-demo", "--out", "sin-demo.json", "--curve-csv", "sin-demo-curve.csv"]),
    ("noise-sweep", ["noise-sweep", "--rows", "128", "--batches", "8",
                     "--batch-sizes", "10,60", "--out", "noise-sweep.json",
                     "--table-csv", "noise-sweep-table.csv"]),
    ("shadow-study", ["shadow-study", "--col-qubits", "1,2", "--replications", "20",
                      "--out", "shadow-study.json"]),
    ("resources", ["resources", "--out", "resources.json",
                   "--table-csv", "resources-table.csv"]),
)


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _snapshot() -> dict:
    files = {}
    for name in os.listdir("."):
        with open(name, "rb") as fh:
            files[name] = fh.read()
    return files


def run_all(workdir: str, keep: str) -> dict:
    """Run ``RUNS`` in ``workdir``, copy the files each run writes to
    ``keep/<run>/``, and return what ``runs.json`` records."""
    records = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in RUNS:
            before = _snapshot()
            stderr = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(stderr), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                code = main(list(argv))
            after = _snapshot()
            written = sorted(f for f, data in after.items() if before.get(f) != data)
            os.makedirs(os.path.join(keep, name))
            for f in written:
                with open(os.path.join(keep, name, f), "wb") as fh:
                    fh.write(after[f])
            records[name] = {
                "argv": argv,
                "exit_code": code,
                "stderr": stderr.getvalue(),
                "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
                "files": written,
            }
    finally:
        os.chdir(cwd)
    return {"versions": versions(), "runs": records}


def main_regenerate() -> None:
    out_dir = os.path.join(GOLDEN_DIR, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    with tempfile.TemporaryDirectory() as workdir:
        record = run_all(workdir, keep=out_dir)
    with open(os.path.join(GOLDEN_DIR, "runs.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(record['runs'])} runs to {GOLDEN_DIR}", file=sys.stderr)


if __name__ == "__main__":
    main_regenerate()
