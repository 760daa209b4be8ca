"""Tests of the benchmark itself, on the tiny smoke sizes.

    python -m pytest bench
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc


def smoke(workload, seed, trace):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    records = {}
    for name in (run.WORKLOADS if workload == "all" else (workload,)):
        path = os.path.join(run.RUNS, f"record-{name}-seed{seed}-trace{trace}.json")
        with open(path, encoding="utf-8") as fh:
            records[name] = json.load(fh)
    return proc.stdout, result, records


def test_workload_names_agree():
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS


def test_smoke_runs_checks_and_repeats_digests():
    stdout, result, first = smoke("all", 11, 0)
    assert result["correct"] and result["failed"] == 0
    # every worker checks its warm-up and each timed operation
    per_workload = run.SETUP_SAMPLES + 3
    assert result["attempted"] == per_workload * len(run.WORKLOADS)
    lines = stdout.splitlines()
    for name in run.WORKLOADS:
        for metric, unit in run.END_TO_END_UNITS.items():
            assert any(line.startswith(f"{name} {metric} = ") and line.endswith(f" {unit}")
                       for line in lines)
            assert result["metrics"][f"{name}.{metric}"]["value"] > 0
        assert f"{name} failed_frac = 0 frac" in stdout

    _, _, again = smoke("all", 11, 0)
    _, _, other = smoke("all", 12, 0)
    for name in run.WORKLOADS:
        assert first[name]["digest"] == again[name]["digest"]
        assert first[name]["digest"]["sha256"] != other[name]["digest"]["sha256"]


def test_traced_run_confirms_layer_split():
    stdout, result, records = smoke("all", 13, 1)
    assert result["correct"]
    assert "tracing overhead" in stdout
    for name, record in records.items():
        layers = {fn.split(".")[0] for fn in record["functions_self_ms"]}
        assert set(record["per_layer"]) == set(run.PER_LAYER_UNITS)
        assert 0.9 < record["tracing"]["layer_share_of_op_time"] <= 1.0 + 1e-9
        if name == "ensemble":
            assert record["per_layer"]["statevector.calls"] == 0
            assert record["per_layer"]["encoders.calls"] == 0
            assert not layers & {"statevector", "encoders"}
            # fit() turns its cosines into phases, and simulates nothing
            circuit_fns = {fn for fn in record["functions_self_ms"] if fn.startswith("circuit.")}
            assert circuit_fns == {"circuit.phases_from_cosines"}
            assert record["per_layer"]["trainer.fits"] == 4
        if name == "circuit-fit":
            assert record["per_layer"]["trainer.fits"] == 1
            assert record["per_layer"]["circuit.regression_map_state.self_ms"] > 0
        if name == "hw-estimate":
            assert record["per_layer"]["trainer.fits"] == 0
            assert "trainer" not in layers
            assert record["per_layer"]["measurement.shots"] > 0


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_pass_on_real_outputs(scratch, name):
    workload = workloads.WORKLOADS[name](21, smoke=True)
    workload.setup()
    for i in range(2):
        inputs = workload.prepare(i)
        assert workload.check(inputs, workload.run(inputs)) == []


def test_checks_catch_wrong_outputs(scratch):
    ensemble = workloads.Ensemble(21, smoke=True)
    ensemble.setup()
    assert ensemble.check(ensemble.prepare(0), 5) == ["CLI exit code 5"]

    fit = workloads.CircuitFit(21, smoke=True)
    fit.setup()
    inputs = fit.prepare(0)
    assert fit.run(inputs) == 0
    inputs["rows"] = fit.prepare(1)["rows"]  # an oracle for other data
    assert fit.check(inputs, 0)

    hw = workloads.HwEstimate(21, smoke=True)
    hw.setup()
    inputs = hw.prepare(0)
    result = hw.run(inputs)
    for route in ("one_hot", "compact", "shadow"):
        parts = list(result[route])
        parts[-1] = dataclasses.replace(parts[-1], value=parts[-1].value + 1.0)
        failures = hw.check(inputs, {**result, route: tuple(parts)})
        assert len(failures) == 1 and failures[0].startswith(route.replace("_", "-"))


def test_tracer_rebinds_everywhere_and_restores(scratch):
    import vqreg.encoders
    import vqreg.statevector
    import vqreg.trainer

    original = vqreg.statevector.apply_controlled_diagonal_phase
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = vqreg.encoders.apply_controlled_diagonal_phase
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert vqreg.statevector.apply_controlled_diagonal_phase is wrapped
        assert vqreg.trainer.apply_regression_map.__wrapped__ is not None
        hw = workloads.HwEstimate(3, smoke=True)
        hw.setup()
        inputs = hw.prepare(0)
        hw.run(inputs)
        assert tracer.spans == []  # nothing is recorded outside an operation
        with tracer.operation(0):
            hw.run(inputs)
    finally:
        tracer.uninstall()
    assert vqreg.encoders.apply_controlled_diagonal_phase is original
    summary = tracer.summary()
    assert summary["ops"] == 1
    self_ms = sum(v for k, v in summary["metrics"].items() if k.endswith(".self_ms"))
    assert self_ms <= summary["op_ms"] + 1e-9
    assert summary["functions_self_ms"]["encoders.memory_free_compact"] > 0
    assert summary["metrics"]["statevector.amp_bytes"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "ensemble", "--seed", "1", "--seconds", "10", "--trace", "0",
                 cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
