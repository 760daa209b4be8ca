"""The benchmark's workloads, each a closed loop over vqreg's public API/CLI.

A workload runs operation ``i`` only after operation ``i - 1`` returned.  Its
inputs come from ``(seed, i)`` alone:

* ``prepare(i)`` makes the inputs of operation ``i`` (untimed);
* ``run(inputs)`` is the operation itself (timed, and traced in a traced run);
* ``output(inputs, result)`` gives the bytes that enter the result digest;
* ``check(inputs, result)`` is the oracle (untimed) and returns the list of
  failed checks, empty when the operation is correct.

Every workload works in the current directory, which the worker makes a
private scratch directory, so the CLI's echoed paths are the same on every
run.  ``smoke=True`` shrinks every size so that the benchmark's tests run in
seconds.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

import oracles
from vqreg import circuit, cli, data, encoders, measurement, statevector

TRUE_WEIGHTS = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
NOISE = 0.1
BATCH_SIZES = (10, 20, 40, 60, 100, 150)
SHOTS = 4096
READOUT_DELTA = 0.002
DIGITIZE_BITS = 8
SHADOW_COL_QUBITS = 2
SHADOW_EPSILON = 0.25
CIRCUIT_WEIGHT_TOL = 1e-6
#: chance that a correct hw-estimate operation fails one of its three checks
FALSE_FAILURE_PROB = 1e-6


@dataclass(frozen=True)
class Sizes:
    master_rows: int
    ensemble_batches: int
    fit_rows: int
    one_hot_rows: int
    one_hot_cols: int
    compact_rows: int


FULL = Sizes(master_rows=1024, ensemble_batches=32, fit_rows=60,
             one_hot_rows=4, one_hot_cols=4, compact_rows=128)
SMOKE = Sizes(master_rows=64, ensemble_batches=4, fit_rows=12,
              one_hot_rows=2, one_hot_cols=2, compact_rows=16)


def op_seed(seed: int, i: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, i, *path]).generate_state(1)[0])


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class _MasterTable:
    """Workloads built on the C04-shaped master table, written as CSV."""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.sizes = SMOKE if smoke else FULL

    def setup(self) -> None:
        spec = data.SyntheticSpec(self.sizes.master_rows, TRUE_WEIGHTS, NOISE, self.seed)
        self.master = data.generate_linear_synthetic(spec)
        data.save_csv("master.csv", self.master)

    def bootstrap_rows(self, i: int, size: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, i]))
        return self.master.values[rng.integers(0, self.master.num_rows, size=size)]

    @staticmethod
    def run_cli(argv: list) -> int:
        if os.path.exists("out.json"):
            os.remove("out.json")
        return cli.main(argv)

    @staticmethod
    def output(inputs: dict, rc: int) -> bytes:
        return _read("out.json") if rc == 0 else f"exit {rc}".encode()


class Ensemble(_MasterTable):
    """``vqreg ensemble`` over the master table; batch size cycles."""

    def prepare(self, i: int) -> dict:
        batch_size = BATCH_SIZES[i % len(BATCH_SIZES)]
        argv = ["ensemble", "--input", "master.csv",
                "--batches", str(self.sizes.ensemble_batches),
                "--batch-size", str(batch_size), "--seed", str(op_seed(self.seed, i)),
                "--out", "out.json"]
        return {"argv": argv, "batch_size": batch_size}

    def run(self, inputs: dict) -> int:
        return self.run_cli(inputs["argv"])

    def check(self, inputs: dict, rc: int) -> list:
        if rc != 0:
            return [f"CLI exit code {rc}"]
        payload = json.loads(_read("out.json"))
        failures = []
        if payload["failed_batches"] != 0:
            failures.append(f"{payload['failed_batches']} failed batches")
        if inputs["batch_size"] >= 60:
            dev = np.abs(np.array(payload["weights"]) - TRUE_WEIGHTS)
            limit = 3.0 * np.array(payload["standard_errors"])
            if not np.all(dev <= limit):
                failures.append(f"mean weights {payload['weights']} not within 3 SE "
                                f"{payload['standard_errors']} of {TRUE_WEIGHTS.tolist()}")
        return failures


class CircuitFit(_MasterTable):
    """``vqreg fit --backend circuit`` on one bootstrap batch."""

    def prepare(self, i: int) -> dict:
        rows = self.bootstrap_rows(i, self.sizes.fit_rows)
        data.save_csv("batch.csv", data.RawTable(rows, column_names=self.master.column_names))
        argv = ["fit", "--backend", "circuit", "--input", "batch.csv",
                "--seed", str(op_seed(self.seed, i)), "--out", "out.json"]
        return {"argv": argv, "rows": rows}

    def run(self, inputs: dict) -> int:
        return self.run_cli(inputs["argv"])

    def check(self, inputs: dict, rc: int) -> list:
        if rc != 0:
            return [f"CLI exit code {rc}"]
        got = np.array(json.loads(_read("out.json"))["weights_standardized"])
        want = oracles.lstsq_standardized_weights(inputs["rows"])
        err = float(np.max(np.abs(got - want)))
        if not err <= CIRCUIT_WEIGHT_TOL:
            return [f"standardized weights differ from lstsq by {err:.3e}"]
        return []


class HwEstimate(_MasterTable):
    """One model's cost on simulated hardware by every route: one-hot chain
    with grouped-Pauli shots, compact digitized with X-basis shots, and
    random-Pauli shadows on an exactly prepared compact table."""

    def setup(self) -> None:
        super().setup()
        self.pair_sums = oracles.one_hot_pair_sums(self.sizes.one_hot_rows,
                                                   self.sizes.one_hot_cols)
        self.snapshots = measurement.shadow_snapshot_budget(SHADOW_COL_QUBITS, SHADOW_EPSILON)

    def prepare(self, i: int) -> dict:
        s = self.sizes
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, i, 1]))
        shadow_cols = 1 << SHADOW_COL_QUBITS
        return {
            "one_hot_table": rng.uniform(-1.0, 1.0, size=(s.one_hot_rows, s.one_hot_cols)),
            "one_hot_cosines": np.concatenate(
                [[-1.0], rng.uniform(-1.0, 1.0, s.one_hot_cols - 1)]),
            "compact_rows": self.bootstrap_rows(i, s.compact_rows),
            "compact_cosines": np.concatenate(
                [[-1.0], rng.uniform(-1.0, 1.0, TRUE_WEIGHTS.size)]),
            "shadow_table": rng.uniform(-1.0, 1.0, size=(4, shadow_cols)),
            "seeds": [op_seed(self.seed, i, k) for k in range(3)],
        }

    def run(self, inputs: dict) -> dict:
        seeds = inputs["seeds"]
        table = data.standardize(data.RawTable(inputs["one_hot_table"]))
        one_hot = encoders.prepare_one_hot_chain(table)
        one_hot_state = circuit.regression_map_state(
            one_hot, circuit.phases_from_cosines(inputs["one_hot_cosines"]))
        one_hot_est = measurement.shot_estimate_one_hot(
            one_hot_state, one_hot.layout, SHOTS, READOUT_DELTA, seeds[0])

        table = data.standardize(data.RawTable(inputs["compact_rows"]))
        compact = encoders.memory_free_compact(data.digitize(table, DIGITIZE_BITS))
        compact_state = circuit.regression_map_state(
            compact, circuit.phases_from_cosines(inputs["compact_cosines"]))
        compact_est = measurement.shot_estimate_compact(
            compact_state, compact.layout, SHOTS, READOUT_DELTA, seeds[1])

        table = data.standardize(data.RawTable(inputs["shadow_table"]))
        exact = encoders.prepare_exact(table)
        config = measurement.ShadowConfig(self.snapshots, SHADOW_COL_QUBITS, seed=seeds[2])
        shadow_est = measurement.pauli_shadow_estimate(exact.state, exact.layout, config)
        return {
            "one_hot": (one_hot, one_hot_state, one_hot_est),
            "compact": (compact, compact_state, compact_est),
            "shadow": (exact, config, shadow_est),
        }

    @staticmethod
    def output(inputs: dict, result: dict) -> bytes:
        estimates = (result["one_hot"][2], result["compact"][2], result["shadow"][2])
        return repr([(float(e.value), float(e.std_error)) for e in estimates]).encode()

    def check(self, inputs: dict, result: dict) -> list:
        alpha = FALSE_FAILURE_PROB / 3.0
        failures = []

        def compare(route, value, centre, halfwidth):
            if not abs(value - centre) <= halfwidth:
                failures.append(f"{route} estimate {value!r} outside "
                                f"{centre!r} +- {halfwidth:.4g}")

        def attenuated_exact(prep, state):
            """Readout attenuation and the attenuated exact cost of the
            ancilla-0 block of the state the estimator sampled, normalized
            as the estimator's sampling normalizes it."""
            keep = measurement.readout_attenuation(
                READOUT_DELTA, measurement.measured_qubit_count(prep.layout))
            half = state.amplitudes.size // 2  # the ancilla is the top qubit
            psi0 = statevector.StateVector(
                state.num_qubits - 1, state.amplitudes[:half] / np.sqrt(state.norm_squared))
            return keep, keep * measurement.exact_expectation(psi0, prep.layout)

        prep, state, est = result["one_hot"]
        keep, centre = attenuated_exact(prep, state)
        compare("one-hot", est.value, centre,
                oracles.one_hot_halfwidth(state.amplitudes, self.pair_sums, keep, SHOTS, alpha))

        prep, state, est = result["compact"]
        _, centre = attenuated_exact(prep, state)
        compare("compact", est.value, centre,
                oracles.compact_halfwidth(centre, prep.layout.n_m, SHOTS, alpha))

        prep, config, est = result["shadow"]
        compare("shadow", est.value, measurement.exact_expectation(prep.state, prep.layout),
                oracles.shadow_halfwidth(prep.state.amplitudes, SHADOW_COL_QUBITS,
                                         config.snapshots, config.groups, alpha))
        return failures


WORKLOADS = {"ensemble": Ensemble, "circuit-fit": CircuitFit, "hw-estimate": HwEstimate}
