"""The bytes the benchmark hashes, pinned in tier-1.

``bench/run.py`` hashes every operation's ``output()`` and compares the
digest with the parent commit's, so a change that moves one byte of it is
refused.  This test runs operations ``OPS`` of each workload at full size
and at each of ``SEEDS``, exactly as ``bench/worker.py`` does, asserts that
the workload's own oracle passes, and compares each output's SHA-256 with
``bench_contract.json``.  A hash has no tolerance, and another NumPy or BLAS
build can move the last bit of a trained weight, so on a build other than
the recorded one the comparison is skipped with the difference named.

Regenerate only in a change that moves the bench's outputs on purpose::

    PYTHONPATH=src python -m tests.test_bench_contract
"""
import hashlib
import json
import os
import sys

import pytest

from tests.golden.regenerate import versions

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

CONTRACT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_contract.json")
OPS = range(12)
SEEDS = (7, 29)


def output_hashes(name: str, seed: int) -> list:
    """SHA-256 of ``output()`` for each op in ``OPS``; the working directory
    must be a scratch directory."""
    workload = workloads.WORKLOADS[name](seed, smoke=False)
    workload.setup()
    hashes = []
    for i in OPS:
        inputs = workload.prepare(i)
        result = workload.run(inputs)
        assert workload.check(inputs, result) == [], f"{name} seed {seed} op {i}"
        hashes.append(hashlib.sha256(workload.output(inputs, result)).hexdigest())
    return hashes


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_bench_outputs_match_the_recorded_hashes(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    with open(CONTRACT, encoding="utf-8") as fh:
        contract = json.load(fh)
    got = {str(seed): output_hashes(name, seed) for seed in SEEDS}
    if versions() != contract["versions"]:
        pytest.skip(f"hashes recorded on {contract['versions']}, this build is {versions()}")
    assert got == contract["hashes"][name]


if __name__ == "__main__":
    import tempfile

    record = {"versions": versions(), "ops": list(OPS), "hashes": {}}
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for workload_name in sorted(workloads.WORKLOADS):
            record["hashes"][workload_name] = {
                str(seed): output_hashes(workload_name, seed) for seed in SEEDS}
    os.chdir(ROOT)
    with open(CONTRACT, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
