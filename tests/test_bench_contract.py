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

To compare two checkouts on more operations than the contract pins, print
one SHA-256 per workload and seed over ops ``0 .. N-1`` without touching
``bench_contract.json``, in each checkout, and compare the lines.  Without
``N``, each workload takes its count from ``DIGEST_OPS``::

    PYTHONPATH=src python -m tests.test_bench_contract --digest --seeds 7,41
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
#: ops per workload that ``--digest`` hashes when no count is given
DIGEST_OPS = {"circuit-fit": 150, "ensemble": 60, "hw-estimate": 120}


def output_hashes(name: str, seed: int, ops) -> list:
    """SHA-256 of ``output()`` for each op in ``ops``; the working directory
    must be a scratch directory."""
    workload = workloads.WORKLOADS[name](seed, smoke=False)
    workload.setup()
    hashes = []
    for i in ops:
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
    got = {str(seed): output_hashes(name, seed, OPS) for seed in SEEDS}
    if versions() != contract["versions"]:
        pytest.skip(f"hashes recorded on {contract['versions']}, this build is {versions()}")
    assert got == contract["hashes"][name]


if __name__ == "__main__":
    import argparse
    import contextlib
    import io
    import tempfile

    parser = argparse.ArgumentParser(
        description="Rewrite bench_contract.json, or with --digest only print digests.")
    parser.add_argument("--digest", type=int, nargs="?", const=0, metavar="N",
                        help="print one SHA-256 per workload and seed over ops 0..N-1 "
                             "(without N: DIGEST_OPS) and leave the contract alone")
    parser.add_argument("--seeds", default=",".join(map(str, SEEDS)),
                        help="comma-separated seeds for --digest")
    parser.add_argument("--workloads", default=",".join(sorted(workloads.WORKLOADS)),
                        help="comma-separated workloads for --digest")
    cli = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        if cli.digest is not None:
            for workload_name in cli.workloads.split(","):
                count = cli.digest or DIGEST_OPS[workload_name]
                for seed in map(int, cli.seeds.split(",")):
                    with contextlib.redirect_stdout(io.StringIO()):  # the CLI's own lines
                        hashes = output_hashes(workload_name, seed, range(count))
                    joined = "".join(hashes)
                    digest = hashlib.sha256(joined.encode()).hexdigest()
                    print(f"{workload_name} seed {seed} ops 0-{count - 1}: {digest}")
            sys.exit(0)
        record = {"versions": versions(), "ops": list(OPS), "hashes": {
            workload_name: {str(seed): output_hashes(workload_name, seed, OPS) for seed in SEEDS}
            for workload_name in sorted(workloads.WORKLOADS)}}
    os.chdir(ROOT)
    with open(CONTRACT, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
