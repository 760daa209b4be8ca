"""The committed CLI output contract: re-run ``tests/golden/regenerate.py``'s
list and compare every exit code, stderr text, warning and written file
with ``tests/golden/``.

Strings, integers, flags and nulls must match exactly.  Floats, in JSON and
in CSV cells, must match exactly on the NumPy and BLAS build the goldens
were recorded with, and to a relative ``FLOAT_RTOL`` on any other build.
"""
import csv
import json
import math
import os

from tests.golden.regenerate import GOLDEN_DIR, run_all

FLOAT_RTOL = 1e-12


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read(path: str):
    with open(path, encoding="utf-8") as fh:
        if path.endswith(".json"):
            return json.load(fh)
        return [[_cell(c) for c in row] for row in csv.reader(fh)]


def _deviation(got, want, where: str) -> float:
    """Worst relative float deviation between ``got`` and ``want``; raises
    AssertionError on any other difference."""
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, float):
        if got == want or (math.isnan(got) and math.isnan(want)):
            return 0.0
        dev = abs(got - want) / max(abs(got), abs(want))
        return dev if not math.isnan(dev) else math.inf
    if isinstance(want, dict):
        assert got.keys() == want.keys(), f"{where}: keys {sorted(got)} != {sorted(want)}"
        return max((_deviation(got[k], want[k], f"{where}.{k}") for k in want), default=0.0)
    if isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        return max((_deviation(g, w, f"{where}[{i}]") for i, (g, w) in
                    enumerate(zip(got, want))), default=0.0)
    assert got == want, f"{where}: {got!r} != {want!r}"
    return 0.0


def test_cli_outputs_match_the_goldens(tmp_path):
    with open(os.path.join(GOLDEN_DIR, "runs.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    work, out = tmp_path / "work", tmp_path / "out"
    work.mkdir()
    record = run_all(str(work), str(out))

    assert record["runs"].keys() == golden["runs"].keys()
    worst, worst_at = 0.0, None
    for name, want in golden["runs"].items():
        assert record["runs"][name] == want, name
        for f in want["files"]:
            dev = _deviation(_read(os.path.join(out, name, f)),
                             _read(os.path.join(GOLDEN_DIR, "out", name, f)), f"{name}/{f}")
            if dev > worst:
                worst, worst_at = dev, f"{name}/{f}"
    tol = 0.0 if record["versions"] == golden["versions"] else FLOAT_RTOL
    print(f"worst relative float deviation from the goldens: {worst!r}"
          + (f" in {worst_at}" if worst_at else ""))
    assert worst <= tol, f"{worst_at}: relative deviation {worst} > {tol}"
