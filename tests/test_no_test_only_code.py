"""Guard against public library code that only tests use.

Every public top-level function or class of ``src/vqreg`` must be referenced
somewhere in ``src/`` or ``bench/`` other than its own definition and the
package ``__init__``.  A reference is a name, an attribute or an imported
name in the syntax tree, so docstrings and comments do not count; tests do
not count either.  ``ALLOWED`` lists the helpers that stay public without
a caller, each because a paper claim or an acceptance criterion rests on it.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vqreg"

ALLOWED = {
    "phases_to_weights": "the readout W_m = -cos(phi_m)/cos(phi_0) the paper's claim rests on",
    "analytic_cost": "the closed-form cost of the README's library quick start",
    "analytic_gradient": "the gradient C09 checks against central differences",
    "operator_identity_check": "C02's arbitration of the two closures of M_hat^2",
    "required_shots": "C02's Bernstein shot budgets under both variance formulas",
    "prepare_compact_with_memory": "the gate-level memory-driven oracle of the fused compact layer",
}


def _public_definitions() -> dict:
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[node.name] = path.name
    return defs


def _referenced_names() -> set:
    names = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_helper_has_a_caller_outside_the_tests():
    referenced = _referenced_names()
    unused = sorted(f"{module}:{name}" for name, module in _public_definitions().items()
                    if name not in referenced and name not in ALLOWED)
    assert not unused, f"public code that nothing but tests calls: {unused}"


def test_allowlisted_helpers_exist_and_still_need_the_allowance():
    defs, referenced = _public_definitions(), _referenced_names()
    assert all(name in defs and name not in referenced for name in ALLOWED)
