"""Guard against public library code that only tests use.

Every public top-level function or class of ``src/vqreg`` must be referenced
somewhere in ``src/`` or ``bench/`` other than its own definition and the
package ``__init__``.  A reference is a name, an attribute or an imported
name in the syntax tree, so docstrings and comments do not count; tests do
not count either.  ``ALLOWED`` lists the helpers that stay public without
a caller, each because a paper claim or an acceptance criterion rests on it.

Every private top-level function or class (``_name``) of ``src/vqreg``
must also be referenced in ``src/`` or ``bench/``, so that no copy of
library code that only a test calls can stay behind under a private name.

Every public method, property and dataclass field of a ``src/vqreg`` class
must likewise be read as an attribute (``obj.name``) somewhere in ``src/``
or ``bench/``.  ``ALLOWED_MEMBERS`` lists the exceptions: a class name
excuses all of its members, ``Class.member`` one member.  The match is by
name only, so it cannot see an unread member whose name another class's
read member shares (say a ``seed`` field beside a read ``config.seed``).
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vqreg"

ALLOWED = {
    "phases_to_weights": "the readout W_m = -cos(phi_m)/cos(phi_0) the paper's claim rests on",
    "analytic_gradient": "the gradient C09 checks against central differences",
    "operator_identity_check": "C02's arbitration of the two closures of M_hat^2",
    "required_shots": "C02's Bernstein shot budgets under both variance formulas",
    "prepare_compact_with_memory": "the gate-level memory-driven oracle of the fused compact layer",
}

ALLOWED_MEMBERS = {
    "ShotBudget": "C02 reads both shot budgets and both variances",
    "OperatorIdentityReport": "C02 reads the dense operator, its square and both deviations",
    "ResourceEstimate": "cmd_resources writes every field out with vars()",
    "ShadowConfig.locality": "bench/workloads.py passes it positionally",
}


def _top_level_definitions(private: bool) -> dict:
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private):
                defs[node.name] = path.name
    return defs


def _public_definitions() -> dict:
    return _top_level_definitions(private=False)


def _public_members() -> dict:
    """``{"Class.member": module}`` for the public methods, properties and
    annotated fields of every top-level class."""
    members = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    members[f"{node.name}.{name}"] = path.name
    return members


def _sources() -> list:
    return sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _read_attributes() -> set:
    return {node.attr for path in _sources()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _member_allowed(member: str) -> bool:
    return member in ALLOWED_MEMBERS or member.split(".")[0] in ALLOWED_MEMBERS


def _referenced_names() -> set:
    names = set()
    for path in _sources():
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


def test_every_private_helper_has_a_caller_outside_the_tests():
    referenced = _referenced_names()
    unused = sorted(f"{module}:{name}" for name, module in
                    _top_level_definitions(private=True).items() if name not in referenced)
    assert not unused, f"private code that nothing but tests calls: {unused}"


def test_allowlisted_helpers_exist_and_still_need_the_allowance():
    defs, referenced = _public_definitions(), _referenced_names()
    assert all(name in defs and name not in referenced for name in ALLOWED)


def test_every_public_member_is_read_outside_the_tests():
    read = _read_attributes()
    unread = sorted(f"{module}:{member}" for member, module in _public_members().items()
                    if member.split(".")[1] not in read and not _member_allowed(member))
    assert not unread, f"public members that nothing but tests reads: {unread}"


def test_allowlisted_members_exist_and_still_need_the_allowance():
    members, read = _public_members(), _read_attributes()
    for entry in ALLOWED_MEMBERS:
        covered = [m for m in members if m == entry or m.split(".")[0] == entry]
        assert covered, f"{entry} names no public member"
        assert any(m.split(".")[1] not in read for m in covered), f"{entry} is read"
