"""Every exported name is reached by something other than an export list.

A name in a module's `__all__` counts as reached when it is used (as a
name, an attribute or an imported name) in a package module other than
`__init__.py`, in a demo, in the acceptance tests, in the benchmark's
microbenchmarks, or in the span targets of the benchmark's tracer.  Unit
tests do not count: code that only they reach is deleted with them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kgz2d"


def exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def used_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def tracer_targets(tree: ast.Module) -> set[str]:
    """The attribute strings of TARGETS, split at the dots."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            for entry in ast.literal_eval(node.value):
                names.update(entry[1].split("."))
    return names


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unreached() -> list[str]:
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    users = modules + sorted((ROOT / "demos").glob("*.py")) + [
        ROOT / "tests" / "test_acceptance.py", ROOT / "bench" / "micro.py"]
    reached = tracer_targets(parse(ROOT / "bench" / "tracing.py"))
    for path in users:
        reached |= used_names(parse(path))
    return [name for path in modules for name in exported(parse(path))
            if name not in reached]


def test_every_export_is_reached():
    assert unreached() == []
