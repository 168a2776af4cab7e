"""Every exported name is reached by something other than an export list.

A name in a module's `__all__` counts as reached when it is used (as a
name, an attribute or an imported name) in a package module other than
`__init__.py`, in a demo, in the acceptance tests, in the benchmark's
microbenchmarks, or in the span targets of the benchmark's tracer.  Unit
tests do not count: code that only they reach is deleted with them.  Every
span target of the tracer must also still resolve on its module or class,
and every name the microbenchmarks import must still resolve on the package.
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


def targets(tree: ast.Module) -> tuple:
    """The (module, attribute, span name) entries of TARGETS."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return ()


def tracer_targets(tree: ast.Module) -> set[str]:
    """The attribute strings of TARGETS, split at the dots."""
    return {part for entry in targets(tree) for part in entry[1].split(".")}


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


def test_every_tracer_target_resolves():
    # a refactor that drops or renames a name the benchmark's tracer wraps
    # fails here, not in the traced benchmark run
    import importlib

    entries = targets(parse(ROOT / "bench" / "tracing.py"))
    missing = []
    for module_name, attr, _ in entries:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert entries and missing == []


def test_every_microbenchmark_import_resolves():
    # the benchmark's microbenchmarks import these names from the package;
    # a refactor that drops one fails here, not only in the benchmark's
    # own tests
    import kgz2d

    tree = parse(ROOT / "bench" / "micro.py")
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "kgz2d"
             for alias in node.names]
    assert names and [n for n in names if not hasattr(kgz2d, n)] == []
