"""Static checks on the package source that need no linter installed."""

import ast
import importlib
import inspect
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rsolab"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Imported names that the module neither uses nor lists in __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used and name not in exported and name != "annotations"
    ]


def test_no_unused_imports():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if unused:
            found[path.name] = unused
    assert found == {}


def test_exported_names_resolve():
    # a name left in __all__ after its definition is deleted breaks
    # `from rsolab import *` and misleads readers of the public API
    missing = {}
    for path in sorted(SRC.glob("*.py")):
        name = "rsolab" if path.stem == "__init__" else f"rsolab.{path.stem}"
        module = importlib.import_module(name)
        unresolved = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if unresolved:
            missing[name] = unresolved
    assert missing == {}


def _relative_imports(tree: ast.Module) -> set[str]:
    """Sibling modules named by relative imports anywhere in the module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found |= {alias.name for alias in node.names}
            else:
                found.add(node.module.split(".")[0])
    return found


def test_package_imports_are_acyclic():
    # function-local imports count too: they only defer the cycle to call time
    deps = {
        path.stem: _relative_imports(ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(SRC.glob("*.py"))
    }
    try:
        TopologicalSorter(deps).prepare()
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))


def _import_time_modules(tree: ast.Module) -> list[str]:
    """Absolute imports that run when the module is imported, outside any function."""
    found = []
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(f"line {node.lineno}: {node.module}")
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_no_module_level_scipy_import():
    # importing SciPy costs about 0.25 s and 25 MB per process, so it is
    # imported inside the functions that compute with it; a top-level import
    # would put that cost back on every command
    planted = ast.parse("import numpy\nif True:\n    from scipy.special import k0e\ndef f():\n    import scipy\n")
    assert _import_time_modules(planted) == ["line 3: scipy.special", "line 1: numpy"]
    found = {}
    for path in sorted(SRC.glob("*.py")):
        top = _import_time_modules(ast.parse(path.read_text(), filename=str(path)))
        scipy = [entry for entry in top if entry.split(": ")[1].split(".")[0] == "scipy"]
        if scipy:
            found[path.name] = scipy
    assert found == {}


def _patched_names(tree: ast.Module) -> list[str]:
    """`rsolab.<module>.<attr>` for each `tracer.patch(<module>, "<attr>", ...)` call."""
    return [
        f"rsolab.{node.args[0].id}.{node.args[1].value}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "patch"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "tracer"
    ]


def _unresolved(names: list[str]) -> list[str]:
    missing = []
    for name in names:
        module, attr = name.rsplit(".", 1)
        if not hasattr(importlib.import_module(module), attr):
            missing.append(name)
    return missing


def test_traced_layer_names_resolve():
    # the traced benchmark run wraps these names; one the package no longer
    # has leaves its layer at 0 or its after-run check without input
    planted = ast.parse(
        'tracer.patch(field, "sample_rig", "a")\n'
        'tracer.wrap(f, "b")\n'
        'other.patch(stats, "c", "c")\n'
        'def main():\n    tracer.patch(field, "no_such_name", "d", work=None)\n'
    )
    found = _patched_names(planted)
    assert found == ["rsolab.field.sample_rig", "rsolab.field.no_such_name"]
    assert _unresolved(found) == ["rsolab.field.no_such_name"]
    traced = SRC.parent.parent / "perfbench" / "traced.py"
    names = _patched_names(ast.parse(traced.read_text(), filename=str(traced)))
    assert names
    assert _unresolved(names) == []


def _called_names(trees: list[ast.Module]) -> dict[str, set[str]]:
    """For each name, the functions whose bodies refer to it."""
    callers: dict[str, set[str]] = {}
    for tree in trees:
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, ast.Name):
                        callers.setdefault(node.id, set()).add(func.name)
    return callers


#: Public functions that nothing in the package calls, kept on purpose: the
#: README's library example, and the densities the tests hold the samplers to.
LIBRARY_ONLY = {"exact_field", "assemble", "count_eigenvalues_leq", "log_density", "rig_pdf"}


def test_every_public_function_has_a_caller():
    # a public function that no command or other function runs is code the
    # lab carries without using; tests alone do not count as a caller
    planted = ast.parse("def f():\n    return g()\ndef g():\n    return g()\ndef h():\n    pass\n")
    callers = _called_names([planted])
    assert callers["g"] == {"f", "g"} and "h" not in callers
    paths = sorted(SRC.glob("*.py"))
    callers = _called_names([ast.parse(path.read_text(), filename=str(path)) for path in paths])
    uncalled = []
    for path in paths:
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"rsolab.{path.stem}")
        uncalled += [
            f"{path.stem}.{name}"
            for name in getattr(module, "__all__", ())
            if inspect.isfunction(getattr(module, name))
            and name not in LIBRARY_ONLY
            and not callers.get(name, set()) - {name}
        ]
    assert uncalled == []
