"""The package's import graph is a layering: every import sits at module
level, no module reaches itself through its imports, and neither solver
(``vqge``, ``fqge``) is imported by anything below the command line."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "geig"
SOLVERS = {"vqge", "fqge"}
FRONT = {"cli", "__init__"}


def package_imports(tree: ast.Module) -> set:
    """The modules of the package that a parsed module imports, anywhere:
    ``from .mod import x``, ``from . import mod``, ``import geig.mod`` and
    ``from geig(.mod) import x``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("geig."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "geig":
                continue
            parts = module.split(".")[1:] if node.level == 0 else module.split(".")
            out.update([parts[0]] if parts and parts[0] else [a.name for a in node.names])
    return out


def function_imports(tree: ast.Module) -> list:
    """(function name, line) of every import inside a function body."""
    return [
        (fn.name, node.lineno)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
GRAPH = {name: package_imports(tree) for name, tree in TREES.items()}


def test_the_modules_are_all_found():
    assert {"pencil", "pauli", "statevector", "vqge", "fqge", "reference", "cli"} <= set(TREES)
    assert GRAPH["vqge"] >= {"pencil", "pauli"}, "the parse found the solver's imports"


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_import_inside_a_function(name):
    assert function_imports(TREES[name]) == []


def test_the_import_graph_has_no_cycle():
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError(f"import cycle: {' -> '.join(path[path.index(name) :] + [name])}")
        if name in done:
            return
        path.append(name)
        for dep in sorted(GRAPH.get(name, ())):
            visit(dep)
        path.pop()
        done.add(name)

    for name in sorted(GRAPH):
        visit(name)


def test_only_the_front_end_imports_a_solver():
    importers = {name for name, deps in GRAPH.items() if deps & SOLVERS}
    assert importers <= FRONT, sorted(importers - FRONT)


def test_the_solvers_and_the_cli_import_the_pencil_module():
    for name in ("vqge", "fqge", "cli"):
        assert "pencil" in GRAPH[name], name
    assert GRAPH["pencil"] & (SOLVERS | {"reference", "cli"}) == set()
