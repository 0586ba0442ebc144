"""The package's import graph is a layering: every import sits at module
level, no module reaches itself through its imports, and neither solver
(``vqge``, ``fqge``) is imported by anything below the command line.  No
module reaches into another one's private names: it imports no underscore
name from the package, and reads no underscore attribute of an object
other than ``self`` or ``cls`` unless it defines that name itself.  The
package's ``__all__`` lists each public name ``__init__`` imports, once,
and every name it lists resolves on the package.  Every function it lists
has a caller outside the tests of its own behaviour: the package itself
(``__init__`` aside), a demo or the acceptance tests calls or imports it.
The dense oracle stays independent of LAPACK's eigensolvers: ``reference``
imports nothing from scipy and names numpy's ``eigvalsh`` only in its hint
helper, and no other of numpy's dense eigensolvers at all."""

import ast
import inspect
from pathlib import Path

import pytest

import geig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "geig"
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


def private_imports(tree: ast.Module) -> list:
    """``module.name`` of every underscore name imported from the package."""
    return [
        f"{node.module}.{a.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "geig")
        for a in node.names
        if a.name.startswith("_")
    ]


def called_or_imported(tree: ast.Module) -> set:
    """Every name a parsed module calls, as ``f(...)`` or ``obj.f(...)``, or
    imports by name; a plain attribute such as ``cfg.line_search`` is
    neither."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            out.add(node.func.id)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            out.add(node.func.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def defined_names(tree: ast.Module) -> set:
    """Every name a module binds: functions, classes, methods, assigned
    names and assigned attributes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add(node.attr)
    return out


def foreign_private_reads(tree: ast.Module) -> list:
    """(attribute, line) of every underscore attribute, dunders aside, read
    from an object other than ``self`` or ``cls`` that the module does not
    define."""
    own = defined_names(tree)
    return [
        (node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.endswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        and node.attr not in own
    ]


EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}


def eigensolver_uses(tree: ast.Module) -> list:
    """(enclosing function, name) of every name of numpy's dense
    eigensolvers a parsed module uses, as an attribute, a name or an
    import, and ``(function, "scipy")`` for every import of scipy; the
    module level is function ``None``."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr in EIGENSOLVERS:
                out.append((owner, child.attr))
            elif isinstance(child, ast.Name) and child.id in EIGENSOLVERS:
                out.append((owner, child.id))
            elif isinstance(child, ast.Import):
                out.extend((owner, "scipy") for a in child.names if a.name.split(".")[0] == "scipy")
            elif isinstance(child, ast.ImportFrom):
                if (child.module or "").split(".")[0] == "scipy":
                    out.append((owner, "scipy"))
                out.extend((owner, a.name) for a in child.names if a.name in EIGENSOLVERS)
            function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if function else owner)

    visit(tree, None)
    return out


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


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_private_name_is_imported_from_the_package(name):
    assert private_imports(TREES[name]) == []


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_private_attribute_of_another_module_is_read(name):
    assert foreign_private_reads(TREES[name]) == []


def test_the_private_name_checks_see_a_reach_in():
    tree = ast.parse(
        "from .pauli import _phase, apply_sum\n"
        "from geig.pencil import _B_FLOOR\n"
        "from numpy import _private_but_not_ours\n"
        "def f(pencil, self):\n"
        "    return pencil.A._action, self._own, pencil.__class__, g._kept\n"
        "def _kept(): pass\n"
    )
    assert private_imports(tree) == ["pauli._phase", "geig.pencil._B_FLOOR"]
    assert foreign_private_reads(tree) == [("_action", 5)]


def test_every_exported_name_resolves():
    missing = [name for name in geig.__all__ if not hasattr(geig, name)]
    assert missing == []
    assert len(set(geig.__all__)) == len(geig.__all__), "a name is listed twice"


def test_every_public_import_of_the_package_is_exported():
    imported = {
        a.asname or a.name
        for node in TREES["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
        if not (a.asname or a.name).startswith("_")
    }
    assert sorted(imported - set(geig.__all__)) == []


def test_the_caller_check_counts_calls_and_imports_only():
    tree = ast.parse(
        "from geig import run_fqge\n"
        "cfg = FqgeConfig(line_search=True)\n"
        "flag, value = cfg.line_search, summary['residual']\n"
        "pauli.apply_sum(s, v)\n"
    )
    assert called_or_imported(tree) == {"run_fqge", "FqgeConfig", "apply_sum"}


def test_every_exported_function_has_a_caller():
    users = [path for path in PACKAGE.glob("*.py") if path.stem != "__init__"]
    users += [*(ROOT / "demos").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    used = set().union(*(called_or_imported(ast.parse(path.read_text())) for path in users))
    functions = {name for name in geig.__all__ if inspect.isfunction(getattr(geig, name))}
    assert sorted(functions - used) == []


def test_the_oracle_asks_lapack_only_for_hints():
    """LAPACK only proposes where the oracle's bisection looks; its Sturm
    counts decide every value."""
    assert eigensolver_uses(TREES["reference"]) == [("_hints", "eigvalsh")]


def test_the_eigensolver_check_sees_each_form():
    tree = ast.parse(
        "import scipy.linalg\n"
        "from numpy.linalg import eigh\n"
        "def f(m):\n"
        "    from scipy import linalg\n"
        "    return np.linalg.eigvals(m), eig(m), m.eigenvalues\n"
    )
    assert eigensolver_uses(tree) == [
        (None, "scipy"),
        (None, "eigh"),
        ("f", "scipy"),
        ("f", "eigvals"),
        ("f", "eig"),
    ]
