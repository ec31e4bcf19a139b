"""The package imports nothing at run time beyond the standard library and numpy,
and computes nothing with numpy at import."""

import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "ratbound").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def imported_roots(tree):
    """Top-level module names of every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = sorted(set(imported_roots(tree)) - ALLOWED)
    assert not outside, f"{path.name} imports {outside}"


def numpy_calls(node):
    """Calls of np.* or numpy.* in the tree, e.g. np.exp(...) or numpy.random.default_rng()."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            root = sub.func
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in ("np", "numpy") and root is not sub.func:
                yield sub


def decorator_calls(stmt):
    """A decorator is called at import, so a bare @np.vectorize counts as np.vectorize()."""
    return [d if isinstance(d, ast.Call) else ast.Call(d, [], []) for d in stmt.decorator_list]


def import_time_nodes(body):
    """What runs at import: every module-level statement and class body, but of a
    function only its decorators and default values, never its body."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from decorator_calls(stmt)
            yield from stmt.args.defaults
            yield from (d for d in stmt.args.kw_defaults if d is not None)
        elif isinstance(stmt, ast.ClassDef):
            yield from decorator_calls(stmt) + stmt.bases + [kw.value for kw in stmt.keywords]
            yield from import_time_nodes(stmt.body)
        else:
            yield stmt


def import_time_numpy_calls(source):
    return [ast.unparse(call) for node in import_time_nodes(ast.parse(source).body) for call in numpy_calls(node)]


def test_import_time_rule_sees_every_kind_of_site():
    source = (
        "import numpy as np\n"
        "TABLE = np.exp(1j * np.arange(4))\n"
        "@np.vectorize\n"
        "def f(x, y=np.zeros(2)):\n"
        "    return np.sin(x)\n"
        "class C:\n"
        "    A = numpy.ones(3)\n"
        "    def g(self):\n"
        "        return np.cos(1.0)\n"
        "PI = np.pi\n"
    )
    assert import_time_numpy_calls(source) == [
        "np.exp(1j * np.arange(4))", "np.arange(4)", "np.vectorize()", "np.zeros(2)", "numpy.ones(3)"
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_nothing_is_computed_with_numpy_at_import(path):
    # Importing the package must not build tables: work done at import is paid
    # by every CLI run, whether or not it needs the table.
    calls = import_time_numpy_calls(path.read_text(encoding="utf-8"))
    assert not calls, f"{path.name} calls numpy at import: {calls}"
