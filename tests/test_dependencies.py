"""The package imports nothing at run time beyond the standard library and numpy."""

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
