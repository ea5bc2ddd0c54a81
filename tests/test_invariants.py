"""Invariants of the package source, checked on its syntax trees: it
imports nothing outside the standard library and itself, because it has
no runtime dependencies; it never uses floats, because every value it
computes is exact; its front modules, ``__init__`` and ``cli``, load no
other module of the package until a name or a command needs it; and no
module imports ``dataclasses``, which with ``inspect`` would cost every
command line call its import and its class generation."""

import ast
import sys
from pathlib import Path

import pytest

import graevext

SOURCES = sorted((Path(__file__).parents[1] / "src" / "graevext").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"norms.py", "qpspace.py", "words.py"}


def _imports(path):
    """(line, module) for each absolute import in the source."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_stdlib_or_package_only(path):
    for line, module in _imports(path):
        top = module.split(".")[0]
        assert top in sys.stdlib_module_names or top == "graevext", \
            f"{path.name}:{line} imports {module}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    for line, module in _imports(path):
        assert module.split(".")[0] != "dataclasses", \
            f"{path.name}:{line} imports {module}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats(path):
    for node in ast.walk(_tree(path)):
        assert not (isinstance(node, ast.Constant)
                    and isinstance(node.value, (float, complex))), \
            f"{path.name}:{node.lineno} has the literal {node.value!r}"
        assert not (isinstance(node, ast.Name) and node.id == "float"), \
            f"{path.name}:{node.lineno} uses float"


@pytest.mark.parametrize("name", ["__init__.py", "cli.py"])
def test_front_modules_import_submodules_on_demand(name):
    path = next(p for p in SOURCES if p.name == name)
    for node in _tree(path).body:
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module == "errors", \
                f"{name}:{node.lineno} imports .{node.module or ''} at module level"
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("graevext") for a in node.names), \
                f"{name}:{node.lineno} imports the package at module level"


def test_star_import_binds_all():
    names = {}
    exec("from graevext import *", names)
    assert set(graevext.__all__) <= set(names) & set(dir(graevext))
    for name in graevext.__all__:
        assert names[name] is getattr(graevext, name)
