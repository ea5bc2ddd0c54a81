"""Two invariants of the package source, checked on its syntax trees: it
imports nothing outside the standard library and itself, because it has
no runtime dependencies, and it never uses floats, because every value it
computes is exact."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "graevext").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"norms.py", "qpspace.py", "words.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_stdlib_or_package_only(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            assert top in sys.stdlib_module_names or top == "graevext", \
                f"{path.name}:{node.lineno} imports {module}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats(path):
    for node in ast.walk(_tree(path)):
        assert not (isinstance(node, ast.Constant)
                    and isinstance(node.value, (float, complex))), \
            f"{path.name}:{node.lineno} has the literal {node.value!r}"
        assert not (isinstance(node, ast.Name) and node.id == "float"), \
            f"{path.name}:{node.lineno} uses float"
