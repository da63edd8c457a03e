"""Every name a chowcalc module imports is read somewhere in that module,
and every module it imports comes with Python."""

import ast
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "chowcalc")
MODULES = sorted(
    f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py"
)


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_finds_an_unused_import():
    source = "from x import a, b\nimport os.path\nprint(a)\n"
    assert unused_imports(source) == [(1, "b"), (2, "os")]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_imported_name(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []


def absolute_imports(source):
    """The top-level package of each absolute import in a module source."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_scan_finds_absolute_imports_only():
    source = (
        "import os.path, json\nfrom . import dsl\nfrom .polyring import Poly\n"
        "from collections import abc\n\ndef f():\n    import numpy\n"
    )
    assert absolute_imports(source) == {"os", "json", "collections", "numpy"}


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_module_imports_only_the_standard_library(module):
    with open(os.path.join(SRC, module)) as fh:
        outside = absolute_imports(fh.read()) - sys.stdlib_module_names
    assert outside == set()
