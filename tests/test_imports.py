"""Every name a chowcalc module imports is read somewhere in that module,
every module it imports comes with Python, and only `polyring` knows the
layout of the packed monomial key."""

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


def test_every_exported_name_resolves():
    # a stale name raises AttributeError; every name but __version__ is
    # loaded lazily, on first use
    import chowcalc

    for name in chowcalc.__all__:
        getattr(chowcalc, name)
    namespace = {}
    exec("from chowcalc import *", namespace)
    assert set(chowcalc.__all__) <= namespace.keys()


# The packed monomial key's layout: see the `polyring` module docstring.
KEY_LAYOUT = {"offsets", "mask", "shift", "bits", "limit"}


def key_layout_reads(source):
    """(line, name) of each use of a key-layout attribute, and of each
    import of `_exponents`, in a module source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in KEY_LAYOUT:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name == "_exponents"]
    return sorted(found)


def private_imports(source, modules):
    """Underscore names a module source imports from the sibling `modules`."""
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        and node.module in modules
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_scans_find_key_layout_reads_and_private_imports():
    source = (
        "from .polyring import _exponents, _text, Poly\nfrom .zgraded import _split\n"
        "def f(t, p):\n    t.mask = 1\n    return t.shift + p.table.offsets[0]\n"
    )
    assert key_layout_reads(source) == [
        (1, "_exponents"), (4, "mask"), (5, "offsets"), (5, "shift")
    ]
    assert private_imports(source, {"zgraded"}) == ["_split"]
    assert private_imports(source, {"polyring", "zgraded"}) == ["_exponents", "_split", "_text"]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if m != "polyring.py"] + ["__init__.py"]
)
def test_only_polyring_reads_the_key_layout(module):
    with open(os.path.join(SRC, module)) as fh:
        assert key_layout_reads(fh.read()) == []


def test_grasstower_imports_no_private_name_of_the_layers_below():
    with open(os.path.join(SRC, "grasstower.py")) as fh:
        assert private_imports(fh.read(), {"polyring", "zgraded"}) == []


def test_dsl_imports_no_private_name_of_the_layers_below():
    with open(os.path.join(SRC, "dsl.py")) as fh:
        source = fh.read()
    assert private_imports(source, {"polyring", "chern", "zgraded", "grasstower"}) == []
