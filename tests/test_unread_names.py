"""The module-level functions and classes of chowcalc that no chowcalc code
reads are exactly the ones listed here.

A name counts as read when a module loads it, imports it or reads it as an
attribute, from outside its own definition and outside every definition
that is itself unread (so a helper that only unread code calls is unread
too).  Tests may still use the names below; the library does not.  A new
unread definition fails here, and the list shrinks only by an edit.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "chowcalc")

UNREAD = [
    "NotSymmetricError",
    "RootSet",
    "_swap_vars",
    "from_total",
    "is_symmetric",
    "parse_expr",
    "pretty_script",
    "series_invert",
    "symmetric_reduce",
    "trivial",
]


def unread_names(sources):
    """Sorted module-level function and class names (dunders excluded) of
    the given module sources that no read definition or statement reads."""
    statements = []  # (name defined or None, names read)
    defined = set()
    for source in sources:
        for node in ast.parse(source).body:
            name = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    defined.add(name)
            reads = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    reads.add(n.id)
                elif isinstance(n, ast.Attribute):
                    reads.add(n.attr)
                elif isinstance(n, ast.alias):
                    reads.add(n.name)
            reads.discard(name)
            statements.append((name, reads))
    unread = set()
    while True:
        read = set()
        for name, reads in statements:
            if name not in unread:
                read |= reads
        grown = defined - read
        if grown == unread:
            return sorted(unread)
        unread = grown


def test_scan_follows_calls_from_unread_code():
    source = (
        "def used(): return helper() + mod.attr_read()\n"
        "def helper(): return helper()\n"
        "def attr_read(): pass\n"
        "def dead(): return dead_helper()\n"
        "def dead_helper(): return C()\n"
        "class C:\n"
        "    def __init__(self): self.x = 1\n"
        "def __getattr__(name): pass\n"
        "used()\n"
    )
    assert unread_names([source]) == ["C", "dead", "dead_helper"]
    assert unread_names([source, "from m import dead\n"]) == []


def test_unread_definitions_are_the_listed_ones():
    sources = []
    for f in sorted(os.listdir(SRC)):
        if f.endswith(".py"):
            with open(os.path.join(SRC, f)) as fh:
                sources.append(fh.read())
    assert unread_names(sources) == UNREAD
