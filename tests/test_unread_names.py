"""The module-level functions and classes of chowcalc, and the methods and
properties of its classes, that no chowcalc code reads are exactly the ones
listed here.

A name counts as read when a module loads it, imports it or reads it as an
attribute, from outside its own definition and outside every definition
that is itself unread (so a helper that only unread code calls is unread
too).  Methods are matched by name alone: `Poly.degree` is read wherever
any `.degree` is.  The methods of an unread class are unread, and only the
class is listed.  Tests and the bench may still use the names below; the
library does not.  A new unread definition fails here, and the lists
shrink only by an edit.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "chowcalc")

# bench/tracing.py wraps each of these by name: the oracle of the wedge^2
# tests (`symmetric_reduce` and its three helpers; `RootSet`, its fourth, is
# read by the closed-form Gysin pushforward) and `series_invert`.
UNREAD = [
    "NotSymmetricError",
    "_swap_vars",
    "is_symmetric",
    "series_invert",
    "symmetric_reduce",
]

UNREAD_METHODS = [
    "GradedIdeal.equal",  # bench/tracing.py wraps it by name
    "Poly.graded_part",  # bench/tracing.py wraps it by name
    "VarTable.mono_degree",  # test oracle of the packed monomial keys
    "VarTable.monomials",  # test oracle: monomials as exponent tuples
    "VarTable.nvars",  # bench/gysin_sweep.py reads it
]


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _reads(nodes):
    """Names loaded, attributes read and names imported in the nodes."""
    reads = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.add(n.id)
            elif isinstance(n, ast.Attribute):
                reads.add(n.attr)
            elif isinstance(n, ast.alias):
                reads.add(n.name)
    return reads


def unread_names(sources):
    """Sorted unread definitions (dunders excluded) of the given module
    sources: module-level functions and classes by name, and the methods
    and properties of the read classes as `Class.method`."""
    statements = []  # (definitions it belongs to, names read)
    defined = {}  # definition -> the name that reads it
    for source in sources:
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                statements.append(((), _reads([node])))
                continue
            owners = () if _is_dunder(node.name) else (node.name,)
            defined.update((d, d) for d in owners)
            rest = [node] if isinstance(node, ast.FunctionDef) else (
                node.bases + node.keywords + node.decorator_list
            )
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        rest.append(item)
                        continue
                    method = ()
                    if not _is_dunder(item.name):
                        method = ("%s.%s" % (node.name, item.name),)
                        defined[method[0]] = item.name
                    reads = _reads([item]) - {item.name}
                    statements.append((owners + method, reads))
            statements.append((owners, _reads(rest) - {node.name}))
    unread = set()
    while True:
        read = set()
        for owners, reads in statements:
            if not unread.intersection(owners):
                read |= reads
        grown = {d for d, name in defined.items() if name not in read}
        if grown == unread:
            owner = {d: d.split(".")[0] for d in unread if "." in d}
            return sorted(d for d in unread if owner.get(d) not in unread)
        unread = grown


def library_sources():
    """{file name: source} of every module of the package."""
    sources = {}
    for f in sorted(os.listdir(SRC)):
        if f.endswith(".py"):
            with open(os.path.join(SRC, f)) as fh:
                sources[f] = fh.read()
    return sources


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


def test_scan_follows_methods():
    source = (
        "class A:\n"
        "    size = limit()\n"
        "    def read(self): return self.helper()\n"
        "    def helper(self): return self.helper()\n"
        "    def dead(self): return self.dead_helper()\n"
        "    def dead_helper(self): pass\n"
        "    @property\n"
        "    def prop(self): pass\n"
        "    def __len__(self): return 0\n"
        "class B:\n"
        "    def m(self): return f()\n"
        "def f(): pass\n"
        "def limit(): pass\n"
        "A().read()\n"
    )
    assert unread_names([source]) == [
        "A.dead", "A.dead_helper", "A.prop", "B", "f",
    ]
    assert unread_names([source, "x.prop\nB\n"]) == [
        "A.dead", "A.dead_helper", "B.m", "f",
    ]


TRUNCATED = (
    "def truncated(self, d):\n"
    "    below = (d + 1) << self.table.shift\n"
    "    return Poly(self.table, {k: c for k, c in self.terms.items() if k < below})\n"
)


def test_scan_finds_a_method_put_back_into_the_library():
    # Poly.truncated, which nothing read, restored in a copy of polyring
    sources = library_sources()
    before = unread_names(sources.values())
    tree = ast.parse(sources["polyring.py"])
    poly = next(
        n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Poly"
    )
    poly.body.append(ast.parse(TRUNCATED).body[0])
    sources["polyring.py"] = ast.unparse(tree)
    assert unread_names(sources.values()) == sorted(before + ["Poly.truncated"])


def test_unread_definitions_are_the_listed_ones():
    assert unread_names(library_sources().values()) == sorted(
        UNREAD + UNREAD_METHODS
    )
