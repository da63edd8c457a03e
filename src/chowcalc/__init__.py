"""chowcalc: exact intersection theory on Grassmannian bundle towers.

Everything is integer-exact: sparse Z-polynomials with a global degree
truncation, Chern-class calculus, Gysin pushforwards pinned by classical
normalizations, and integer-lattice ideal arithmetic via echelon bases and
Smith normal forms.  The headline application is the verification pipeline for
the equivariant Chow ring of SO(4), exposed both as a library
(`so4pipeline.run`) and through the `chowcalc` command line tool.  The
pipeline evaluates the SO(4) script shipped in the package (`so4.chow`) with
the script language (`dsl`).

An import loads no layer, and a layer loads when a command runs:
`import chowcalc` and `import chowcalc.cli` compile no other chowcalc
module, each exported name but `__version__` loads its home module on first
use, and the command line loads the layers of the command it runs; the
lattice code, `zgraded`, loads with the first ideal or lattice built.
"""

__version__ = "0.1.0"

# The truncation degree when none is given: of every table, session and
# command.
DEFAULT_DEGREE_BOUND = 10

# exported name -> the module that defines it
_HOMES = {
    "ChowError": "polyring",
    "Poly": "polyring",
    "PolyError": "polyring",
    "GradedError": "polyring",
    "VarTable": "polyring",
    "Bundle": "chern",
    "BundleError": "chern",
    "GradedIdeal": "zgraded",
    "TowerError": "grasstower",
    "Report": "so4pipeline",
    "So4Pipeline": "so4pipeline",
    "run": "so4pipeline",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    # the call that `from .<home> import <name>` compiles to, so that
    # `-X importtime` lists the home module as it lists any other import
    return getattr(__import__(home, globals(), None, (name,), 1), name)
