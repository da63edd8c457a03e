"""chowcalc: exact intersection theory on Grassmannian bundle towers.

Everything is integer-exact: sparse Z-polynomials with a global degree
truncation, Chern-class calculus, Gysin pushforwards pinned by classical
normalizations, and integer-lattice ideal arithmetic via echelon bases and
Smith normal forms.  The headline application is the verification pipeline for
the equivariant Chow ring of SO(4), exposed both as a library
(`so4pipeline.run`) and through the `chowcalc` command line tool.  The
pipeline evaluates the SO(4) script shipped in the package (`so4.chow`) with
the script language (`dsl`), and is imported on first use of `Report`,
`So4Pipeline` or `run`.
"""

__version__ = "0.1.0"

from .polyring import ChowError, Poly, PolyError, VarTable
from .chern import Bundle, BundleError
from .zgraded import GradedIdeal, GradedError
from .grasstower import GradedRing, TowerError, extend, fiber_product, free_ring

__all__ = [
    "__version__",
    "ChowError",
    "Poly",
    "PolyError",
    "VarTable",
    "Bundle",
    "BundleError",
    "GradedIdeal",
    "GradedError",
    "GradedRing",
    "TowerError",
    "extend",
    "fiber_product",
    "free_ring",
    "Report",
    "So4Pipeline",
    "run",
]


def __getattr__(name):
    # The pipeline is loaded on first use, not by every import of chowcalc.
    if name in ("Report", "So4Pipeline", "run"):
        from . import so4pipeline

        return getattr(so4pipeline, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
