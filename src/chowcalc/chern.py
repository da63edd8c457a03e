"""Formal vector bundle calculus: Chern classes and degeneracy loci.

Bundles are purely formal: a rank plus a truncated total Chern class over a
shared variable table.  Duals, determinants and line twists are computed by
closed formulas from the splitting principle; exterior squares by Newton's
identities, from power sums of the roots to power sums of their pairwise
sums and back; Whitney quotients by truncated series division; degeneracy
classes by the Thom-Porteous determinant.
"""

from __future__ import annotations

from math import comb

from .polyring import ChowError, Poly, VarTable, poly_det, series_parts, sum_of_products


class BundleError(ChowError):
    pass


class InconsistentSequenceError(BundleError):
    """Whitney division produced nonzero classes above the quotient rank."""


class Bundle:
    """Formal bundle: rank plus Chern classes c_0=1, c_1, ..., c_rank."""

    __slots__ = ("rank", "chern")

    def __init__(self, rank, chern, check=True):
        if rank < 0:
            raise BundleError("rank must be nonnegative")
        chern = list(chern)
        if not chern:
            raise BundleError("need at least c_0")
        table = chern[0].table
        bound = table.degree_bound
        if len(chern) < rank + 1:
            chern = chern + [table.zero()] * (rank + 1 - len(chern))
        if len(chern) > rank + 1:
            raise BundleError("more Chern classes than the rank allows")
        if check:
            if chern[0] != table.one():
                raise BundleError("c_0 must be 1")
            for i, ci in enumerate(chern[1:], start=1):
                if ci.table != table:
                    raise BundleError("Chern classes over different tables")
                if i > bound and not ci.is_zero():
                    raise BundleError(
                        "a nonzero c_%d needs a degree bound >= %d" % (i, i)
                    )
                if not ci.is_zero() and not (ci.is_homogeneous() and ci.degree() == i):
                    raise BundleError("c_%d must be homogeneous of degree %d" % (i, i))
        self.rank = rank
        self.chern = tuple(chern)

    @property
    def table(self):
        return self.chern[0].table

    def c(self, i):
        """Chern class c_i (zero above the rank or the degree bound)."""
        if i < 0:
            raise BundleError("negative Chern index")
        if i > self.rank:
            return self.table.zero()
        return self.chern[i]

    def total(self):
        terms = {}  # c_i has degree i: no two classes share a key
        for ci in self.chern:
            terms.update(ci.terms)
        return Poly(self.table, terms)

    def __eq__(self, other):
        if not isinstance(other, Bundle):
            return NotImplemented
        return self.rank == other.rank and self.chern == other.chern

    def __repr__(self):
        return "Bundle(rank=%d, c=%s)" % (self.rank, self.total())


def trivial(table, rank):
    return Bundle(rank, [table.one()])


def line(cls1):
    """Line bundle with the given first Chern class (homogeneous, degree 1)."""
    table = cls1.table
    if not cls1.is_zero() and not (cls1.is_homogeneous() and cls1.degree() == 1):
        raise BundleError("a line class must be homogeneous of degree 1")
    return Bundle(1, [table.one(), cls1])


def from_total(rank, total):
    """Bundle with the given truncated total class (graded parts become c_i)."""
    table = total.table
    parts = total.graded_parts()
    chern = [
        parts.get(d, table.zero()) for d in range(min(rank, table.degree_bound) + 1)
    ]
    return Bundle(rank, chern)


def dual(E):
    """c_i(E*) = (-1)^i c_i(E)."""
    chern = [ci if i % 2 == 0 else -ci for i, ci in enumerate(E.chern)]
    return Bundle(E.rank, chern, check=False)


def determinant(E):
    """Top exterior power: the line bundle with class c_1(E)."""
    return line(E.c(1))


def tensor_line(E, ell):
    """Twist by a line bundle with first Chern class `ell`.

    c_i(E (x) L) = sum_j binom(rank - j, i - j) c_j(E) ell^(i-j).
    """
    table = E.table
    if isinstance(ell, int):
        ell = table.const(ell)
    if not ell.is_zero() and not (ell.is_homogeneous() and ell.degree() == 1):
        raise BundleError("twisting class must be homogeneous of degree 1")
    r = E.rank
    powers = [table.one()]
    for _ in range(r):
        powers.append(powers[-1] * ell)
    return Bundle(r, [table.one()] + [
        sum_of_products(table, [(comb(r - j, i - j), E.chern[j], powers[i - j])
                                for j in range(i + 1)])
        for i in range(1, r + 1)
    ])


# Universal exterior-square classes, cached per (rank, degree) in the
# elementary symmetric basis, computed by Newton's identities.
_WEDGE2_CACHE = {}


def _wedge2_universal(n, up_to):
    """(e_table, e_names, [c_1, ..., c_k]) for k = min(C(n, 2), up_to): the
    Chern classes of the exterior square of a rank-n bundle as polynomials
    in its Chern classes e_1..e_n (variables of e_table, of degrees 1..n).

    With x_1..x_n the roots, Newton's identities (Macdonald, Symmetric
    Functions and Hall Polynomials, I.2) give the power sums p_k of the
    roots from the e_i; the power sums of the pairwise sums x_i + x_j are

        P_k = (sum_m C(k, m) p_m p_(k-m) - 2^k p_k) / 2,   p_0 = n,

    and Newton's identities again give their elementary symmetric functions
    E_k = c_k from k E_k = sum_(i=1..k) (-1)^(i-1) E_(k-i) P_i.
    """
    key = (n, up_to)
    if key not in _WEDGE2_CACHE:
        e_names = ["e%d" % i for i in range(1, n + 1)]
        e_table = VarTable([(nm, i) for i, nm in enumerate(e_names, start=1)], up_to)
        top = min(comb(n, 2), up_to)
        e = [e_table.one()] + [e_table.var(nm) for nm in e_names[:top]]
        # p_k = sum_(i=1..k-1) (-1)^(i-1) e_i p_(k-i) + (-1)^(k-1) k e_k,
        # where e_i = 0 for i > n
        p = [e_table.const(n)]
        for k in range(1, top + 1):
            p.append(sum_of_products(e_table, [
                ((-1) ** (i - 1), e[i], p[k - i]) for i in range(1, min(k - 1, n) + 1)
            ] + ([((-1) ** (k - 1) * k, e[k], e[0])] if k <= n else [])))
        # the terms m and k - m of P_k's sum are equal, so it halves exactly
        P = [None]
        for k in range(1, top + 1):
            P.append(sum_of_products(e_table, [(n - 2 ** (k - 1), p[k], e[0])] + [
                (comb(k, m) if 2 * m < k else comb(k, m) // 2, p[m], p[k - m])
                for m in range(1, k // 2 + 1)
            ]))
        E = [e_table.one()]
        for k in range(1, top + 1):
            E.append(_divided(sum_of_products(
                e_table, [((-1) ** (i - 1), E[k - i], P[i]) for i in range(1, k + 1)]
            ), k))
        _WEDGE2_CACHE[key] = (e_table, e_names, E[1:])
    return _WEDGE2_CACHE[key]


def _divided(p, d):
    """p / d for an integer d that divides every coefficient of p."""
    terms = {}
    for key, c in p.terms.items():
        q, r = divmod(c, d)
        if r:
            raise BundleError("coefficient %d of %s is not divisible by %d" % (c, p, d))
        terms[key] = q
    return Poly(p.table, terms)


def exterior_square(E):
    """Second exterior power, rank C(n, 2): the universal classes of
    `_wedge2_universal` evaluated at the Chern classes of E."""
    n = E.rank
    if n < 2:
        raise BundleError("exterior square needs rank >= 2")
    table = E.table
    bound = table.degree_bound
    rank = comb(n, 2)
    e_table, e_names, reduced = _wedge2_universal(n, min(rank, bound))
    assignments = {nm: E.c(i) for i, nm in enumerate(e_names, start=1)}
    chern = [table.one()]
    for k, rk in enumerate(reduced, start=1):
        chern.append(rk.substitute(assignments, table=table))
    return Bundle(rank, chern)


def formal_quotient(total, sub):
    """Series quotient c(total)/c(sub) packaged as a bundle, unvalidated.

    Its rank is rank(total) - rank(sub).  Used where an exact sequence
    exists only after further restriction, so the classes above the
    quotient rank need not vanish in the ambient ring.
    """
    if total.table != sub.table:
        raise BundleError("bundles over different tables")
    rank = total.rank - sub.rank
    if rank < 0:
        raise BundleError("quotient rank must be nonnegative")
    return Bundle(rank, series_parts(total.total(), sub.total(), rank))


def whitney_split(total, sub):
    """c(total) / c(sub) through degree rank(total), as (the classes of
    degree <= rank(Q), the excess classes above it) for Q = total / sub.

    Higher parts need no computing: there c(total) has no part, so
    q_d = -sum_{j >= 1} c_j(sub) q_{d-j} with every d - j > rank(Q), and
    they vanish, modulo an ideal too, once the excess classes do.
    """
    if total.table != sub.table:
        raise BundleError("bundles over different tables")
    if total.rank < sub.rank:
        raise BundleError("sub-bundle rank exceeds total rank")
    rank = total.rank - sub.rank
    q = series_parts(total.total(), sub.total(), total.rank)
    return q[: rank + 1], q[rank + 1 :]


def whitney_quotient(total, sub, ring=None):
    """Solve 0 -> sub -> total -> Q -> 0 for Q by Whitney series division.

    The excess classes of `whitney_split` must vanish -- modulo the
    relations of `ring` when one is supplied, identically otherwise -- else
    the data is inconsistent and we raise.
    """
    classes, excess = whitney_split(total, sub)
    rank = total.rank - sub.rank
    for d, part in enumerate(excess, start=rank + 1):
        if ring is not None:
            part = ring.normal_form(part)
        if not part.is_zero():
            raise InconsistentSequenceError(
                "quotient class in degree %d does not vanish: %s" % (d, part)
            )
    return Bundle(rank, classes)


def porteous(E, F, r):
    """Thom-Porteous class of the rank <= r degeneracy locus of a map E -> F.

    The expected-codimension class is the (e - r) x (e - r) determinant
    det( c_{f-r+j-i}(F - E) ); for r = 0 it is the top Chern class of
    Hom(E, F).
    """
    if E.table != F.table:
        raise BundleError("bundles over different tables")
    e, f = E.rank, F.rank
    if r < 0 or r > min(e, f):
        raise BundleError("r must satisfy 0 <= r <= min(rank E, rank F)")
    size = e - r
    table = E.table
    if size == 0:
        return table.one()
    # the top-right entry has the highest index, f - r + size - 1
    q = series_parts(F.total(), E.total(), f - r + size - 1)

    def c(k):
        return q[k] if 0 <= k < len(q) else table.zero()

    rows = [[c(f - r + j - i) for j in range(size)] for i in range(size)]
    return poly_det(rows)
