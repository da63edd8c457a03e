"""Formal vector bundle calculus: Chern classes and degeneracy loci.

Bundles are purely formal: a rank plus a truncated total Chern class over a
shared variable table.  Duals, determinants and line twists are computed by
closed formulas from the splitting principle.  Exterior and symmetric
squares and tensor products share one kernel: Newton's identities take the
Chern classes to the power sums of the roots, the binomial theorem gives the
power sums of the new roots (x_i + x_j, or x_i + y_j), and Newton's
identities take those back.  Whitney quotients come by truncated series
division, degeneracy classes by the Thom-Porteous determinant.
"""

from math import comb

from .polyring import ChowError, Poly, jacobi_trudi, series_parts, sum_of_products


class BundleError(ChowError):
    pass


class InconsistentSequenceError(BundleError):
    """Whitney division produced nonzero classes above the quotient rank."""


class Bundle:
    """Formal bundle: rank plus Chern classes c_0=1, c_1, ..., c_rank."""

    __slots__ = ("rank", "chern")

    def __init__(self, rank, chern):
        if rank < 0:
            raise BundleError("rank must be nonnegative")
        chern = list(chern)
        if not chern:
            raise BundleError("need at least c_0")
        table = chern[0].table
        if len(chern) < rank + 1:
            chern = chern + [table.zero()] * (rank + 1 - len(chern))
        if len(chern) > rank + 1:
            raise BundleError("more Chern classes than the rank allows")
        if chern[0] != table.one():
            raise BundleError("c_0 must be 1")
        for i, ci in enumerate(chern[1:], start=1):
            if ci.table is not table and ci.table != table:
                raise BundleError("Chern classes over different tables")
            if ci.is_zero():
                continue
            if i > table.degree_bound:
                raise BundleError("a nonzero c_%d needs a degree bound >= %d" % (i, i))
            if not (ci.is_homogeneous() and ci.degree() == i):
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


def line(cls1):
    """Line bundle with the given first Chern class (homogeneous, degree 1)."""
    table = cls1.table
    if not cls1.is_zero() and not (cls1.is_homogeneous() and cls1.degree() == 1):
        raise BundleError("a line class must be homogeneous of degree 1")
    return Bundle(1, [table.one(), cls1])


def dual(E):
    """c_i(E*) = (-1)^i c_i(E)."""
    chern = [ci if i % 2 == 0 else -ci for i, ci in enumerate(E.chern)]
    return Bundle(E.rank, chern)


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


def _divided(p, d):
    """p / d for an integer d that divides every coefficient of p."""
    terms = {}
    for key, c in p.terms.items():
        q, r = divmod(c, d)
        if r:
            raise BundleError("coefficient %d of %s is not divisible by %d" % (c, p, d))
        terms[key] = q
    return Poly(p.table, terms)


def _power_sums(E, up_to):
    """The power sums p_0..p_top of E's roots, top = min(up_to, bound): p_0 is
    the rank and, by Newton's identities (Macdonald, Symmetric Functions, I.2),
    p_k = sum_(i<k) (-1)^(i-1) c_i p_(k-i) + (-1)^(k-1) k c_k."""
    table = E.table
    p = [table.const(E.rank)]
    for k in range(1, min(up_to, table.degree_bound) + 1):
        p.append(sum_of_products(table, [
            ((-1) ** (i - 1), E.c(i), p[k - i]) for i in range(1, k)
        ] + [((-1) ** (k - 1) * k, E.c(k), table.one())]))
    return p


def _from_power_sums(table, rank, P):
    """The bundle of that rank whose roots have power sums P = [P_1, P_2, ...],
    through c_len(P): k c_k = sum_(i<=k) (-1)^(i-1) c_(k-i) P_i, divided exactly."""
    c = [table.one()]
    for k in range(1, len(P) + 1):
        c.append(_divided(sum_of_products(
            table, [((-1) ** (i - 1), c[k - i], P[i - 1]) for i in range(1, k + 1)]
        ), k))
    return Bundle(rank, c)


def _square(E, sign):
    """wedge^2 E (sign -1) or Sym^2 E (sign +1), of rank n(n + sign) / 2: the
    roots x_i + x_j, i < j or i <= j, have power sums P_k = (sum_m C(k, m)
    p_m p_(k-m) + sign 2^k p_k) / 2, and the terms m and k - m of the sum
    are equal, so it halves exactly."""
    n, table = E.rank, E.table
    rank = n * (n + sign) // 2
    p = _power_sums(E, rank)
    return _from_power_sums(table, rank, [
        sum_of_products(table, [(n + sign * 2 ** (k - 1), p[k], table.one())] + [
            (comb(k, m) if 2 * m < k else comb(k, m) // 2, p[m], p[k - m])
            for m in range(1, k // 2 + 1)
        ]) for k in range(1, len(p))
    ])


def exterior_square(E):
    """Second exterior power, of rank C(n, 2) (0 for a line)."""
    return _square(E, -1)


def sym2(E):
    """Second symmetric power, of rank C(n + 1, 2)."""
    return _square(E, 1)


def tensor(E, F):
    """E (x) F, of rank e f: its roots x_i + y_j have power sums
    P_k = sum_m C(k, m) p_m(E) p_(k-m)(F)."""
    if E.table != F.table:
        raise BundleError("bundles over different tables")
    table, rank = E.table, E.rank * F.rank
    p, q = _power_sums(E, rank), _power_sums(F, rank)
    return _from_power_sums(table, rank, [
        sum_of_products(table, [(comb(k, m), p[m], q[k - m]) for m in range(k + 1)])
        for k in range(1, len(p))
    ])


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


def whitney_quotient(total, sub):
    """Solve 0 -> sub -> total -> Q -> 0 for Q by Whitney series division.

    The excess classes of `whitney_split` must vanish, else the data is
    inconsistent and we raise.
    """
    classes, excess = whitney_split(total, sub)
    rank = total.rank - sub.rank
    for d, part in enumerate(excess, start=rank + 1):
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
    return jacobi_trudi(q, [f - r] * size)
