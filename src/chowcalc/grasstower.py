"""Towers of Grassmannian bundles: presented Chow rings and Gysin maps.

A tower level G(k, E) names Chern variables for the tautological sub-bundle;
the defining relations are the vanishing of the Whitney quotient classes
above the quotient rank.  A level's normal form is that of the `GradedIdeal`
of its relations, whose lattices live over the variables the relations use.
`zgraded` loads with the first normal form or lattice push.

Gysin pushforwards take a closed form wherever the level's relations
substitute out completely.  They do for every G(k, E) whose E has variable
Chern classes (G(2, S), and every `grass(bundle(...), k, b)` of a script):
the relations are e_j + (terms free of e_j) for j > n - k, and all of them
go.  With t_1..t_k the Chern roots of the rank-k sub-bundle, f_i = e_i(t)
its Chern classes, n = rank E, h_m(E) = (-1)^m [c(E)^{-1}]_m the complete
symmetric functions of E's Chern roots and prod_i f_i^alpha_i = sum_lam
K_lam s_lam(t) over the lam with at most k rows,

    pi_*(f^alpha) = (-1)^(k(n-k))
                    sum_lam K_lam * det(h_{lam_i-(n-k)+j-i}(E))_{i,j<k}

(Jozefiak-Lascoux-Pragacz, 1981).  Pieri's rule builds K one factor e_i at
a time (`times_elementary`; Macdonald, "Symmetric Functions and Hall
Polynomials", I.5), each determinant is one `jacobi_trudi` (I.3), a lam
that does not contain the k x (n-k) box has a zero last row and is skipped,
and nothing is divided.  The sign is that of the point class of a fibre,
s_box(S*) = (-1)^(k(n-k)) s_box(S) for the k x (n-k) box, so that the
tautological line of P(V), rank V = 2, has degree -1 on each fibre.  For
k = 1 it gives pi_*(f^(n-1+m)) = (-1)^(n-1) h_m(E), Fulton's
pi_*(c1(O(1))^(n-1+m)) = s_m(E) for c1(O(1)) = -f ("Intersection Theory",
3.1), and the `subset_symmetrization` oracle divides by the equivariant
Euler class of the tangent space, which carries the same sign.

The levels with relations left, such as G(3, wedge^2 S), P(wedge^2 E) and
G(k, E) for a trivial E, take the lattice path: Schur-basis coefficient
extraction, an exact per-degree linear solve for the coefficient of the
top-box Schur class (see `TowerLevel`).  Where the relations substitute
out, the ring is free over the base on the Schur classes (Fulton,
"Intersection Theory", ch. 14), so that coefficient is unique and the two
paths give the same images.

`TowerLevel` is the one level type, with one constructor: a table that
already holds the base and sub-bundle variables, a bundle E over that table,
k and the sub-bundle variable names.  The script language builds its levels
over the session table, and `FiberProduct` pairs two levels over one table.
A pushforward's image is a class over the level's own table, free of the
sub-bundle variables, so it can be pushed along another level of that table.
"""

import itertools
from math import lcm

from .chern import Bundle, whitney_split
from .polyring import (
    ChowError,
    Poly,
    SpectatorSplit,
    VarTable,
    jacobi_trudi,
    series_parts,
    sum_of_products,
)


class TowerError(ChowError):
    pass


# -- partitions --------------------------------------------------------------


def check_partition(lam, k, m):
    """Validate that lam is a partition inside the k x m box."""
    lam = tuple(int(p) for p in lam)
    if any(p < 0 for p in lam):
        raise TowerError("partition parts must be nonnegative")
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise TowerError("partition parts must be weakly decreasing")
    lam = tuple(p for p in lam if p > 0)
    if len(lam) > k or any(p > m for p in lam):
        raise TowerError("partition %r does not fit the %dx%d box" % (lam, k, m))
    return lam


def partitions_in_box(k, m):
    """All partitions with at most k parts, each part at most m."""
    out = []

    def rec(prefix, maxpart):
        out.append(tuple(p for p in prefix if p))
        if len(prefix) == k:
            return
        for p in range(maxpart, 0, -1):
            rec(prefix + [p], p)

    rec([], m)
    return sorted(set(out), key=lambda lam: (sum(lam), lam))


def conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def schur_from_chern(bundle, lam):
    """Schur polynomial s_lam of a bundle via the dual Jacobi-Trudi
    determinant in its Chern classes."""
    return jacobi_trudi(bundle.chern, conjugate(lam))


def times_elementary(coeffs, i):
    """{lam: coefficient of s_lam} times e_i, by Pieri's rule (Macdonald,
    I.5): each lam, a tuple of k parts, gains one box in i distinct rows
    where that leaves a partition.  No shape grows past k rows, as in k
    variables, where s_mu vanishes for longer mu."""
    out = {}
    for lam, c in coeffs.items():
        for rows in itertools.combinations(range(len(lam)), i):
            mu = list(lam)
            for r in rows:
                mu[r] += 1
            if all(a >= b for a, b in zip(mu, mu[1:])):
                mu = tuple(mu)
                out[mu] = out.get(mu, 0) + c
    return out


# -- graded rings ------------------------------------------------------------


class GradedRing:
    """A polynomial ring with homogeneous relations, reduced per degree:
    the lattice path's `core_ring` (see `TowerLevel`)."""

    def __init__(self, table, relations=()):
        self.table = table
        rels = []
        for r in relations:
            if r.is_zero():
                continue
            if r.table != table:
                raise TowerError("relation over the wrong table")
            if not r.is_homogeneous():
                raise TowerError("relations must be homogeneous")
            rels.append(r)
        self.relations = tuple(rels)
        self._lattices = {}

    def lattice(self, d):
        if d not in self._lattices:
            from .zgraded import DegreeLattice
            self._lattices[d] = DegreeLattice(self.table, self.relations, d)
        return self._lattices[d]

    def normal_form(self, p):
        """Canonical representative modulo the relation ideal, per degree.
        The library reduces through `GradedIdeal`; bench/tracing.py wraps
        this method by name."""
        if p.table != self.table:
            raise TowerError("polynomial over the wrong table")
        if p.is_zero() or not self.relations:
            return p
        terms = {}  # one homogeneous part per degree: no two share a key
        for d, part in p.graded_parts().items():
            lat = self.lattice(d)
            terms.update(lat.poly(lat.reduce(lat.vector(part))).terms)
        return Poly(self.table, terms)

    def __repr__(self):
        return "GradedRing(%r, %d relations)" % (self.table, len(self.relations))


# -- the Gysin pushforward ----------------------------------------------------


def _substitute_units(relations, fixed):
    """Substitute out each variable outside `fixed` that a relation gives
    as +-v + rho with rho free of v, until no relation gives one.

    Returns ({variable name: image}, the nonzero relations left), with
    every image and every relation left free of the substituted variables.
    A homogeneous relation of degree deg(v) with the term +-v has no other
    term in v, so the coefficient of v is all there is to check.
    """
    rels = [r for r in relations if not r.is_zero()]
    images = {}
    while True:
        found = None
        for j, r in enumerate(rels):
            found = _unit_term(r, fixed)
            if found:
                break
        if not found:
            return images, rels
        name, sign = found
        # r == sign * (v - rho)
        rho = rels[j].table.var(name) - sign * rels.pop(j)
        rels = [q.substitute({name: rho}) for q in rels]
        rels = [q for q in rels if not q.is_zero()]
        images = {h: img.substitute({name: rho}) for h, img in images.items()}
        images[name] = rho


def _unit_term(r, fixed):
    """(name, sign) of the first variable v outside `fixed` with the term
    +-v in the homogeneous relation r; or None."""
    table, d = r.table, r.degree()
    for nm, w in zip(table.names, table.degrees):
        if w == d and nm not in fixed:
            c = r.terms.get(table.var_key(nm))
            if c in (1, -1):
                return nm, c
    return None


# -- tower levels ------------------------------------------------------------


class TowerLevel:
    """One Grassmannian bundle G(k, E), built over one table.

    `table` holds the base variables and the k sub-bundle Chern variables
    `subvars`, f_1..f_k, and may hold more, such as the other level's
    variables in a fiber product.  E, of rank n, lives over `table` and its
    Chern classes are free of `subvars`; `new_relations` are the level's
    defining relations.  A pushforward's image is a class over `table`, free
    of `subvars`, and the pushforward is linear over every other variable,
    so a class is pushed forward as one sum of products over its sub-bundle
    exponents alpha.  The closed form (see the module docstring) builds K
    per alpha, each determinant per lam and each pi_*(f^alpha) once.

    `closed_form`, the module docstring's rule, is set at construction:
    `_substitute_units` substitutes out of the other relations each base
    variable v that a relation gives as +-v + rho, rho free of v, and the
    closed form serves when no relation is left.  On the lattice path,
    variables occurring neither in the relations nor among the subvars are
    spectators: classes are split along spectator monomials by
    `polyring.SpectatorSplit`, the split `GradedIdeal` uses, and each piece
    is solved over the smaller core table, reading only the coefficients of
    the top-box Schur class, signed as the closed form is.  `core_ring` is
    the ring of the variables left modulo the relations left, and every
    core class is mapped into it by phi, the `Poly.substitute` that sends
    each substituted v to its image and keeps the other variables; phi is
    an isomorphism of the two quotient rings, so the solve has the same
    solutions through it.  The lattice path's tables, substitution images,
    `core_ring` and Schur table are built on its first push
    (`_lattice_path`), and its solver on the first push of each degree.
    """

    def __init__(self, table, E, k, subvars):
        n = E.rank
        if not (1 <= k < n):
            raise TowerError("need 1 <= k < rank(E)")
        if len(subvars) != k:
            raise TowerError("need exactly %d sub-bundle variable names" % k)
        if E.table != table:
            raise TowerError("bundle must live over the level's table")
        clash = E.total().variables() & set(subvars)
        if clash:
            raise TowerError(
                "sub-bundle variables %s in E's Chern classes" % sorted(clash)
            )
        self.table, self.E, self.k, self.n = table, E, k, n
        self.subvars = tuple(subvars)
        self.relative_dim = k * (n - k)
        self.taut_sub = Bundle(k, [table.one()] + [table.var(nm) for nm in subvars])
        quot_chern, excess = whitney_split(E, self.taut_sub)
        self.new_relations = tuple(p for p in excess if not p.is_zero())
        self.taut_quot = Bundle(n - k, quot_chern)
        self._ideal = None  # of new_relations, built by the first normal form
        self._substitution = _substitute_units(self.new_relations, self.subvars)
        self.closed_form = not self._substitution[1]
        self.core_ring = None
        self._solvers = {}
        # the closed form's state: h_0(E)..h_bound(E) from the first push
        # on, and memos of pi_*(f^alpha) and of its Schur expansion K per
        # alpha and of each determinant per lam
        self._h = None
        self._pushed = {}
        self._expansions = {}
        self._dets = {}

    def schur(self, lam):
        """Schur class of the tautological sub-bundle; lam fits in k x (n-k)."""
        lam = check_partition(lam, self.k, self.n - self.k)
        return schur_from_chern(self.taut_sub, lam)

    def normal_form(self, p):
        """Canonical representative modulo the level's relation ideal; a
        level without relations builds nothing."""
        if p.table != self.table:
            raise TowerError("polynomial over the wrong table")
        if p.is_zero() or not self.new_relations:
            return p
        if self._ideal is None:
            from .zgraded import GradedIdeal
            self._ideal = GradedIdeal(self.new_relations)
        return self._ideal.normal_form(p)

    def gysin(self, p):
        """Pushforward to the base: a class over the level's table, free of
        `subvars`; degree drops by k(n-k)."""
        if p.table != self.table:
            raise TowerError("polynomial over the wrong table")
        if p.is_zero():
            return p
        if not p.is_homogeneous():
            raise TowerError("Gysin pushforward requires a homogeneous class")
        if p.degree() < self.relative_dim:
            return self.table.zero()
        if self.closed_form:
            return self._gysin_closed(p)
        return self._gysin_lattice(p)

    # -- the closed form ---------------------------------------------------

    def _gysin_closed(self, p):
        """Split p by sub-bundle exponents alpha and sum each piece times
        pi_*(f^alpha)."""
        return self._signed(sum_of_products(self.table, [
            (1, g, self._pushed_monomial(alpha))
            for alpha, g in p.split(self.subvars).items()
        ]))

    def _pushed_monomial(self, alpha):
        """pi_*(f^alpha) over the level's table, free of the subvars, but
        for the sign (-1)^(k(n-k)) that `_signed` puts on."""
        img = self._pushed.get(alpha)
        if img is None:
            table, box = self.table, self.n - self.k
            expansion = self._schur_expansion(alpha)
            img = self._pushed[alpha] = sum_of_products(table, [
                (c, self._det(lam), table.one())
                for lam, c in expansion.items() if lam[-1] >= box
            ])
        return img

    def _schur_expansion(self, alpha):
        """{lam: K_lam} of prod_i e_i^alpha_i in k variables."""
        coeffs = self._expansions.get(alpha)
        if coeffs is None:
            i = next((i for i, e in enumerate(alpha) if e), None)
            if i is None:
                coeffs = {(0,) * self.k: 1}
            else:
                prev = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
                coeffs = times_elementary(self._schur_expansion(prev), i + 1)
            self._expansions[alpha] = coeffs
        return coeffs

    def _det(self, lam):
        """det(h_{lam_i-(n-k)+j-i}(E))_{i,j<k} for a lam containing the box."""
        det = self._dets.get(lam)
        if det is None:
            if self._h is None:
                table = self.table
                q = series_parts(table.one(), self.E.total(), table.degree_bound)
                self._h = [-x if m % 2 else x for m, x in enumerate(q)]
            box = self.n - self.k
            det = self._dets[lam] = jacobi_trudi(self._h, [p - box for p in lam])
        return det

    # -- the lattice path --------------------------------------------------

    def _lattice_path(self):
        """Build the lattice path's tables, substitution images, `core_ring`
        and Schur table, once."""
        if self.core_ring is not None:
            return
        table, k, n = self.table, self.k, self.n
        core = set(self.subvars)
        for r in self.new_relations:
            core |= r.variables()
        self._split = SpectatorSplit(table, core)
        self.core_table = ct = self._split.core
        images, rels = self._substitution
        ring_table = VarTable(
            [v for v in zip(ct.names, ct.degrees) if v[0] not in images],
            ct.degree_bound,
        )
        self._phi = {nm: rho.convert(ring_table) for nm, rho in images.items()}
        self.box = partitions_in_box(k, n - k)
        self.top = tuple([n - k] * k)
        sub = Bundle(
            k, [ring_table.one()] + [ring_table.var(v) for v in self.subvars]
        )
        self._schur = {lam: schur_from_chern(sub, lam) for lam in self.box}
        self.core_ring = GradedRing(ring_table, [r.convert(ring_table) for r in rels])

    def _substituted(self, p_core):
        """phi of a core class: the class over `core_ring`'s table."""
        return p_core.substitute(self._phi, table=self.core_ring.table)

    def _solver(self, d):
        """Rows NF(phi(s_mu * m)) for the degree-d Schur-coefficient solve."""
        if d not in self._solvers:
            from . import zgraded  # its row_hnf, looked up at call time
            self._lattice_path()
            core = self.core_table
            lat = self.core_ring.lattice(d)
            rows = []
            labels = []
            for lam in self.box:
                rem = d - sum(lam)
                if rem < 0:
                    continue
                s = self._schur[lam]
                # the degree-rem monomials free of the subvars, descending
                monos = Poly(core, dict.fromkeys(core.monomial_keys(rem), 1))
                base = monos.split(self.subvars).get((0,) * self.k, core.zero())
                for m in sorted(base.terms, reverse=True):
                    prod = s * self._substituted(Poly(core, {m: 1}))
                    rows.append(lat.reduce(lat.vector(prod)))
                    labels.append((lam, m))
            if rows:
                H, U, pivots = zgraded.row_hnf(rows)
            else:
                H, U, pivots = [], [], []
            self._solvers[d] = (lat, labels, H, U, pivots)
        return self._solvers[d]

    def _solve_core(self, p_core):
        """Coefficient of the top-box Schur class of a core polynomial."""
        d = p_core.degree()
        if d < 0:
            return self.core_table.zero()
        from . import zgraded
        lat, labels, H, U, pivots = self._solver(d)
        v = lat.reduce(lat.vector(self._substituted(p_core)))
        coeffs = zgraded.hnf_solve(H, U, pivots, v)
        if coeffs is None:
            raise TowerError("class is not in the Schur-basis module span")
        out_terms = {}
        for coeff, (lam, m) in zip(coeffs, labels):
            if coeff and lam == self.top:
                out_terms[m] = coeff
        return Poly(self.core_table, out_terms)

    def _gysin_lattice(self, p):
        """Pushforward by the per-degree Schur-coefficient solve, one piece
        of p's spectator split at a time."""
        self._lattice_path()
        split = self._split
        return self._signed(split.join(
            (m, self._solve_core(q)) for m, q in split.split(p)
        ))

    def _signed(self, p):
        """(-1)^(k(n-k)) * p: the sign of the fibre's point class, s_box(S*)
        = (-1)^(k(n-k)) * s_box(S), which both paths leave out."""
        return -p if self.relative_dim % 2 else p


# bench/tracing.py wraps `_Fiber.gysin` and `_Fiber._solver` by name, and
# its `_solver_cached` reads `_solvers` of the level a `_solver` call gets.
_Fiber = TowerLevel


class FiberProduct:
    """Two tower levels built over one table with distinct sub-bundle
    variables, as a script's are.  Pushing forward along one level carries
    the other's variables along."""

    def __init__(self, a, b):
        if a.table != b.table:
            raise TowerError("fiber product requires levels over one table")
        if set(a.subvars) & set(b.subvars):
            raise TowerError("fiber product requires distinct sub-bundle variables")
        self.table, self.levels = a.table, (a, b)

    def gysin(self, factor, p):
        """Pushforward along the projection forgetting the given factor (0/1)."""
        return self.levels[factor].gysin(p)


def subset_symmetrization(p, sub_names, roots, values):
    """Randomized Gysin oracle by subset symmetrization over the Chern roots.

    For a G(k, E) level whose sub-bundle Chern variables are `sub_names`, the
    pushforward of g(b_1..b_k) is the classical sum over k-element subsets I
    of the roots of E:

        sum_I  g(e_1(x_I), ..., e_k(x_I)) / prod_{i in I, j not in I} (x_j - x_i)

    whose denominator is the equivariant Euler class of the tangent space
    Hom(S, Q) at the fixed point of the subset I (Atiyah-Bott).

    `roots` are distinct integers standing in for the Chern roots; `values`
    gives a number (int or Fraction) for every other variable p uses, and
    must assign the elementary symmetric functions of the roots to the Chern
    variables of E for a comparison against gysin to be meaningful.  A value
    it gives for a sub-bundle variable is not read: each subset's wins.

    One pass over p's terms evaluates every other variable at `values`,
    leaving g as a coefficient per sub-bundle exponent tuple; each subset
    then evaluates only g.  The sum is kept as an integer numerator over an
    integer denominator, the least common multiple of the subsets'
    denominators so far.  Returns an int when the sum is integral and a
    Fraction otherwise.
    """
    roots = list(roots)
    n, k = len(roots), len(sub_names)
    if len(set(roots)) != n:
        raise TowerError("oracle roots must be distinct")
    # the slots of the sub-bundle variables in p's table; any other reads 0
    slots = [t for t, nm in enumerate(sub_names) if nm in p.table.index]
    g = []
    for alpha, piece in p.split([sub_names[t] for t in slots]).items():
        c = piece.eval(values)
        if c:
            g.append((alpha, c))
    num, den = 0, 1
    for I in itertools.combinations(range(n), k):
        es = [1] + [0] * k
        d = 1
        for i in I:
            x = roots[i]
            for t in range(k, 0, -1):
                es[t] += es[t - 1] * x
            for j in range(n):
                if j not in I:
                    d *= roots[j] - x
        del es[0]
        val = 0
        for alpha, c in g:
            for t, e in zip(slots, alpha):
                if e:
                    c *= es[t] ** e
            val += c
        if val:
            # add val / d; den, a least common multiple, stays positive
            d *= val.denominator
            common = lcm(den, d)
            num = num * (common // den) + val.numerator * (common // d)
            den = common
    if num % den == 0:
        return num // den
    from fractions import Fraction

    return Fraction(num, den)
