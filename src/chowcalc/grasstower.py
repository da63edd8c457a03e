"""Towers of Grassmannian bundles: presented Chow rings and Gysin maps.

A tower level G(k, E) names Chern variables for the tautological sub-bundle;
the defining relations are the vanishing of the Whitney quotient classes
above the quotient rank.  Normal forms are computed per degree by integer
lattice reduction.

Gysin pushforwards take a closed form wherever the level's relations
substitute out completely, as they do for every G(k, E) whose E has
variable Chern classes (G(2, S), and every `grass(bundle(...), k, b)` of a
script).  With f_i the Chern classes of the rank-k sub-bundle, n = rank E,
h_m(E) = (-1)^m [c(E)^{-1}]_m and K_lam the coefficient of the Schur
polynomial s_lam in f_1^alpha_1 ... f_k^alpha_k,

    pi_*(f^alpha) = sum_lam K_lam * det(h_{lam_i-(n-k)+j-i}(E))_{i,j<k}

(Jozefiak-Lascoux-Pragacz, 1981; Macdonald, "Symmetric Functions and Hall
Polynomials", I.3 and I.5): Pieri's rule gives K, one Jacobi-Trudi
determinant each lam, and nothing is divided.  The sign (-1)^m is the
convention of the `subset_symmetrization` oracle.  The levels with relations
left, such as G(3, wedge^2 S), P(wedge^2 E) and G(k, E) for a trivial E,
keep Schur-basis coefficient extraction: an exact per-degree linear solve,
after substituting out every base variable that a relation gives as
+-v + rho, rho free of v (see `_Fiber`).

`TowerLevel` is the one level type, with one constructor: a table that
already holds the base and sub-bundle variables, a bundle E over that table,
k and the sub-bundle variable names.  The script language builds its levels
over the session table, and `FiberProduct` pairs two levels over one table.
"""

from __future__ import annotations

import itertools
from math import lcm

from .chern import Bundle, whitney_split
from .polyring import (
    ChowError,
    Poly,
    PolyError,
    VarTable,
    _exponents,
    jacobi_trudi,
    series_parts,
    sum_of_products,
)
from .zgraded import DegreeLattice, _split, _substitute, hnf_solve, row_hnf


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
    """A polynomial ring with homogeneous relations, reduced per degree."""

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
            self._lattices[d] = DegreeLattice(self.table, self.relations, d)
        return self._lattices[d]

    def normal_form(self, p):
        """Canonical representative modulo the relation ideal, per degree."""
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

    Returns ({variable index: image}, the nonzero relations left), with
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
        i, sign = found
        table = rels[j].table
        # r == sign * (v - rho)
        rho = table.var(table.names[i]) - sign * rels.pop(j)
        rels = [_substitute(_split(q, i), rho) for q in rels]
        rels = [q for q in rels if not q.is_zero()]
        images = {h: _substitute(_split(img, i), rho) for h, img in images.items()}
        images[i] = rho


def _unit_term(r, fixed):
    """(variable index, sign) of the first variable v outside `fixed` with
    the term +-v in the homogeneous relation r; or None."""
    table, d = r.table, r.degree()
    for i, (nm, w) in enumerate(zip(table.names, table.degrees)):
        if w == d and nm not in fixed:
            c = r.terms.get(table.var_key(nm))
            if c in (1, -1):
                return i, c
    return None


class _Fiber:
    """The data needed to push forward along one Grassmannian factor.

    `subvars` are the Chern variables f_1..f_k of the tautological
    sub-bundle of E, rank E = n; `relations` are the factor's defining
    relations.  A pushforward takes one of two paths.

    The closed form is taken on every level whose relations
    `_substitute_units` removes completely.  With t_1..t_k the Chern roots
    of the sub-bundle, so that f_i = e_i(t), and
    h_m(E) = (-1)^m [c(E)^{-1}]_m the complete symmetric functions of E's
    Chern roots,

        pi_*(f^alpha) = sum_lam K_lam * det(h_{lam_i-(n-k)+j-i}(E))_{i,j<k}

    where prod_i e_i(t)^alpha_i = sum_lam K_lam s_lam(t) over the lam with
    at most k rows (Jozefiak-Lascoux-Pragacz, 1981).  Pieri's rule builds
    K one factor e_i at a time (`times_elementary`; Macdonald, "Symmetric
    Functions and Hall Polynomials", I.5), and each determinant is one
    `jacobi_trudi` (I.3).  A lam that does not contain the k x (n-k) box
    has a zero last row and is skipped.  It is the sign convention of
    `subset_symmetrization`: for k = 1 it gives pi_*(f^(n-1+m)) = h_m(E).
    K per alpha, each determinant per lam and each pi_*(f^alpha) are built
    once, and the pushforward is linear over every variable outside the
    subvars, so a class is pushed forward as one sum of products over its
    sub-bundle exponents alpha.  The images are those of the lattice path
    below: where the relations substitute out, the ring is free over the
    base on the Schur classes (Fulton, "Intersection Theory", ch. 14), so
    the top-box coefficient the lattice path solves for is unique.  Where E's Chern classes are variables, as on G(2, S) and on
    every `grass(bundle(...), k, b)` of a script, the relations of G(k, E)
    are e_j + (terms free of e_j) for j > n - k, and all of them go.

    The lattice path is kept for the levels with relations left: G(3,
    wedge^2 S), P(wedge^2 E) and G(k, E) for a trivial E.  Variables
    occurring neither in the relations nor among the subvars are
    spectators: classes are split along spectator monomials and each piece
    is solved over the smaller core table by Schur-basis coefficient
    extraction, a per-degree linear solve that reads only the coefficients
    of the top-box Schur class.  Before any lattice is built, each base
    variable v that a relation gives as +-v + rho, rho free of v, is
    substituted out of the other relations.  `core_ring` is the ring of
    the variables left modulo the relations left, and every core class is
    mapped into it by phi, which sends each substituted v to its image and
    keeps the other variables, through one memoised image per core
    monomial; phi is an isomorphism of the two quotient rings, so the solve
    has the same solutions through it.  The lattice path's tables,
    substitution images, `core_ring` and Schur table are built on its first
    push (`_lattice_path`).
    """

    def __init__(self, table, subvars, E, relations):
        self.table = table
        self.subvars = tuple(subvars)
        self.E = E
        self.k = k = len(self.subvars)
        self.n = n = E.rank
        self.relative_dim = k * (n - k)
        self.relations = tuple(relations)
        self._substitution = _substitute_units(self.relations, self.subvars)
        self.closed_form = not self._substitution[1]
        self.target_table = None
        self.core_ring = None
        self._solvers = {}
        # the closed form's state: h_0(E)..h_bound(E) from the first push
        # on, and memos of pi_*(f^alpha) and of its Schur expansion K per
        # alpha and of each determinant per lam
        self._h = None
        self._pushed = {}
        self._expansions = {}
        self._dets = {}

    def _target(self):
        """The target table (every variable but the subvars), built once."""
        if self.target_table is None:
            table = self.table
            names = [nm for nm in table.names if nm not in self.subvars]
            self.target_table = VarTable(
                [(nm, table.degrees[table.index[nm]]) for nm in names],
                table.degree_bound,
            )
            self._to_target = table.rekey(self.target_table, names)
        return self.target_table

    def gysin(self, p):
        """Pushforward to the target table (all variables minus the subvars)."""
        if p.table != self.table:
            raise TowerError("polynomial over the wrong table")
        target = self._target()
        if p.is_zero():
            return target.zero()
        if not p.is_homogeneous():
            raise TowerError("Gysin pushforward requires a homogeneous class")
        if p.degree() < self.relative_dim:
            return target.zero()
        if self.closed_form:
            return self._gysin_closed(p)
        return self._gysin_lattice(p)

    # -- the closed form ---------------------------------------------------

    def _gysin_closed(self, p):
        """Group p's terms by sub-bundle exponents alpha, each group with
        those fields and their degree cleared, and sum group * pi_*(f^alpha)."""
        table = self.table
        mask, shift = table.mask, table.shift
        fields = [
            (table.offsets[table.index[v]], table.degrees[table.index[v]])
            for v in self.subvars
        ]
        keep = ~sum(mask << off for off, _ in fields)
        groups = {}
        for key, c in p.terms.items():
            alpha = tuple([key >> off & mask for off, _ in fields])
            deg = sum([e * w for e, (_, w) in zip(alpha, fields)])
            groups.setdefault(alpha, {})[(key & keep) - (deg << shift)] = c
        total = sum_of_products(table, [
            (1, Poly(table, g), self._pushed_monomial(alpha))
            for alpha, g in groups.items()
        ])
        move = self._to_target
        return Poly(self.target_table, {move(k): c for k, c in total.terms.items()})

    def _pushed_monomial(self, alpha):
        """pi_*(f^alpha) over the level's table, free of the subvars."""
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
        target = self._target()
        core = set(self.subvars)
        for r in self.relations:
            core |= r.variables()
        self.core_names = tuple(nm for nm in table.names if nm in core)
        self.core_table = ct = VarTable(
            [(nm, table.degrees[table.index[nm]]) for nm in self.core_names],
            table.degree_bound,
        )
        self.base_names = tuple(
            nm for nm in self.core_names if nm not in set(self.subvars)
        )
        self._to_core = table.rekey(ct, self.core_names)
        self._to_spectator = table.rekey(
            target, [nm for nm in table.names if nm not in core]
        )
        self._base_to_target = ct.rekey(target, self.base_names)
        self.core_relations = tuple(r.convert(ct) for r in self.relations)
        images, rels = self._substitution
        images = {ct.index[table.names[i]]: rho for i, rho in images.items()}
        ring_table = VarTable(
            [v for i, v in enumerate(zip(ct.names, ct.degrees)) if i not in images],
            ct.degree_bound,
        )
        # (field offset, key, image) of each substituted variable
        self._units = [
            (ct.offsets[i], ct.var_key(ct.names[i]), rho.convert(ring_table))
            for i, rho in sorted(images.items())
        ]
        self._to_ring = ct.rekey(ring_table, ring_table.names)
        self._images = {}
        self.box = partitions_in_box(k, n - k)
        self.top = tuple([n - k] * k)
        sub = Bundle(
            k, [ring_table.one()] + [ring_table.var(v) for v in self.subvars]
        )
        self._schur = {lam: schur_from_chern(sub, lam) for lam in self.box}
        self.core_ring = GradedRing(ring_table, [r.convert(ring_table) for r in rels])

    def _split_spectators(self, p):
        """Group terms by spectator monomial: pairs of its key over the
        target table and the polynomial over the core table it multiplies."""
        to_core, to_spectator = self._to_core, self._to_spectator
        groups = {}
        for k, c in p.terms.items():
            groups.setdefault(to_spectator(k), {})[to_core(k)] = c
        return [(spec, Poly(self.core_table, t)) for spec, t in groups.items()]

    def _image(self, key):
        """phi of the core monomial with this key, over the ring table:
        phi(m / v) * phi(v) for the first substituted v dividing m, else m."""
        img = self._images.get(key)
        if img is None:
            mask = self.core_table.mask
            for off, unit, rho in self._units:
                if key >> off & mask:
                    img = self._image(key - unit) * rho
                    break
            else:
                img = Poly(self.core_ring.table, {self._to_ring(key): 1})
            self._images[key] = img
        return img

    def _substituted(self, p_core):
        """phi of a core class: the class over `core_ring`'s table."""
        if not self._units:
            return p_core
        terms = {}
        get = terms.get
        for k, c in p_core.terms.items():
            for ki, ci in self._image(k).terms.items():
                terms[ki] = get(ki, 0) + c * ci
        return Poly(self.core_ring.table, {k: c for k, c in terms.items() if c})

    def _solver(self, d):
        """Rows NF(phi(s_mu * m)) for the degree-d Schur-coefficient solve."""
        if d not in self._solvers:
            self._lattice_path()
            core = self.core_table
            sub_fields = 0
            for v in self.subvars:
                sub_fields |= core.mask << core.offsets[core.index[v]]
            lat = self.core_ring.lattice(d)
            rows = []
            labels = []
            for lam in self.box:
                rem = d - sum(lam)
                if rem < 0:
                    continue
                s = self._schur[lam]
                base_monos = [
                    m for m in core.monomial_keys(rem) if not m & sub_fields
                ]
                for m in base_monos:
                    prod = s * self._image(m)
                    rows.append(lat.reduce(lat.vector(prod)))
                    labels.append((lam, m))
            if rows:
                H, U, pivots = row_hnf(rows)
            else:
                H, U, pivots = [], [], []
            self._solvers[d] = (lat, labels, H, U, pivots)
        return self._solvers[d]

    def _solve_core(self, p_core):
        """Coefficient of the top-box Schur class of a core polynomial."""
        d = p_core.degree()
        if d < 0:
            return self.core_table.zero()
        lat, labels, H, U, pivots = self._solver(d)
        v = lat.reduce(lat.vector(self._substituted(p_core)))
        coeffs = hnf_solve(H, U, pivots, v)
        if coeffs is None:
            raise TowerError("class is not in the Schur-basis module span")
        out_terms = {}
        for coeff, (lam, m) in zip(coeffs, labels):
            if coeff and lam == self.top:
                out_terms[m] = coeff
        return Poly(self.core_table, out_terms)

    def _gysin_lattice(self, p):
        """Pushforward by the per-degree Schur-coefficient solve."""
        self._lattice_path()
        to_target = self._base_to_target
        terms = {}
        for spec, p_core in self._split_spectators(p):
            # spectator monomial times the base-variable result: the two
            # touch disjoint fields, so every product key is a distinct sum
            for k, c in self._solve_core(p_core).terms.items():
                terms[spec + to_target(k)] = c
        return Poly(self.target_table, terms)


# -- tower levels ------------------------------------------------------------


class TowerLevel:
    """One Grassmannian bundle G(k, E), built over one table.

    `table` holds the base variables and the k sub-bundle Chern variables
    `subvars`, and may hold more, such as the other level's variables in a
    fiber product.  E lives over `table` and its Chern classes are free of
    `subvars`.  The pushforward is linear over every variable outside
    `subvars` and the level's relations.
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
        self.k = k
        self.n = n
        self.subvars = tuple(subvars)
        self.table = table
        self.E = E
        self.taut_sub = Bundle(k, [table.one()] + [table.var(nm) for nm in subvars])
        quot_chern, excess = whitney_split(E, self.taut_sub)
        self.new_relations = tuple(p for p in excess if not p.is_zero())
        self.taut_quot = Bundle(n - k, quot_chern)
        self.ring = GradedRing(table, self.new_relations)
        self._fiber = _Fiber(table, self.subvars, E, self.new_relations)

    @property
    def relative_dim(self):
        return self.k * (self.n - self.k)

    def schur(self, lam):
        """Schur class of the tautological sub-bundle; lam fits in k x (n-k)."""
        lam = check_partition(lam, self.k, self.n - self.k)
        return schur_from_chern(self.taut_sub, lam)

    def normal_form(self, p):
        return self.ring.normal_form(p)

    def gysin(self, p):
        """Pushforward to the table without `subvars`; degree drops by k(n-k)."""
        return self._fiber.gysin(p)


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

        sum_I  g(e_1(x_I), ..., e_k(x_I)) / prod_{i in I, j not in I} (x_i - x_j)

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
    table = p.table
    names, index = table.names, table.index
    slot = {index[nm]: t for t, nm in enumerate(sub_names) if nm in index}
    g = {}
    for key, c in p.terms.items():
        expo = [0] * k
        for i, e in _exponents(table, key):
            t = slot.get(i)
            if t is not None:
                expo[t] = e
                continue
            try:
                c *= values[names[i]] ** e
            except KeyError:
                raise PolyError("no value for variable %r" % names[i]) from None
        expo = tuple(expo)
        g[expo] = g.get(expo, 0) + c
    g = [(expo, c) for expo, c in g.items() if c]
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
                    d *= x - roots[j]
        del es[0]
        val = 0
        for expo, c in g:
            for x, e in zip(es, expo):
                if e:
                    c *= x ** e
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
