"""Graded ideal arithmetic over Z via per-degree integer lattice normal forms.

Every homogeneous question (membership, containment, quotient structure) is
answered degree by degree: the degree-d slice of an ideal is the integer span
of generator-times-monomial products, a sublattice of the free module on the
degree-d monomials.  Echelon bases and Smith normal forms make the answers
exact and certifiable.

Before any lattice is built, a `GradedIdeal` uses each generator whose
leading term is +-v for a single variable v to substitute v out of the other
generators, until no such generator is left, and a query is substituted
first.  Its lattices then live over the table of the variables that the
remaining generators use, its core; every other variable is a spectator.
Z[core, spectators] is the direct sum of the Z[core] * m over the monomials
m in the spectators, and the ideal is the direct sum of the I' * m, I' the
ideal of the remaining generators in Z[core].  So `SpectatorSplit` (which
lives in `polyring`, beside the key layout it reads) writes a query as
p = sum_m m * p_m, and each p_m is answered in its own degree over the core:
p is a member exactly when every p_m is (certificates lift by m), the normal
form is sum_m m * nf(p_m), and the degree-d quotient is the direct sum of
the core quotients in degrees d - deg m.  Normal forms stay canonical (each
monomial with an eliminated variable would be a pivot column with pivot 1,
and multiplying by m keeps the graded-lex order of a block's columns), and
membership certificates are lifted back to the original generators through
divided differences.  `DegreeLattice` builds each echelon basis once, with
its transform U, so a lattice reduced against first and solved against later
is not echeloned again, and its invariant factors are read off the same
basis.

These lattices are a few percent nonzero, so `row_hnf` holds each row of H
and U sparse, as a {column: entry} dict, and returns them that way; this
module is the only one that reads the entries of such a row.  It brings the
rows to echelon form, pivoting in each column on a row of least |entry|, the
sparsest of those tied (Markowitz's fill-in rule for a fixed column order),
and stops there: H is an echelon basis of the row lattice with positive
pivots, not its Hermite normal form, since the entries above the pivots are
left as they are.  An echelon basis suffices because every answer is read
off one routine, `_back_substitute`, which brings each pivot entry of a
dense vector into [0, pivot); it serves `DegreeLattice.reduce`, `hnf_solve`
and through them membership, normal forms and the Gysin solver.  For any
echelon basis of a lattice the pivot columns and pivot values are the same,
the representative of a vector with every pivot entry in [0, pivot) is the
same, and so are membership and, when the rows of M are independent, the
solution x of x * M = v.  `row_hnf` is the module's one integer
elimination: `smith` reads the invariant factors off alternating echelon
bases of a matrix and of its transpose.
"""

from itertools import compress
from math import gcd, lcm

from .polyring import GradedError, Poly, Record, SpectatorSplit, VarTable, sum_of_products


# -- integer matrix reduction -----------------------------------------------


def row_hnf(rows):
    """Row echelon basis of the row lattice, with its transform.

    Returns (H, U, pivots) with H = U * M (U unimodular) in row echelon form
    with positive pivot entries; the entries above the pivots are not
    reduced.  `pivots` is a list of (row_index, col_index) pairs in echelon
    order; the pivot columns and values are those of the Hermite normal
    form, which no caller needs (see the module docstring).

    Elimination brings M to echelon form one column at a time, with
    Euclidean steps and positive pivots.  Each step pivots on a row of least
    |entry| in the column: among rows tied there, the one with the fewest
    nonzero entries, then the lowest index, since a sparse pivot row makes
    cheap row operations and little fill-in (Markowitz, "The elimination
    form of the inverse and its application to linear programming", 1957).
    H and U depend on this rule; the pivots do not.

    M is a list of dense rows.  Each row of H and U is held as a
    {column: entry} dict of its nonzero entries, so a row operation walks
    only the nonzero entries of the row it subtracts, and H and U are
    returned as lists of such dicts.  The name says Hermite form; it stays
    because `bench/tracing.py` patches the kernel by name.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    # {column: entry} for the nonzero entries of each row
    H = [dict(zip(compress(range(ncols), row), filter(None, row))) for row in rows]
    U = [{i: 1} for i in range(m)]

    def row_op_sub(i, j, q):
        _sub(H[i], H[j], q)
        _sub(U[i], U[j], q)

    def row_swap(i, j):
        H[i], H[j] = H[j], H[i]
        U[i], U[j] = U[j], U[i]

    pivots = []
    r = 0
    for col in range(ncols):
        # eliminate within this column using Euclidean steps
        while True:
            nonzero = [i for i in range(r, m) if col in H[i]]
            if not nonzero:
                break
            # least |entry|, then fewest nonzero entries, then lowest index
            piv = min(nonzero, key=lambda i: (abs(H[i][col]), len(H[i])))
            if piv != r:
                row_swap(piv, r)
            # after the swap, every row below r with an entry here is in
            # `nonzero` still (row r's old content sits at index piv)
            p = H[r][col]
            done = True
            for i in nonzero:
                if i != r and col in H[i]:
                    row_op_sub(i, r, H[i][col] // p)
                    if col in H[i]:
                        done = False
            if done:
                break
        if r < m and col in H[r]:
            if H[r][col] < 0:
                H[r] = {k: -x for k, x in H[r].items()}
                U[r] = {k: -x for k, x in U[r].items()}
            pivots.append((r, col))
            r += 1
            if r == m:
                break
    return H, U, pivots


def _sub(row, other, q):
    """row -= q * other, in place, dropping entries that cancel."""
    for k, b in other.items():
        x = row.get(k, 0) - q * b
        if x:
            row[k] = x
        else:
            del row[k]


def _back_substitute(H, pivots, v):
    """Bring each pivot entry of the dense vector v into [0, pivot), in place.

    Walks the pivots in echelon order, subtracting q * H[r] from v; returns
    the (r, q) pairs it subtracted.  A row subtracted later is 0 in every
    earlier pivot column, so an entry once in range stays there; H need
    only be an echelon basis.  Most pivot entries of v are 0, and those are
    skipped before H is read.
    """
    used = []
    for r, c in pivots:
        a = v[c]
        if not a:
            continue
        q = a // H[r][c]
        if q:
            for k, h in H[r].items():
                v[k] -= q * h
            used.append((r, q))
    return used


def hnf_solve(H, U, pivots, v):
    """Integer x with x * M == v, given (H, U, pivots) = row_hnf(M); or None.

    Back-substitutes v against the echelon rows of H; v is in the lattice
    exactly when nothing is left, and then every quotient was exact.  The
    coefficients are carried over to the rows of M through U; x is unique
    when the rows of M are independent, else it depends on U.  Each entry
    x[k] depends only on column k of U, since the columns of U evolve
    independently under row operations.
    """
    v = list(v)
    used = _back_substitute(H, pivots, v)
    if any(v):
        return None
    x = [0] * len(U)
    for r, q in used:
        for k, b in U[r].items():
            x[k] += q * b
    return x


def smith(M):
    """Nonzero invariant factors of M, in divisibility order.

    Alternates echelon bases of the rows and of the columns (Kannan and
    Bachem, "Polynomial algorithms for computing the Smith and Hermite
    normal forms of an integer matrix", 1979): each pass runs `row_hnf`
    and transposes the nonzero echelon rows, restricted to the columns
    they occupy, until every echelon row has one entry.  A leading pivot
    that divides its row and column is isolated by the next pass and stays
    so, and one that does not is replaced by a smaller one, so the passes
    end.  The diagonal left is put into divisibility order.
    """
    factors, rows = None, M
    while factors is None:
        factors, rows = _smith_pass(row_hnf(rows))
    return factors


def _smith_pass(basis):
    """One pass of `smith` on the echelon basis (H, U, pivots) of its rows:
    (the invariant factors, None) when every echelon row has one entry,
    else (None, the dense transpose of the echelon rows, restricted to the
    columns they occupy) for the next pass."""
    H, _, pivots = basis
    echelon = [H[r] for r, _ in pivots]
    if all(len(h) == 1 for h in echelon):
        diag = [h[c] for h, (_, c) in zip(echelon, pivots)]
        return _divisibility_order(diag), None
    cols = sorted(set().union(*echelon))
    return None, [[h.get(c, 0) for h in echelon] for c in cols]


def _divisibility_order(diag):
    """The Smith form of a diagonal matrix: its entries sorted when each
    divides the next, else brought there by gcd/lcm steps,
    (a, b) -> (gcd, lcm), which keep the Smith form."""
    diag = sorted(diag)
    if any(b % a for a, b in zip(diag, diag[1:])):
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return diag


# -- per-degree lattices -----------------------------------------------------


class DegreeLattice:
    """The degree-d slice of the span of generator*monomial products.

    Columns are the keys of the degree-d monomials in descending graded-lex
    order; rows are labelled by (generator index, cofactor monomial key).
    An echelon basis of the rows is computed once, on first use, always
    with its transform, so `reduce` and `solve` share it in either order.
    Nothing needs the Hermite form: `reduce` returns the same vector against
    every echelon basis, and `solve` a valid x against any.
    """

    def __init__(self, table, generators, d):
        self.table = table
        self.degree = d
        self.cols = table.monomial_keys(d)
        self.col_index = {e: i for i, e in enumerate(self.cols)}
        rows = []
        labels = []
        for gi, g in enumerate(generators):
            gd = g.degree()
            if gd < 0 or gd > d:
                continue
            for mono in table.monomial_keys(d - gd):
                prod = g * Poly(table, {mono: 1})
                rows.append(self.vector(prod))
                labels.append((gi, mono))
        self.rows = rows
        self.labels = labels
        self._basis = None

    def _echelon(self):
        """(H, U, pivots) of the rows, built on first use and kept."""
        if self._basis is None:
            self._basis = row_hnf(self.rows) if self.rows else ([], [], [])
        return self._basis

    def vector(self, p):
        v = [0] * len(self.cols)
        for e, c in p.terms.items():
            v[self.col_index[e]] = c
        return v

    def poly(self, v):
        return Poly(self.table, {e: c for e, c in zip(self.cols, v) if c})

    def reduce(self, v):
        """Canonical representative of v modulo the lattice.

        Pivot-column entries are reduced into [0, pivot); the surviving
        monomials are the graded-lex-least spanning set.  Two vectors of
        v + L with every pivot entry in range differ by a lattice vector
        whose first nonzero pivot entry would be a nonzero multiple of its
        pivot smaller than it, so there is one such vector, the same
        against every echelon basis of L.
        """
        H, _, pivots = self._echelon()
        v = list(v)
        _back_substitute(H, pivots, v)
        return v

    def solve(self, v):
        """Coefficients over the labelled rows expressing v, or None."""
        H, U, pivots = self._echelon()
        return hnf_solve(H, U, pivots, v)

    def invariant_factors(self):
        """`smith` of the rows, its first pass run on the echelon basis
        they already have."""
        factors, rows = _smith_pass(self._echelon())
        return factors if rows is None else smith(rows)


def _unit_variable(g):
    """(variable index, sign) when g's leading term is +-v for one variable v.

    Every other term of such a g is graded-lex smaller than v, so it involves
    only variables after v in the table order.
    """
    expo, c = g.leading()
    if c in (1, -1) and sum(expo) == 1:
        return expo.index(1), c
    return None


def _split(p, i):
    """p as {e: p_e} with p = sum_e v^e * p_e, v the i-th variable."""
    return {e: q for (e,), q in p.split([p.table.names[i]]).items()}


def _substitute(parts, rho):
    """sum_e rho^e * p_e for the split {e: p_e} of a polynomial."""
    powers = [rho.table.one()]
    for _ in range(max(parts)):
        powers.append(powers[-1] * rho)
    return sum_of_products(rho.table, [(1, p, powers[e]) for e, p in parts.items()])


def _divided_difference(parts, v, rho):
    """Delta with p - p(v:=rho) == (v - rho) * Delta, for the split of p.

    Delta = sum_e p_e * S_e with S_e = v^(e-1) + v^(e-2)*rho + ... + rho^(e-1).
    """
    s = power = rho.table.one()
    products = []
    for e in range(1, max(parts) + 1):
        if e > 1:
            power = power * rho
            s = v * s + power
        if e in parts:
            products.append((1, parts[e], s))
    return sum_of_products(rho.table, products)


class GroupStructure(Record):
    """Quotient group in one degree: free rank plus torsion invariants."""

    __slots__ = ("degree", "free_rank", "torsion")

    def __init__(self, degree, free_rank, torsion):
        self.degree = degree
        self.free_rank = free_rank
        self.torsion = torsion

    def __str__(self):
        parts = []
        if self.free_rank:
            parts.append("Z^%d" % self.free_rank if self.free_rank > 1 else "Z")
        for t in self.torsion:
            parts.append("Z/%d" % t)
        return " + ".join(parts) if parts else "0"


class GradedIdeal:
    """Homogeneous ideal given by generators, queried per degree over Z.

    Generators whose leading term is +-v for a single variable v are used up
    front to substitute v out of the other generators, repeatedly, and every
    query is substituted the same way first.  The per-degree lattices are
    built from the generators that remain, over the variables they use; a
    query is split along the monomials in the other variables, and each
    piece is answered in its own degree (see the module docstring).
    """

    def __init__(self, generators):
        gens = [g for g in generators if not g.is_zero()]
        if not gens:
            raise GradedError("need at least one nonzero generator")
        table = gens[0].table
        for g in gens:
            if g.table != table:
                raise GradedError("generators over different tables")
            if not g.is_homogeneous():
                raise GradedError("generator %s is not homogeneous" % g)
        self.table = table
        self.generators = tuple(gens)
        self._eliminate()
        self._lattices = {}

    def _eliminate(self):
        """Substitute out unit-linear generators until none is left.

        Records the steps (variable index, image rho, sign s, combination)
        where s * (v - rho) is the eliminating generator after the earlier
        steps, and the combination expresses it in the original generators as
        {generator index: cofactor}.  The remaining generators keep such a
        combination too, so certificates can be lifted back.  The variables
        they use are the core of the spectator split.
        """
        table = self.table
        gens = list(self.generators)
        combos = [{i: table.one()} for i in range(len(gens))]
        live = list(range(len(gens)))
        steps = []
        while True:
            found = None
            for j in live:
                found = _unit_variable(gens[j])
                if found:
                    break
            if not found:
                break
            live.remove(j)
            i, sign = found
            v = table.var(table.names[i])
            rho = v - sign * gens[j]
            steps.append((i, rho, sign, combos[j]))
            for k in list(live):
                parts = _split(gens[k], i)
                if max(parts) == 0:
                    continue
                # gens[k] - gens[k](v:=rho) == sign * gens[j] * delta
                delta = _divided_difference(parts, v, rho)
                gens[k] = _substitute(parts, rho)
                _accumulate(combos[k], combos[j], -sign * delta)
                if gens[k].is_zero():
                    live.remove(k)
        self._steps = tuple(steps)
        core = set().union(*(gens[k].variables() for k in live))
        self._split = SpectatorSplit(table, core)
        gone = core | {table.names[i] for i, _, _, _ in steps}
        # the spectators a substituted query can hold
        self._spectators = VarTable(
            [v for v in zip(table.names, table.degrees) if v[0] not in gone],
            table.degree_bound,
        )
        core_table = self._split.core
        self._core_gens = tuple(gens[k].convert(core_table) for k in live)
        self._core_combos = tuple(combos[k] for k in live)

    def _substituted(self, p, cofactors=None):
        """p with the eliminated variables substituted out.

        With `cofactors` (generator index -> Poly) given, adds to it the
        multiples of the generators whose sum is p minus the result.
        """
        if p.table != self.table:
            raise GradedError("polynomial over a different table")
        for i, rho, sign, combo in self._steps:
            parts = _split(p, i)
            if max(parts, default=0) == 0:
                continue
            if cofactors is not None:
                v = self.table.var(self.table.names[i])
                delta = _divided_difference(parts, v, rho)
                _accumulate(cofactors, combo, sign * delta)
            p = _substitute(parts, rho)
        return p

    def lattice(self, d):
        """The degree-d lattice over the core variables."""
        if d not in self._lattices:
            self._lattices[d] = DegreeLattice(
                self._split.core, self._core_gens, d
            )
        return self._lattices[d]

    def _check_degree(self, d):
        if d > self.table.degree_bound:
            raise GradedError("degree %d above the bound" % d)

    def member(self, p):
        """Membership with certificate.

        Returns (True, certificate) or (False, None); the certificate is a
        list of (generator index, cofactor Poly) with
        sum(cofactor * generator) == p exactly.  p is a member exactly when
        each piece p_m of its spectator split is, and m times a certificate
        of p_m is one of m * p_m.
        """
        if p.is_zero():
            return True, []
        if not p.is_homogeneous():
            raise GradedError("membership requires a homogeneous polynomial")
        self._check_degree(p.degree())
        cof = {}
        pieces = {}  # generator index -> [(m, its cofactor in p_m)]
        for m, q in self._split.split(self._substituted(p, cof)):
            lat = self.lattice(q.degree())
            x = lat.solve(lat.vector(q))
            if x is None:
                return False, None
            terms = {}
            for coeff, (j, mono) in zip(x, lat.labels):
                if coeff:
                    terms.setdefault(j, {})[mono] = coeff
            for j, t in terms.items():
                pieces.setdefault(j, []).append((m, Poly(self._split.core, t)))
        for j, js in pieces.items():
            _accumulate(cof, self._core_combos[j], self._split.join(js))
        cert = sorted((gi, c) for gi, c in cof.items() if not c.is_zero())
        return True, cert

    def certificate_product(self, cert):
        return sum_of_products(
            self.table, [(1, cofactor, self.generators[gi]) for gi, cofactor in cert]
        )

    def normal_form(self, p):
        """Canonical representative of p modulo the ideal, one graded part
        at a time: sum_m m * nf(p_m) over the spectator split of each.

        Every monomial with an eliminated variable is a pivot column with
        pivot 1 in the full-table lattice, and the blocks m * L' of the
        full-table lattice occupy disjoint columns in their own graded-lex
        order, so this is the full-table lattice's representative.
        """
        if p.is_zero():
            return p
        if not p.is_homogeneous():
            terms = {}  # one homogeneous part per degree: no two share a key
            for part in p.graded_parts().values():
                terms.update(self.normal_form(part).terms)
            return Poly(self.table, terms)
        pieces = []
        for m, q in self._split.split(self._substituted(p)):
            lat = self.lattice(q.degree())
            pieces.append((m, lat.poly(lat.reduce(lat.vector(q)))))
        return self._split.join(pieces)

    def contains(self, other, up_to):
        """Generator-wise containment of `other` in self through degree up_to.

        Returns (ok, witness) where witness is the first failing generator.
        Raises GradedError when up_to is above the degree bound, since the
        generators of a degree above the bound were never computed.
        """
        self._check_degree(up_to)
        for g in other.generators:
            if g.degree() > up_to:
                continue
            if not self.normal_form(g).is_zero():
                return False, g
        return True, None

    def equal(self, other, up_to):
        """Equality of the two ideals in every degree through up_to.

        Two-sided generator-wise containment decides it: the degree-d slice
        of an ideal is spanned by its generators of degree at most d times
        monomials, so when each generator of degree at most up_to lies in
        the other ideal, the degree-d slices agree for every d <= up_to.
        Returns (ok, witness), the witness being ("missing from left ideal",
        g) or ("missing from right ideal", g) for the first generator g of
        one ideal that the other lacks.
        """
        ok, w = self.contains(other, up_to)
        if not ok:
            return False, ("missing from left ideal", w)
        ok, w = other.contains(self, up_to)
        if not ok:
            return False, ("missing from right ideal", w)
        return True, None

    def quotient_structure(self, d):
        """Free rank and torsion of the degree-d quotient module.

        The eliminated monomials are killed by unit pivots, and the quotient
        is the direct sum over the spectator monomials m of the core
        quotients in degree d - deg m: free ranks add, and the torsion of
        all blocks is put back into divisibility order.
        """
        self._check_degree(d)
        free = 0
        torsion = []
        for e in range(d + 1):
            count = len(self._spectators.monomial_keys(e))
            if not count:
                continue
            lat = self.lattice(d - e)
            factors = lat.invariant_factors()
            free += count * (len(lat.cols) - len(factors))
            torsion += [x for x in factors if x > 1] * count
        return GroupStructure(d, free, tuple(_divisibility_order(torsion)))


def _accumulate(acc, combo, factor):
    """acc += factor * combo, for {generator index: cofactor} maps."""
    for gi, c in combo.items():
        acc[gi] = acc.get(gi, factor.table.zero()) + factor * c
