"""Exact sparse multivariate polynomials over Z with a weighted grading.

Every polynomial lives over a fixed :class:`VarTable` which pins the variable
order (and hence the graded-lex term order used everywhere downstream), the
weight of each variable, and a global truncation degree.  All arithmetic is
exact integer arithmetic; products are truncated above the table's degree
bound.

Series division, the one step behind every Whitney and Thom-Porteous
computation, is :func:`series_parts`: it returns the homogeneous parts
q_0..q_k of a / b for a series b with constant term 1, by the recurrence
q_d = a_d - sum_{j>=1} b_j q_{d-j}, so only the degrees a caller reads are
ever multiplied.
"""

from __future__ import annotations

import itertools
import operator


class ChowError(Exception):
    """Root of every error chowcalc raises on purpose."""


class PolyError(ChowError):
    pass


class TableMismatchError(PolyError):
    """Operands live over different variable tables."""


class NotSymmetricError(PolyError):
    """Input to the symmetric reduction is not symmetric in the roots."""


class VarTable:
    """Ordered table of graded variables with a global degree bound.

    The order of the variables is fixed at creation and determines the
    canonical term order: graded lexicographic, earlier variables more
    significant.
    """

    __slots__ = ("names", "degrees", "degree_bound", "index", "_mono_cache")

    def __init__(self, variables, degree_bound=10):
        names = []
        degrees = []
        for name, deg in variables:
            if not isinstance(name, str) or not name:
                raise PolyError("variable names must be nonempty strings")
            if deg < 1:
                raise PolyError("variable degrees must be >= 1, got %r" % (deg,))
            names.append(name)
            degrees.append(int(deg))
        if len(set(names)) != len(names):
            raise PolyError("duplicate variable names: %r" % (names,))
        if degree_bound < 1:
            raise PolyError("degree bound must be positive")
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.degree_bound = int(degree_bound)
        self.index = {n: i for i, n in enumerate(self.names)}
        self._mono_cache = {}

    # Tables compare by content so that rebuilt/lifted tables interoperate.
    def __eq__(self, other):
        return (
            isinstance(other, VarTable)
            and self.names == other.names
            and self.degrees == other.degrees
            and self.degree_bound == other.degree_bound
        )

    def __hash__(self):
        return hash((self.names, self.degrees, self.degree_bound))

    def __repr__(self):
        vs = ", ".join("%s:%d" % nd for nd in zip(self.names, self.degrees))
        return "VarTable(%s; bound=%d)" % (vs, self.degree_bound)

    @property
    def nvars(self):
        return len(self.names)

    def mono_degree(self, expo):
        return sum(map(operator.mul, expo, self.degrees))

    def zero(self):
        return Poly(self, {})

    def const(self, n):
        n = int(n)
        if n == 0:
            return self.zero()
        return Poly(self, {(0,) * self.nvars: n})

    def one(self):
        return self.const(1)

    def var(self, name):
        if name not in self.index:
            raise PolyError("unknown variable %r" % (name,))
        expo = [0] * self.nvars
        expo[self.index[name]] = 1
        return Poly(self, {tuple(expo): 1})

    def gens(self):
        return [self.var(n) for n in self.names]

    def monomials(self, d):
        """All exponent vectors of weighted degree exactly d, descending lex."""
        if d < 0 or d > self.degree_bound:
            raise PolyError("degree %d out of range [0, %d]" % (d, self.degree_bound))
        if d not in self._mono_cache:
            out = []

            def rec(i, remaining, prefix):
                if i == self.nvars:
                    if remaining == 0:
                        out.append(tuple(prefix))
                    return
                w = self.degrees[i]
                for e in range(remaining // w, -1, -1):
                    prefix.append(e)
                    rec(i + 1, remaining - e * w, prefix)
                    prefix.pop()

            rec(0, d, [])
            self._mono_cache[d] = out
        return self._mono_cache[d]

    def extended(self, extra):
        """A new table with `extra` (name, degree) pairs appended, same bound."""
        return VarTable(
            list(zip(self.names, self.degrees)) + list(extra), self.degree_bound
        )

    def poly(self, terms):
        """Build a polynomial from an exponent->coefficient mapping."""
        clean = {}
        for expo, c in terms.items():
            c = int(c)
            if c == 0:
                continue
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.nvars:
                raise PolyError("exponent vector has wrong length")
            if self.mono_degree(expo) > self.degree_bound:
                raise PolyError("term exceeds the degree bound")
            clean[expo] = c
        return Poly(self, clean)


def _fmt_mono(table, expo):
    parts = []
    for name, e in zip(table.names, expo):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts)


class Poly:
    """Sparse polynomial: a finite map from exponent vector to nonzero int."""

    __slots__ = ("table", "terms")

    def __init__(self, table, terms):
        self.table = table
        self.terms = terms

    # -- predicates / accessors -------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Maximum weighted degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        md = self.table.mono_degree
        return max(md(e) for e in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        md = self.table.mono_degree
        degs = {md(e) for e in self.terms}
        return len(degs) == 1

    def coeff(self, expo):
        return self.terms.get(tuple(expo), 0)

    def constant(self):
        return self.terms.get((0,) * self.table.nvars, 0)

    def leading(self):
        """(expo, coeff) of the graded-lex greatest term."""
        if not self.terms:
            raise PolyError("zero polynomial has no leading term")
        md = self.table.mono_degree
        expo = max(self.terms, key=lambda e: (md(e), e))
        return expo, self.terms[expo]

    def variables(self):
        """Names of the variables actually occurring."""
        used = set()
        for expo in self.terms:
            for name, e in zip(self.table.names, expo):
                if e:
                    used.add(name)
        return used

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.table != other.table:
            raise TableMismatchError("polynomials over different variable tables")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.table.const(other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Poly(self.table, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.table.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return self.table.zero()
            return Poly(self.table, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        table = self.table
        md = table.mono_degree
        bound = table.degree_bound
        add = operator.add
        terms = {}
        # right operand in ascending degree, so each row stops at the bound
        b_items = sorted(
            ((e, c, md(e)) for e, c in other.terms.items()),
            key=operator.itemgetter(2),
        )
        for ea, ca in self.terms.items():
            room = bound - md(ea)
            for eb, cb, db in b_items:
                if db > room:
                    break
                e = tuple(map(add, ea, eb))
                s = terms.get(e, 0) + ca * cb
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return Poly(table, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise PolyError("exponent must be a nonnegative integer")
        result = self.table.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.table.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash((self.table, frozenset(self.terms.items())))

    # -- grading -----------------------------------------------------------

    def graded_part(self, d):
        table = self.table
        if d < 0 or d > table.degree_bound:
            raise PolyError("degree %d out of range [0, %d]" % (d, table.degree_bound))
        md = table.mono_degree
        return Poly(table, {e: c for e, c in self.terms.items() if md(e) == d})

    def graded_parts(self):
        """Map degree -> homogeneous part, for occurring degrees only."""
        md = self.table.mono_degree
        out = {}
        for e, c in self.terms.items():
            out.setdefault(md(e), {})[e] = c
        return {d: Poly(self.table, t) for d, t in sorted(out.items())}

    def truncated(self, d):
        md = self.table.mono_degree
        return Poly(self.table, {e: c for e, c in self.terms.items() if md(e) <= d})

    # -- substitution ------------------------------------------------------

    def substitute(self, assignments, table=None):
        """Simultaneous substitution of variables by polynomials.

        `assignments` maps variable names to Poly or int images.  Each image
        must be homogeneous of the variable's weight (or zero).  Variables not
        mentioned map to themselves; with `table` given, the result lives over
        that table and unmapped variables must exist there by name.
        """
        target = self.table if table is None else table
        images = {}
        for name, img in assignments.items():
            if name not in self.table.index:
                raise PolyError("unknown variable %r in substitution" % (name,))
            if isinstance(img, int):
                img = target.const(img)
            if img.table != target:
                raise TableMismatchError("substitution image over wrong table")
            want = self.table.degrees[self.table.index[name]]
            if not img.is_zero() and not (img.is_homogeneous() and img.degree() == want):
                raise PolyError(
                    "image of %r must be homogeneous of degree %d or zero" % (name, want)
                )
            images[name] = img
        for name in self.variables():
            if name not in images:
                if name not in target.index:
                    raise PolyError("variable %r missing from target table" % (name,))
                images[name] = target.var(name)

        pow_cache = {}

        def power(name, e):
            key = (name, e)
            if key not in pow_cache:
                pow_cache[key] = images[name] ** e
            return pow_cache[key]

        out = target.zero()
        for expo, c in self.terms.items():
            term = target.const(c)
            for name, e in zip(self.table.names, expo):
                if e:
                    term = term * power(name, e)
                    if term.is_zero():
                        break
            out = out + term
        return out

    def convert(self, table):
        """Re-express over another table containing all used variables.

        Exponents are moved by variable name; terms above the target's
        degree bound are dropped, as a truncating product would drop them.
        """
        if table == self.table:
            return self
        src = self.table.index
        for name in self.table.names:
            if name not in table.index and any(
                e[src[name]] for e in self.terms
            ):
                raise PolyError("variable %r missing from target table" % (name,))
        pick = [src.get(name) for name in table.names]
        md = table.mono_degree
        bound = table.degree_bound
        terms = {}
        for expo, c in self.terms.items():
            e = tuple(0 if i is None else expo[i] for i in pick)
            if md(e) <= bound:
                terms[e] = c
        return Poly(table, terms)

    # -- evaluation --------------------------------------------------------

    def eval(self, values):
        """Evaluate at numeric values (int or Fraction) for every used variable."""
        total = 0
        for expo, c in self.terms.items():
            v = c
            for name, e in zip(self.table.names, expo):
                if e:
                    v *= values[name] ** e
            total += v
        return total

    # -- canonical string --------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        md = self.table.mono_degree
        keys = sorted(self.terms, key=lambda e: (md(e), e), reverse=True)
        pieces = []
        for i, expo in enumerate(keys):
            c = self.terms[expo]
            mono = _fmt_mono(self.table, expo)
            mag = abs(c)
            if mono:
                body = mono if mag == 1 else "%d*%s" % (mag, mono)
            else:
                body = str(mag)
            if i == 0:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self):
        return "Poly(%s)" % (self,)


# -- power series helpers ---------------------------------------------------


def series_parts(a, b, up_to):
    """Homogeneous parts [q_0, ..., q_up_to] of the truncated quotient a / b.

    `b` must have constant term 1; `up_to` is clipped to the degree bound.
    """
    if b.constant() != 1:
        raise PolyError("series inverse requires constant term 1")
    a._check(b)
    table = a.table
    zero = table.zero()
    a_parts = a.graded_parts()
    # q_d = a_d - sum_{j>=1} b_j q_{d-j}
    minus_b = [(j, -bj) for j, bj in b.graded_parts().items() if j > 0]
    q = []
    for d in range(min(up_to, table.degree_bound) + 1):
        acc = a_parts.get(d, zero)
        for j, bj in minus_b:
            if j > d:
                break
            if not q[d - j].is_zero():
                acc = acc + bj * q[d - j]
        q.append(acc)
    return q


def series_invert(p):
    """Truncated multiplicative inverse of a series with constant term 1."""
    return series_quotient(p.table.one(), p)


def series_quotient(a, b):
    """Truncated quotient a / b for a series b with constant term 1."""
    return sum(series_parts(a, b, a.table.degree_bound), a.table.zero())


def poly_det(rows):
    """Determinant of a small square matrix of polynomials (cofactor expansion)."""
    n = len(rows)
    if n == 0:
        raise PolyError("empty determinant")
    if any(len(r) != n for r in rows):
        raise PolyError("determinant matrix must be square")
    if n == 1:
        return rows[0][0]
    table = rows[0][0].table
    out = table.zero()
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        sub = poly_det(minor)
        out = out + (entry * sub if j % 2 == 0 else -(entry * sub))
    return out


# -- symmetric reduction (splitting principle) -------------------------------


class RootSet:
    """Auxiliary degree-1 formal Chern roots x_1..x_n on their own table."""

    def __init__(self, n, degree_bound, prefix="x"):
        if n < 1:
            raise PolyError("need at least one root")
        self.n = n
        self.names = tuple("%s%d" % (prefix, i) for i in range(1, n + 1))
        self.table = VarTable([(nm, 1) for nm in self.names], degree_bound)

    def roots(self):
        return [self.table.var(nm) for nm in self.names]

    def elementary(self, i):
        """Elementary symmetric polynomial e_i of the roots."""
        if i < 0 or i > self.n:
            raise PolyError("elementary index out of range")
        if i == 0:
            return self.table.one()
        terms = {}
        for combo in itertools.combinations(range(self.n), i):
            expo = [0] * self.n
            for j in combo:
                expo[j] = 1
            terms[tuple(expo)] = 1
        return Poly(self.table, terms)


def _swap_vars(p, i, j):
    terms = {}
    for expo, c in p.terms.items():
        e = list(expo)
        e[i], e[j] = e[j], e[i]
        terms[tuple(e)] = c
    return Poly(p.table, terms)


def is_symmetric(p, rootset):
    """Invariance of p under all permutations of the roots (adjacent swaps)."""
    idx = [p.table.index[nm] for nm in rootset.names]
    for a, b in zip(idx, idx[1:]):
        if _swap_vars(p, a, b) != p:
            return False
    return True


def symmetric_reduce(p, rootset, target_table, target_names):
    """Rewrite a symmetric polynomial in the roots in the elementary basis.

    `target_names` are the images of e_1..e_n inside `target_table` (they must
    have degrees 1..n there).  Classical leading-term subtraction; exact and
    self-certifying by re-expansion.
    """
    n = rootset.n
    if p.table != rootset.table:
        raise TableMismatchError("polynomial not over the root table")
    if len(target_names) != n:
        raise PolyError("need exactly %d target variables" % n)
    for i, nm in enumerate(target_names, start=1):
        if target_table.degrees[target_table.index[nm]] != i:
            raise PolyError("target variable %r must have degree %d" % (nm, i))
    if not is_symmetric(p, rootset):
        raise NotSymmetricError("polynomial is not symmetric in the roots")

    e_expand = [rootset.table.one()] + [rootset.elementary(i) for i in range(1, n + 1)]
    expand_cache = {}

    def expand_e_mono(kvec):
        key = tuple(kvec)
        if key not in expand_cache:
            out = rootset.table.one()
            for i, k in enumerate(kvec, start=1):
                for _ in range(k):
                    out = out * e_expand[i]
            expand_cache[key] = out
        return expand_cache[key]

    work = p
    result = target_table.zero()
    while not work.is_zero():
        expo, c = work.leading()
        if any(expo[i] < expo[i + 1] for i in range(n - 1)):
            raise NotSymmetricError("non-symmetric leading term encountered")
        # lambda_i = a_i - a_{i+1} gives the e-monomial with this leading term
        kvec = [expo[i] - (expo[i + 1] if i + 1 < n else 0) for i in range(n)]
        work = work - c * expand_e_mono(kvec)
        mono = target_table.one()
        for i, k in enumerate(kvec):
            if k:
                mono = mono * target_table.var(target_names[i]) ** k
        result = result + c * mono
    return result
