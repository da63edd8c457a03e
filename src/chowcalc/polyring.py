"""Exact sparse multivariate polynomials over Z with a weighted grading.

Every polynomial lives over a fixed :class:`VarTable` which pins the variable
order (and hence the graded-lex term order used everywhere downstream), the
weight of each variable, and a global truncation degree.  All arithmetic is
exact integer arithmetic; products are truncated above the table's degree
bound.

Each term of `Poly.terms` is keyed by one packed int, not by its exponent
tuple.  With n variables and B = degree_bound.bit_length(), the key of an
exponent vector e of weighted degree d is

    d << (n * B)  |  e_0 << ((n - 1) * B)  |  ...  |  e_(n-1)

one B-bit field per variable, earlier variables more significant, under a
top field holding the weighted degree.  So int order is the graded-lex term
order, `key >> (n * B)` is the degree and the constant term has key 0.
Every exponent of a term is at most its degree, so it fits its field.  The
key of a product is the sum of the keys: when the degrees add up to at most
the bound, every exponent of the product is at most the bound too, so no
field carries into the next; when they add up to more, the sum is at least
(bound + 1) << (n * B), so one comparison with that limit is the truncation
test.  Exponent tuples are met only at the boundary: `VarTable.poly`,
`monomials`, `Poly.coeff` and `Poly.leading`, through `VarTable.pack` and
`unpack`, and `Poly.split`, which groups a polynomial's terms by the
exponent tuple of some of its variables.  This module is the only one that
reads the layout.  A layer above that needs a class in pieces asks
`Poly.split` (by the exponents of named variables), `SpectatorSplit` (by
the monomials in the variables outside a core, held as keys) or
`VarTable.rekey` (keys moved between tables), and uses a key only as a
dict key whose int order is the term order.

Series division, the one step behind every Whitney and Thom-Porteous
computation, is :func:`series_parts`: it returns the homogeneous parts
q_0..q_k of a / b for a series b with constant term 1, by the recurrence
q_d = a_d - sum_{j>=1} b_j q_{d-j}, so only the degrees a caller reads are
ever multiplied.  That sum, like every sum of products here and in the layers
above, is built in one dict by :func:`sum_of_products`.

Printing is :func:`sum_text`: one pass over classes whose key ranges descend
one after another (one polynomial, or a bundle's classes from the top),
appending sign, magnitude and monomial to one list.  `_fmt_mono` builds each
monomial's text once per table from the table's piece table, whose row j holds
`name` and `name^e` (e up to bound // weight) for key field j from the right.
"""

import functools
import itertools
import operator

from . import DEFAULT_DEGREE_BOUND


class ChowError(Exception):
    """Root of every error chowcalc raises on purpose."""


class PolyError(ChowError):
    pass


class GradedError(ChowError):
    """Raised by `zgraded`; defined here, so naming it loads no lattice code."""


class TableMismatchError(PolyError):
    """Operands live over different variable tables."""


class NotSymmetricError(PolyError):
    """Input to the symmetric reduction is not symmetric in the roots."""


class Record:
    """A plain value class: a subclass lists its fields in `__slots__` and
    sets them in `__init__`; instances compare equal when they are of one
    class with equal fields, and print as `Name(field=value, ...)`."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__name__,
            ", ".join("%s=%r" % (f, getattr(self, f)) for f in self.__slots__),
        )


def json_text(obj):
    """`json.dumps(obj, indent=2)`, in the same bytes, for dicts with str
    keys, lists, str, bool, int, float and None.

    An `indent` sends `json.dumps` to its pure-Python encoder; this writes
    the same layout around the C string escaper that `json` uses, without
    loading the `json` package.
    """
    from _json import encode_basestring_ascii as quote

    def write(obj, indent):
        if isinstance(obj, str):
            return quote(obj)
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        if isinstance(obj, int):
            return int.__repr__(obj)
        if isinstance(obj, float):
            if obj - obj == 0:
                return float.__repr__(obj)
            return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
        inner = indent + "  "
        # a str value is quoted in place: most values of a report are str
        if isinstance(obj, dict):
            brackets = "{}"
            items = [
                "%s: %s" % (quote(k), quote(v) if v.__class__ is str else write(v, inner))
                for k, v in obj.items()
            ]
        elif isinstance(obj, list):
            brackets = "[]"
            items = [quote(v) if v.__class__ is str else write(v, inner) for v in obj]
        else:
            raise TypeError("cannot write %s as JSON" % type(obj).__name__)
        if not items:
            return brackets
        return "%s\n%s%s\n%s%s" % (
            brackets[0], inner, (",\n" + inner).join(items), indent, brackets[1]
        )

    return write(obj, "")


class VarTable:
    """Ordered table of graded variables with a global degree bound.

    The order of the variables is fixed at creation and determines the
    canonical term order: graded lexicographic, earlier variables more
    significant.  It also fixes the packed key layout (see the module
    docstring): `bits` per exponent field, `offsets` of the fields, and the
    degree field at `shift`.
    """

    __slots__ = (
        "names", "degrees", "degree_bound", "index",
        "bits", "mask", "shift", "offsets", "limit",
        "_mono_cache", "_mono_tails", "_mono_text", "_mono_pieces",
    )

    def __init__(self, variables, degree_bound=DEFAULT_DEGREE_BOUND):
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
        n = len(names)
        self.bits = self.degree_bound.bit_length()
        self.mask = (1 << self.bits) - 1
        self.shift = n * self.bits
        self.offsets = tuple((n - 1 - i) * self.bits for i in range(n))
        # every key at or above the limit is above the degree bound
        self.limit = (self.degree_bound + 1) << self.shift
        self._mono_cache = {}
        self._mono_tails = {}
        self._mono_text = {}
        self._mono_pieces = None

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

    def pack(self, expo):
        """The key of an exponent vector of this table's monomials.

        Raises PolyError unless `expo` has one nonnegative integral entry
        per variable and weighted degree at most the bound.
        """
        if len(expo) != len(self.names):
            raise PolyError("exponent vector has wrong length")
        key = d = 0
        for e, w in zip(expo, self.degrees):
            e = _integral(e, "exponent")
            if e < 0:
                raise PolyError("negative exponent %r" % (e,))
            key = key << self.bits | e
            d += e * w
        if d > self.degree_bound:
            raise PolyError("term exceeds the degree bound")
        return d << self.shift | key

    def unpack(self, key):
        """The exponent vector of a key."""
        mask = self.mask
        return tuple([key >> off & mask for off in self.offsets])

    def zero(self):
        return Poly(self, {})

    def const(self, n):
        n = int(n)
        if n == 0:
            return self.zero()
        return Poly(self, {0: n})

    def one(self):
        return self.const(1)

    def var_key(self, name):
        """The key of the monomial `name`."""
        if name not in self.index:
            raise PolyError("unknown variable %r" % (name,))
        i = self.index[name]
        return self.degrees[i] << self.shift | 1 << self.offsets[i]

    def var(self, name):
        return Poly(self, {self.var_key(name): 1})

    def gens(self):
        return [self.var(n) for n in self.names]

    def monomials(self, d):
        """All exponent vectors of weighted degree exactly d, descending lex."""
        return [self.unpack(k) for k in self.monomial_keys(d)]

    def monomial_keys(self, d):
        """The keys of `monomials(d)`, in the same (descending) order.

        The enumeration recurses over the variables in order; it is
        memoised on (variable index, remaining degree), so each
        sub-enumeration is built once per table, whatever d asked for it.
        """
        if d < 0 or d > self.degree_bound:
            raise PolyError("degree %d out of range [0, %d]" % (d, self.degree_bound))
        if d not in self._mono_cache:
            if self.names:
                top = d << self.shift
                keys = [top | t for t in self._tails(0, d)]
            else:
                keys = [0] if d == 0 else []
            self._mono_cache[d] = keys
        return self._mono_cache[d]

    def _tails(self, i, r):
        """Keys, without the degree field, of the monomials in variables
        i, i+1, ... of weighted degree r, descending."""
        tails = self._mono_tails.get((i, r))
        if tails is None:
            w, off = self.degrees[i], self.offsets[i]
            if i == len(self.names) - 1:
                tails = [r // w << off] if r % w == 0 else []
            else:
                tails = [
                    e << off | t
                    for e in range(r // w, -1, -1)
                    for t in self._tails(i + 1, r - e * w)
                ]
            self._mono_tails[(i, r)] = tails
        return tails

    def rekey(self, target, names):
        """A function taking keys of this table to keys of `target`.

        It keeps the exponents of the variables `names` (which both tables
        have), drops every other exponent, and recomputes the degree with
        the target's weights.  A result above the target's degree bound is
        at or above `target.limit`: the caller drops or rejects it.
        """
        moves = [
            (self.offsets[self.index[nm]], target.offsets[target.index[nm]],
             target.degrees[target.index[nm]])
            for nm in names
        ]
        mask, shift = self.mask, target.shift

        def move(key):
            out = deg = 0
            for src, dst, w in moves:
                e = key >> src & mask
                if e:
                    out |= e << dst
                    deg += e * w
            return deg << shift | out

        return move

    def poly(self, terms):
        """Build a polynomial from an exponent->coefficient mapping.

        Exponents must be nonnegative integers and coefficients integers
        (an integral float or Fraction is taken as its integer).
        """
        clean = {}
        for expo, c in terms.items():
            c = _integral(c, "coefficient")
            key = self.pack(expo)
            if c:
                clean[key] = c
        return Poly(self, clean)


class SpectatorSplit:
    """Classes over `table` as sums of spectator monomials times core classes.

    The core is the variables `core_names`, in table order, and every other
    variable of `table` is a spectator.  `split` writes p = sum_m m * p_m
    over the monomials m in the spectators, and `join` multiplies such
    pieces back.  A spectator monomial is held as its key over `table`, and
    p_m lives over `core`, the table of the core variables; so a product
    m * q is the key sum, the two touching disjoint fields.
    """

    def __init__(self, table, core_names):
        core = set(core_names)
        names = [nm for nm in table.names if nm in core]
        self.table = table
        self.core = VarTable(
            [(nm, table.degrees[table.index[nm]]) for nm in names],
            table.degree_bound,
        )
        self._to_core = table.rekey(self.core, names)
        self._from_core = self.core.rekey(table, names)
        # the spectator fields and the degree field of a key
        self._keep = ~sum(
            table.mask << table.offsets[table.index[nm]] for nm in names
        )

    def split(self, p):
        """The pieces (key of m, p_m) of p, one per spectator monomial m."""
        to_core, keep = self._to_core, self._keep
        shift, core_shift = self.table.shift, self.core.shift
        groups = {}
        for k, c in p.terms.items():
            ck = to_core(k)
            m = (k & keep) - (ck >> core_shift << shift)
            groups.setdefault(m, {})[ck] = c
        return [(m, Poly(self.core, t)) for m, t in groups.items()]

    def join(self, pieces):
        """sum m * q over `table` for pieces (key of m, q over `core`) with
        distinct spectator monomials m."""
        from_core = self._from_core
        terms = {}
        for m, q in pieces:
            for k, c in q.terms.items():
                terms[m + from_core(k)] = c
        return Poly(self.table, terms)


def _integral(x, what):
    """x as an int, or PolyError if it is not an integer."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        raise PolyError("%s %r is not an integer" % (what, x)) from None
    if n != x:
        raise PolyError("%s %r is not an integer" % (what, x))
    return n


def _exponents(table, key):
    """(variable index, exponent) for each nonzero exponent field of a key,
    in table order.  The highest set bit names the next field, so zero
    fields are never visited."""
    bits, last = table.bits, len(table.names) - 1
    rest = key & ((1 << table.shift) - 1)
    while rest:
        off = (rest.bit_length() - 1) // bits * bits
        e = rest >> off
        rest ^= e << off
        yield last - off // bits, e


def _fmt_mono(table, key):
    """The monomial of a key as text, remembered per table: its nonzero
    fields, highest first, looked up in the table's piece table.  A row
    grows to the largest exponent printed so far, not to the degree bound."""
    rows = table._mono_pieces
    if rows is None:
        rows = table._mono_pieces = [["", name] for name in reversed(table.names)]
    bits, rest, pieces = table.bits, key & ((1 << table.shift) - 1), []
    while rest:
        j = (rest.bit_length() - 1) // bits
        e = rest >> j * bits
        rest ^= e << j * bits
        row = rows[j]
        if e >= len(row):
            row += ["%s^%d" % (row[1], x) for x in range(len(row), e + 1)]
        pieces.append(row[e])
    text = table._mono_text[key] = "*".join(pieces)
    return text


def sum_text(table, classes):
    """The text of the sum of `classes` over `table`: one class, or
    homogeneous classes of descending degree; `0` for the zero sum."""
    pieces = []
    append, texts = pieces.append, table._mono_text
    try:
        for terms in (p.terms for p in classes):
            for key in sorted(terms, reverse=True):
                c, mono = terms[key], texts.get(key)
                if mono is None:
                    mono = _fmt_mono(table, key)
                append(" - " if c < 0 else " + ")
                if c < 0:
                    c = -c
                if c != 1 or not mono:
                    append(str(c) + "*" if mono else str(c))
                append(mono)
    except ValueError:  # past the interpreter's int/str digit limit
        raise PolyError("coefficient too large to print") from None
    if not pieces:
        return "0"
    pieces[0] = "" if pieces[0] == " + " else "-"
    return "".join(pieces)


class Poly:
    """Sparse polynomial: a finite map from packed monomial key to nonzero
    int (see the module docstring for the key layout)."""

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
        return max(self.terms) >> self.table.shift

    def is_homogeneous(self):
        if not self.terms:
            return True
        shift = self.table.shift
        return min(self.terms) >> shift == max(self.terms) >> shift

    def coeff(self, expo):
        """Coefficient of the monomial with exponent vector `expo`."""
        return self.terms.get(self.table.pack(expo), 0)

    def constant(self):
        return self.terms.get(0, 0)

    def leading(self):
        """(expo, coeff) of the graded-lex greatest term."""
        if not self.terms:
            raise PolyError("zero polynomial has no leading term")
        key = max(self.terms)
        return self.table.unpack(key), self.terms[key]

    def variables(self):
        """Names of the variables actually occurring."""
        used = functools.reduce(operator.or_, self.terms, 0)
        return {self.table.names[i] for i, _ in _exponents(self.table, used)}

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.table is not other.table and self.table != other.table:
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
        a, b = self.terms, other.terms
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            # a one-term operand shifts the other's keys: no two products
            # share a key, so there is nothing to sort and nothing to cancel
            ((ka, ca),) = a.items()
            below = self.table.limit - ka
            return Poly(self.table, {ka + kb: ca * cb for kb, cb in b.items() if kb < below})
        return sum_of_products(self.table, ((1, self, other),))

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
        t = other.table
        return (self.table is t or self.table == t) and self.terms == other.terms

    def __hash__(self):
        return hash((self.table, frozenset(self.terms.items())))

    # -- grading -----------------------------------------------------------

    def graded_part(self, d):
        table = self.table
        if d < 0 or d > table.degree_bound:
            raise PolyError("degree %d out of range [0, %d]" % (d, table.degree_bound))
        shift = table.shift
        return Poly(table, {k: c for k, c in self.terms.items() if k >> shift == d})

    def graded_parts(self):
        """Map degree -> homogeneous part, for occurring degrees only."""
        shift = self.table.shift
        out = {}
        for k, c in self.terms.items():
            out.setdefault(k >> shift, {})[k] = c
        return {d: Poly(self.table, t) for d, t in sorted(out.items())}

    # -- substitution ------------------------------------------------------

    def split(self, names):
        """p as {e: p_e} with p = sum_e prod_j names[j]^e[j] * p_e, e running
        over the exponent tuples of `names` in p's terms and each p_e, over
        p's table, free of `names`.  An unknown name is a PolyError."""
        table = self.table
        try:
            idx = [table.index[name] for name in names]
        except KeyError as exc:
            raise PolyError("unknown variable %r in split" % exc.args) from None
        mask, shift = table.mask, table.shift
        offsets = [table.offsets[i] for i in idx]
        weights = [table.degrees[i] for i in idx]
        fields = sum([mask << off for off in offsets])
        groups = {}  # the terms by their fields of `names`
        for key, c in self.terms.items():
            groups.setdefault(key & fields, {})[key] = c
        parts = {}
        for sel, t in groups.items():
            e = tuple([sel >> off & mask for off in offsets])
            mono = sum(map(operator.mul, e, weights)) << shift | sel  # prod names^e
            parts[e] = Poly(table, {key - mono: c for key, c in t.items()})
        return parts

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

        names, one = self.table.names, target.one()

        def products():
            # c * (the powers but the last) * (the last power), for each term
            for key, c in self.terms.items():
                fields = _exponents(self.table, key)
                *rest, last = [power(names[i], e) for i, e in fields] or [one]
                yield c, functools.reduce(operator.mul, rest) if rest else one, last

        return sum_of_products(target, products())

    def convert(self, table):
        """Re-express over another table containing all used variables.

        Exponents are moved by variable name; terms above the target's
        degree bound are dropped, as a truncating product would drop them.
        """
        if table is self.table or table == self.table:
            return self
        for name in self.variables():
            if name not in table.index:
                raise PolyError("variable %r missing from target table" % (name,))
        move = self.table.rekey(
            table, [nm for nm in self.table.names if nm in table.index]
        )
        limit = table.limit
        terms = {}
        for key, c in self.terms.items():
            k = move(key)
            if k < limit:
                terms[k] = c
        return Poly(table, terms)

    # -- evaluation --------------------------------------------------------

    def eval(self, values):
        """Evaluate at numeric values (int or Fraction) for every used variable.

        Raises PolyError naming a used variable that `values` lacks.
        """
        names = self.table.names
        total = 0
        for key, c in self.terms.items():
            for i, e in _exponents(self.table, key):
                try:
                    c *= values[names[i]] ** e
                except KeyError:
                    raise PolyError("no value for variable %r" % names[i]) from None
            total += c
        return total

    # -- canonical string --------------------------------------------------

    def __str__(self):
        return sum_text(self.table, (self,))

    def __repr__(self):
        return "Poly(%s)" % (self,)


# -- sums of products ----------------------------------------------------------


def sum_of_products(table, triples):
    """sum(coef * a * b) over the (int coef, Poly a, Poly b) triples, each
    product truncated as `Poly.__mul__` truncates, built in one dict.

    `triples` may be any iterable; it is consumed once.
    """
    limit = table.limit
    terms = {}
    get = terms.get
    for coef, a, b in triples:
        if not (a.table is table is b.table or a.table == table == b.table):
            raise TableMismatchError("polynomials over different variable tables")
        if not (coef and a.terms and b.terms):
            continue
        # b in ascending key order, so ascending degree: each row stops at
        # the first key past the degree bound
        b_items = sorted(b.terms.items())
        for ka, ca in a.terms.items():
            ca *= coef
            for kb, cb in b_items:
                k = ka + kb
                if k >= limit:
                    break
                s = get(k, 0) + ca * cb
                if s:
                    terms[k] = s
                else:
                    del terms[k]
    return Poly(table, terms)


# -- power series helpers ---------------------------------------------------


def series_parts(a, b, up_to):
    """Homogeneous parts [q_0, ..., q_up_to] of the truncated quotient a / b.

    `b` must have constant term 1; `up_to` is clipped to the degree bound.
    """
    if b.constant() != 1:
        raise PolyError("series inverse requires constant term 1")
    a._check(b)
    table = a.table
    zero, one = table.zero(), table.one()
    a_parts = a.graded_parts()
    b_parts = [(j, bj) for j, bj in b.graded_parts().items() if j > 0]
    # q_d = a_d - sum_{j>=1} b_j q_{d-j}
    q = []
    for d in range(min(up_to, table.degree_bound) + 1):
        q.append(sum_of_products(table, [(1, a_parts.get(d, zero), one)] + [
            (-1, bj, q[d - j]) for j, bj in b_parts if j <= d
        ]))
    return q


def series_invert(p):
    """Truncated multiplicative inverse of a series with constant term 1."""
    t = p.table
    return sum(series_parts(t.one(), p, t.degree_bound), t.zero())


def poly_det(rows):
    """Determinant of a small square matrix of polynomials (cofactor expansion)."""
    n = len(rows)
    if n == 0:
        raise PolyError("empty determinant")
    if any(len(r) != n for r in rows):
        raise PolyError("determinant matrix must be square")
    if n == 1:
        return rows[0][0]
    return sum_of_products(rows[0][0].table, (
        (-1 if j % 2 else 1, entry,
         poly_det([[r[k] for k in range(n) if k != j] for r in rows[1:]]))
        for j, entry in enumerate(rows[0]) if not entry.is_zero()
    ))


def jacobi_trudi(seq, parts):
    """det(seq[parts_i - i + j])_{i,j < len(parts)}, an index outside `seq`
    reading 0; 1 for empty parts.  `seq` is a nonempty list of polynomials.

    With seq the complete symmetric functions h_m it is s_parts, and with seq
    the elementary ones e_m it is s_lam for lam the conjugate of parts
    (Jacobi-Trudi; Macdonald, "Symmetric Functions and Hall Polynomials",
    I.3, (3.4) and (3.5))."""
    table = seq[0].table
    if not parts:
        return table.one()
    zero, size = table.zero(), len(parts)
    return poly_det([
        [seq[p - i + j] if 0 <= p - i + j < len(seq) else zero for j in range(size)]
        for i, p in enumerate(parts)
    ])


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
        keys = [self.table.var_key(nm) for nm in self.names]
        return Poly(
            self.table,
            {sum(combo): 1 for combo in itertools.combinations(keys, i)},
        )


def _swap_vars(p, i, j):
    """p with variables i and j, of equal weight, exchanged: their two
    exponent fields are swapped in each key, the degree field stays."""
    oi, oj = p.table.offsets[i], p.table.offsets[j]
    mask = p.table.mask
    terms = {}
    for key, c in p.terms.items():
        x = (key >> oi ^ key >> oj) & mask
        terms[key ^ (x << oi | x << oj)] = c
    return Poly(p.table, terms)


def is_symmetric(p, rootset):
    """Invariance of p under all permutations of the roots (adjacent swaps)."""
    idx = [p.table.index[nm] for nm in rootset.names]
    for a, b in zip(idx, idx[1:]):
        if _swap_vars(p, a, b) != p:
            return False
    return True


def symmetric_reduce(p, rootset, target, target_names):
    """Rewrite a symmetric polynomial in the roots in the elementary basis.

    `target_names` are the images of e_1..e_n inside `target` (they must
    have degrees 1..n there).  Classical leading-term subtraction; exact and
    self-certifying by re-expansion.
    """
    n = rootset.n
    if p.table != rootset.table:
        raise TableMismatchError("polynomial not over the root table")
    if len(target_names) != n:
        raise PolyError("need exactly %d target variables" % n)
    for i, nm in enumerate(target_names, start=1):
        if target.degrees[target.index[nm]] != i:
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
    result = target.zero()
    while not work.is_zero():
        expo, c = work.leading()
        if any(expo[i] < expo[i + 1] for i in range(n - 1)):
            raise NotSymmetricError("non-symmetric leading term encountered")
        # lambda_i = a_i - a_{i+1} gives the e-monomial with this leading term
        kvec = [expo[i] - (expo[i + 1] if i + 1 < n else 0) for i in range(n)]
        work = work - c * expand_e_mono(kvec)
        mono = target.one()
        for i, k in enumerate(kvec):
            if k:
                mono = mono * target.var(target_names[i]) ** k
        result = result + c * mono
    return result
