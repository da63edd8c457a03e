"""Unit tests for the sparse exact polynomial layer."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chowcalc import chern, dsl
from chowcalc.grasstower import conjugate, partitions_in_box
from chowcalc.polyring import (
    NotSymmetricError,
    Poly,
    PolyError,
    RootSet,
    TableMismatchError,
    VarTable,
    _fmt_mono,
    is_symmetric,
    jacobi_trudi,
    poly_det,
    series_invert,
    series_parts,
    sum_of_products,
    sum_text,
    symmetric_reduce,
)


@pytest.fixture
def table():
    return VarTable([("a", 1), ("b", 1), ("c", 2)], degree_bound=8)


def random_poly(rng, table, max_terms=6, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        d = rng.randint(0, table.degree_bound)
        mono = rng.choice(table.monomials(d))
        terms[mono] = rng.randint(-max_coeff, max_coeff)
    return table.poly(terms)


def test_table_validation():
    with pytest.raises(PolyError):
        VarTable([("a", 0)])
    with pytest.raises(PolyError):
        VarTable([("a", 1), ("a", 2)])
    with pytest.raises(PolyError):
        VarTable([("a", 1)], degree_bound=0)
    with pytest.raises(PolyError):
        VarTable([("", 1)])


@pytest.mark.parametrize(
    "terms",
    [
        {(-1, 1): 1},  # would borrow from the next key field
        {(1.5, 0): 1},
        {(1, 0): 1.5},
        {(1, 0): "2"},
        {("1", 0): 1},
        {(1, 0, 0): 1},
        {(1, 3): 1},  # degree 7 above the bound
    ],
)
def test_poly_rejects_bad_exponents_and_coefficients(terms):
    t = VarTable([("a", 1), ("b", 2)], 6)
    with pytest.raises(PolyError):
        t.poly(terms)


def test_poly_takes_integral_values_of_other_types():
    t = VarTable([("a", 1), ("b", 2)], 6)
    p = t.poly({(2.0, 0): 3.0, (0, Fraction(1)): Fraction(-2)})
    assert p == 3 * t.var("a") ** 2 - 2 * t.var("b")


def test_table_equality_by_content():
    t1 = VarTable([("a", 1), ("b", 2)], 5)
    t2 = VarTable([("a", 1), ("b", 2)], 5)
    t3 = VarTable([("a", 1), ("b", 2)], 6)
    assert t1 == t2 and hash(t1) == hash(t2)
    assert t1 != t3
    # polys over equal-content tables interoperate
    assert t1.var("a") + t2.var("a") == 2 * t1.var("a")


def test_monomials_descending_lex(table):
    monos = table.monomials(2)
    assert monos == sorted(monos, reverse=True)
    assert len(monos) == 4  # a^2, a*b, b^2, c
    assert all(table.mono_degree(e) == 2 for e in monos)


def test_basic_arithmetic(table):
    a, b, c = table.gens()
    p = (a + b) ** 2
    assert p == a * a + 2 * a * b + b * b
    assert p - p == table.zero()
    assert (p * 0).is_zero()
    assert -(-p) == p
    assert 3 + a - 3 == a
    assert p.degree() == 2
    assert p.is_homogeneous()
    assert not (p + c * c).is_zero()
    assert (a + c).graded_part(1) == a
    assert (a + c).graded_part(2) == c


def test_truncation_at_bound():
    t = VarTable([("x", 1)], degree_bound=3)
    x = t.var("x")
    assert (x ** 2 * x ** 2).is_zero()  # degree 4 truncated
    p = (1 + x) ** 5
    assert p == 1 + 5 * x + 10 * x ** 2 + 10 * x ** 3
    with pytest.raises(PolyError):
        t.poly({(4,): 1})


def test_canonical_string(table):
    a, b, c = table.gens()
    assert str(table.zero()) == "0"
    assert str(a - b) == "a - b"
    assert str(c - 2 * a * b + a * a) == "a^2 - 2*a*b + c"
    assert str(-a) == "-a"
    # string is stable under re-assembly in another order
    p = c + a * b * 3 - b * b
    q = -b * b + c + 3 * a * b
    assert str(p) == str(q)


def test_leading_and_coeff(table):
    a, b, c = table.gens()
    p = 2 * c + 5 * a * b
    expo, coeff = p.leading()
    assert table.mono_degree(expo) == 2
    assert p.coeff(expo) == coeff
    with pytest.raises(PolyError):
        table.zero().leading()


def test_table_mismatch(table):
    other = VarTable([("a", 1)], 8)
    with pytest.raises(TableMismatchError):
        table.var("a") + other.var("a")


def test_substitute_homogeneity(table):
    a, b, c = table.gens()
    p = a * a + c
    assert p.substitute({"a": b}) == b * b + c
    assert p.substitute({"a": 0, "c": 0}).is_zero()
    with pytest.raises(PolyError):
        p.substitute({"a": c})  # degree 2 image for a degree 1 variable
    with pytest.raises(PolyError):
        p.substitute({"zz": a})


def test_convert_between_tables(table):
    bigger = VarTable([("a", 1), ("b", 1), ("c", 2), ("d", 3)], 8)
    a = table.var("a")
    moved = a.convert(bigger)
    assert moved.table == bigger
    assert str(moved) == "a"
    with pytest.raises(PolyError):
        table.var("c").convert(VarTable([("a", 1)], 8))


def test_eval(table):
    a, b, c = table.gens()
    p = a * a * b - 3 * c
    assert p.eval({"a": 2, "b": 5, "c": 1}) == 17


def test_eval_names_a_variable_without_a_value(table):
    a, b, c = table.gens()
    with pytest.raises(PolyError, match="'c'"):
        (a * b - 3 * c).eval({"a": 2, "b": 5})
    # an unused variable needs no value
    assert (a * b).eval({"a": 2, "b": 5}) == 10


def test_substitute_matches_eval_random(table):
    rng = random.Random(11)
    for _ in range(25):
        p = random_poly(rng, table)
        point = {n: rng.randint(-5, 5) for n in table.names}
        # substitute by scaled variables, then evaluate
        q = p.substitute({"a": point["a"] * table.var("a")})
        pt = dict(point, a=1)
        got = q.eval(pt)
        want = p.eval(dict(point, a=point["a"]))
        assert got == want


def test_series_invert_roundtrip():
    rng = random.Random(7)
    t = VarTable([("u", 1), ("v", 2)], 7)
    for _ in range(15):
        p = t.one() + random_poly(rng, t) - random_poly(rng, t).constant()
        p = p - p.constant() + 1  # force constant term 1
        inv = series_invert(p)
        assert p * inv == t.one()
        assert sum(series_parts(p, p, 7), t.zero()) == t.one()
    with pytest.raises(PolyError):
        series_invert(2 * t.one())


def test_poly_det_matches_integer_det():
    rng = random.Random(3)
    t = VarTable([("z", 1)], 6)
    for n in (1, 2, 3):
        m = [[t.const(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        ints = [[c.constant() for c in row] for row in m]

        def idet(mat):
            if len(mat) == 1:
                return mat[0][0]
            return sum(
                (-1) ** j
                * mat[0][j]
                * idet([r[:j] + r[j + 1:] for r in mat[1:]])
                for j in range(len(mat))
            )

        assert poly_det(m).constant() == idet(ints)
    with pytest.raises(PolyError):
        poly_det([])


def test_jacobi_trudi_of_no_parts_is_one():
    t = VarTable([("a", 1)], 4)
    assert jacobi_trudi([t.var("a")], []) == t.one()
    assert jacobi_trudi([t.var("a")], ()) == t.one()


def test_jacobi_trudi_reads_zero_outside_the_sequence():
    t = VarTable([("a", 1), ("b", 2)], 8)
    a, b = t.var("a"), t.var("b")
    seq = [t.one(), a, b]
    assert jacobi_trudi(seq, [1]) == a
    assert jacobi_trudi(seq, [3]) == t.zero()  # past the end
    # [[a, b], [seq[-1], 1]]: index -1 reads 0, not b
    assert jacobi_trudi(seq, [1, 0]) == a
    # [[b, seq[3]], [a, b]]: index 3 reads 0
    assert jacobi_trudi(seq, [2, 2]) == b * b
    assert jacobi_trudi(seq, [0, 0, 0]) == t.one()


def test_jacobi_trudi_of_elementary_classes_is_the_schur_polynomial():
    """On a split bundle, det(c_{mu_i - i + j}) for mu the conjugate of lam
    is s_lam of the roots: times a_delta it is the alternant a_{lam+delta}
    (Macdonald, I.3), and `symmetric_reduce` rewrites it in the e's as the
    same determinant over an e-table."""
    n, bound = 3, 9
    roots = RootSet(n, bound)
    xs = roots.roots()
    elementary = [roots.elementary(i) for i in range(n + 1)]
    target = VarTable([("e%d" % i, i) for i in range(1, n + 1)], bound)
    e_seq = [target.one()] + target.gens()

    def alternant(expo):
        """det(x_j^expo_i) by its permutation sum."""
        total = roots.table.zero()
        for perm in itertools.permutations(range(n)):
            inversions = sum(
                1 for i, j in itertools.combinations(range(n), 2) if perm[i] > perm[j]
            )
            term = roots.table.const(-1 if inversions % 2 else 1)
            for i, j in enumerate(perm):
                term = term * xs[j] ** expo[i]
            total = total + term
        return total

    delta = tuple(range(n - 1, -1, -1))
    a_delta = alternant(delta)
    for lam in partitions_in_box(n, 6):
        if sum(lam) > bound - sum(delta):
            continue
        parts = conjugate(lam)
        s = jacobi_trudi(elementary, parts)
        lam = lam + (0,) * (n - len(lam))
        assert s * a_delta == alternant([p + d for p, d in zip(lam, delta)]), lam
        reduced = symmetric_reduce(s, roots, target, ["e1", "e2", "e3"])
        assert reduced == jacobi_trudi(e_seq, parts), lam
    # a shape longer than the rank: c past the rank reads 0
    assert jacobi_trudi(elementary, conjugate((1,) * (n + 1))) == roots.table.zero()


def test_symmetric_reduce_roundtrip():
    rng = random.Random(19)
    n = 3
    roots = RootSet(n, degree_bound=6)
    target = VarTable([("e1", 1), ("e2", 2), ("e3", 3)], 6)
    es = [roots.elementary(i) for i in range(n + 1)]
    for _ in range(20):
        # random polynomial in the elementary symmetric functions
        p = roots.table.zero()
        for _ in range(rng.randint(1, 4)):
            term = roots.table.const(rng.randint(-4, 4))
            for _ in range(rng.randint(0, 3)):
                term = term * es[rng.randint(1, n)]
            p = p + term
        assert is_symmetric(p, roots)
        reduced = symmetric_reduce(p, roots, target, ["e1", "e2", "e3"])
        # certify by expanding back
        back = reduced.substitute(
            {"e%d" % i: es[i].convert(roots.table) for i in range(1, n + 1)},
            table=roots.table,
        )
        assert back == p


def test_symmetric_reduce_rejects_asymmetric():
    roots = RootSet(2, degree_bound=4)
    target = VarTable([("e1", 1), ("e2", 2)], 4)
    x1 = roots.table.var("x1")
    with pytest.raises(NotSymmetricError):
        symmetric_reduce(x1, roots, target, ["e1", "e2"])
    assert not is_symmetric(x1, roots)


def test_power_newton_identity():
    # p2 = e1^2 - 2 e2 for two roots
    roots = RootSet(2, degree_bound=4)
    x1, x2 = roots.roots()
    target = VarTable([("e1", 1), ("e2", 2)], 4)
    r = symmetric_reduce(x1 * x1 + x2 * x2, roots, target, ["e1", "e2"])
    e1, e2 = target.var("e1"), target.var("e2")
    assert r == e1 * e1 - 2 * e2


# -- series division and the degree-ordered product, against references -----


def reference_mul(a, b):
    """All-pairs product of the terms, dropping each one above the bound.

    It adds exponent tuples read through `unpack`, never packed keys, so it
    checks the no-carry argument behind `Poly.__mul__` instead of using it.
    """
    table = a.table
    a_terms = [(table.unpack(k), c) for k, c in a.terms.items()]
    b_terms = [(table.unpack(k), c) for k, c in b.terms.items()]
    terms = {}
    for ea, ca in a_terms:
        for eb, cb in b_terms:
            e = tuple(x + y for x, y in zip(ea, eb))
            if table.mono_degree(e) <= table.degree_bound:
                terms[e] = terms.get(e, 0) + ca * cb
    return table.poly(terms)


def reference_quotient(a, b):
    """a / b through the geometric series 1/b = sum_m (1 - b)^m."""
    table = a.table
    rest = table.one() - b
    inv = power = table.one()
    for _ in range(table.degree_bound):
        power = reference_mul(power, rest)
        inv = inv + power
    return reference_mul(a, inv)


@st.composite
def weighted_tables(draw):
    """Tables of one to five variables of weights 1-3 (mixed weights).  The
    bounds 1-17 cross the key field widths 3->4 and 4->5 bits at 7/8 and
    15/16."""
    weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    bound = draw(st.integers(1, 17))
    return VarTable([("v%d" % i, w) for i, w in enumerate(weights)], bound)


def draw_monomial(data, table):
    degrees = [d for d in range(table.degree_bound + 1) if table.monomial_keys(d)]
    d = data.draw(st.sampled_from(degrees))
    return table.unpack(data.draw(st.sampled_from(table.monomial_keys(d))))


def draw_poly(data, table, max_terms=8):
    """Up to max_terms drawn terms, and maybe a pure power v^(bound // w) of
    one variable: the largest exponent a key field holds, the bound itself
    for a weight-1 variable."""
    n = data.draw(st.integers(0, max_terms))
    picks = [draw_monomial(data, table) for _ in range(n)]
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, table.nvars - 1))
        top = [0] * table.nvars
        top[i] = table.degree_bound // table.degrees[i]
        picks.append(tuple(top))
    return table.poly({m: data.draw(st.integers(-5, 5)) for m in picks})


@settings(max_examples=60, deadline=None)
@given(weighted_tables())
@example(VarTable([("v%d" % i, 1) for i in range(4)], 7))
@example(VarTable([("v%d" % i, 1) for i in range(4)], 8))
@example(VarTable([("v%d" % i, 1 + i % 2) for i in range(5)], 15))
@example(VarTable([("v%d" % i, 1 + i % 2) for i in range(5)], 16))
def test_keys_round_trip_and_follow_the_graded_lex_order(table):
    # counts[d]: exponent vectors of weighted degree d, one variable at a time
    counts = [1] + [0] * table.degree_bound
    for w in table.degrees:
        for d in range(w, table.degree_bound + 1):
            counts[d] += counts[d - w]
    for d in range(table.degree_bound + 1):
        monos = table.monomials(d)
        assert len(set(monos)) == len(monos) == counts[d]
        assert all(table.mono_degree(e) == d for e in monos)
        assert [table.pack(e) for e in monos] == table.monomial_keys(d)
    monos = [m for d in range(table.degree_bound + 1) for m in table.monomials(d)]
    keys = [table.pack(e) for e in monos]
    assert [table.unpack(k) for k in keys] == monos
    by_key = [e for _, e in sorted(zip(keys, monos))]
    assert by_key == sorted(monos, key=lambda e: (table.mono_degree(e), e))


@st.composite
def small_weighted_tables(draw):
    """Tables of one to six variables of weights 1-4.  The bound is at most
    16, and small enough that the exponent box, prod (bound // w + 1), has
    at most 20,000 points, so that it can be enumerated."""
    weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))

    def box(bound):
        return math.prod(bound // w + 1 for w in weights)

    top = max(b for b in range(1, 17) if box(b) <= 20_000)
    bound = draw(st.integers(1, top))
    return VarTable([("v%d" % i, w) for i, w in enumerate(weights)], bound)


@settings(max_examples=50, deadline=None)
@given(small_weighted_tables())
@example(VarTable([("v0", 1)], 16))
@example(VarTable([("v0", 3)], 10))
def test_monomial_keys_match_a_brute_force_enumeration(table):
    bound, weights = table.degree_bound, table.degrees
    by_degree = [[] for _ in range(bound + 1)]
    for expo in itertools.product(*(range(bound // w + 1) for w in weights)):
        d = table.mono_degree(expo)
        if d <= bound:
            by_degree[d].append(table.pack(expo))
    # coefficients of prod_i 1 / (1 - t^(w_i)) through t^bound
    series = [1] + [0] * bound
    for w in weights:
        for d in range(w, bound + 1):
            series[d] += series[d - w]
    for d in range(bound + 1):
        keys = table.monomial_keys(d)
        assert keys == sorted(by_degree[d], reverse=True)
        assert len(keys) == series[d]


@settings(max_examples=80, deadline=None)
@given(weighted_tables(), st.data())
def test_leading_is_the_graded_lex_greatest_term(table, data):
    p = draw_poly(data, table)
    if p.is_zero():
        return
    terms = {table.unpack(k): c for k, c in p.terms.items()}
    expo = max(terms, key=lambda e: (table.mono_degree(e), e))
    assert p.leading() == (expo, terms[expo])
    assert p.coeff(expo) == terms[expo]


def draw_series(data, table):
    """A series with constant term 1."""
    p = draw_poly(data, table)
    return p - p.constant() + 1


@st.composite
def poly_pairs(draw):
    """Two polynomials over one drawn table."""
    data = draw(st.data())
    table = draw(weighted_tables())
    return draw_poly(data, table), draw_poly(data, table)


_T = VarTable([("u", 1), ("v", 2), ("w", 1)], 7)
_U, _V, _W = _T.gens()
_MANY = 3 * _U**3 - _V * _W + 2 * _V**3 - 5 + _U * _W**5


# a one-term operand on either side: its products inside the bound, partly
# and wholly past it, a constant, a coefficient past 2**64, and zero
@settings(max_examples=80, deadline=None)
@given(poly_pairs())
@example((-4 * _U**2 * _V, _MANY))
@example((_MANY, -4 * _U**2 * _V))
@example((7 * _W**7, _MANY))
@example((_MANY, 7 * _W**7))
@example((_T.const(-3), _MANY))
@example((_MANY, _T.const(-3)))
@example((2**70 * _V, _U**7 - _W))
@example((_U**7 - _W, 2**70 * _V))
@example((_T.zero(), -_U))
@example((-_U, _T.zero()))
@example((_U**3 * _V, _V * _W))
def test_mul_matches_the_all_pairs_product(pair):
    a, b = pair
    assert a * b == reference_mul(a, b)
    assert b * a == reference_mul(a, b)


# -- sums of products ------------------------------------------------------------


def reference_sum_of_products(table, triples):
    return sum((c * reference_mul(a, b) for c, a, b in triples), table.zero())


@settings(max_examples=80, deadline=None)
@given(weighted_tables(), st.data())
def test_sum_of_products_matches_the_sum_of_the_products(table, data):
    """Term for term, over drawn tables and bounds; draw_poly's pure powers
    put some products past the bound, and zero coefficients, the empty list
    and a triple next to its negative (whose terms cancel) are drawn too."""
    triples = [
        (data.draw(st.integers(-3, 3)), draw_poly(data, table), draw_poly(data, table))
        for _ in range(data.draw(st.integers(0, 5)))
    ]
    if triples and data.draw(st.booleans()):
        c, a, b = data.draw(st.sampled_from(triples))
        triples.append((-c, a, b))
    got = sum_of_products(table, triples)
    assert got.table is table
    assert got.terms == reference_sum_of_products(table, triples).terms
    assert 0 not in got.terms.values()
    assert got.terms == sum_of_products(table, iter(triples)).terms


def test_sum_of_products_edge_cases():
    t = VarTable([("x", 1), ("y", 2)], 4)
    x, y = t.gens()
    assert sum_of_products(t, []) == t.zero()
    assert sum_of_products(t, [(0, x, y)]) == t.zero()
    # every product past the bound
    assert sum_of_products(t, [(5, x**3, y), (1, y**2, x)]) == t.zero()
    # part of a product past the bound
    assert sum_of_products(t, [(2, x + y, x**3 + y)]) == 2 * x**4 + 2 * x * y + 2 * y**2
    # full cancellation: nothing is left, not even zero coefficients
    cancel = sum_of_products(t, [(1, x + y, x - 1), (-1, x - 1, x + y)])
    assert cancel.terms == {}
    assert sum_of_products(t, [(-3, x, t.one()), (3, t.one(), x)]).terms == {}


def test_sum_of_products_rejects_other_tables():
    t = VarTable([("x", 1)], 4)
    other = VarTable([("x", 1)], 5)
    with pytest.raises(TableMismatchError):
        sum_of_products(t, [(1, t.var("x"), other.var("x"))])
    with pytest.raises(TableMismatchError):
        sum_of_products(t, [(1, other.var("x"), other.var("x"))])


@st.composite
def bundles(draw):
    """A bundle of rank 0-5 whose Chern classes are drawn homogeneous
    polynomials over a drawn table (a class may be zero)."""
    table = draw(weighted_tables())
    rank = draw(st.integers(0, 5))
    chern_classes = [table.one()]
    for i in range(1, min(rank, table.degree_bound) + 1):
        keys = table.monomial_keys(i)
        picks = draw(st.lists(st.sampled_from(keys), max_size=4)) if keys else []
        chern_classes.append(
            Poly(table, {k: draw(st.integers(-4, 4).filter(bool)) for k in picks})
        )
    return chern.Bundle(rank, chern_classes)


@settings(max_examples=80, deadline=None)
@given(bundles())
def test_bundle_total_is_the_sum_of_the_classes(bundle):
    for E in (bundle, chern.dual(bundle)):
        total = E.table.zero()
        for ci in E.chern:
            total = total + ci
        assert E.total().terms == total.terms


# -- printing --------------------------------------------------------------------


def reference_fmt_mono(table, key):
    """The monomial of a key as text, read off every exponent field in turn."""
    parts = []
    for name, off in zip(table.names, table.offsets):
        e = key >> off & table.mask
        if e == 1:
            parts.append(name)
        elif e:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts)


def reference_str(p):
    """`str(p)` assembled from `reference_fmt_mono`."""
    if not p.terms:
        return "0"
    pieces = []
    for i, key in enumerate(sorted(p.terms, reverse=True)):
        c, mono = p.terms[key], reference_fmt_mono(p.table, key)
        if mono:
            body = mono if abs(c) == 1 else "%d*%s" % (abs(c), mono)
        else:
            body = str(abs(c))
        if i == 0:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)


@pytest.mark.parametrize("nvars", range(1, 41))
@pytest.mark.parametrize("bound", [1, 7, 8, 16])
def test_fmt_mono_matches_the_field_by_field_reference(nvars, bound):
    """Every exponent a field holds (1..bound // weight) on the first,
    middle and last fields, alone and together, and random keys with up to
    four nonzero fields, with mixed weights, over a fresh table (so an empty
    cache, then a full one)."""
    table = VarTable([("v%d" % i, 1 + i % 3) for i in range(nvars)], bound)
    fields = sorted({0, nvars // 2, nvars - 1})
    keys = [0]
    for i in fields:
        for e in range(1, bound // table.degrees[i] + 1):
            expo = [0] * nvars
            expo[i] = e
            keys.append(table.pack(expo))
    for e in range(1, bound + 1):
        expo = [0] * nvars
        for i in fields:
            expo[i] = e
        if table.mono_degree(expo) <= bound:
            keys.append(table.pack(expo))
    rng = random.Random(100 * nvars + bound)
    for _ in range(50):
        expo, room = [0] * nvars, bound
        for i in rng.sample(range(nvars), min(nvars, 4)):
            expo[i] = rng.randint(0, room // table.degrees[i])
            room -= expo[i] * table.degrees[i]
        keys.append(table.pack(expo))
    for key in keys:
        assert _fmt_mono(table, key) == reference_fmt_mono(table, key)
        assert _fmt_mono(table, key) == reference_fmt_mono(table, key)  # cached


def test_printing_costs_what_it_prints_not_the_degree_bound():
    """The piece table holds the exponents printed so far: printing c1*c2
    at bound 10^6 allocates under 1 MB, where rows filled to the bound
    would hold 1.5 million strings, and a higher exponent printed later
    grows its row."""
    table = VarTable([("c1", 1), ("c2", 2)], 1_000_000)
    p = table.var("c1") * table.var("c2")
    tracemalloc.start()
    try:
        text = str(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "c1*c2" and peak < 1 << 20
    assert str(table.var("c1") ** 7 * p) == "c1^8*c2"
    assert str(table.var("c2") ** 3) == "c2^3"


@st.composite
def wide_bundles(draw):
    """A bundle of rank 0-5 over a drawn table of 30-40 variables of weights
    1-3, the first of weight 1, with bound 1-17: each class up to the bound
    is up to four drawn monomials of its degree (a class may be zero)."""
    weights = [1] + draw(st.lists(st.integers(1, 3), min_size=29, max_size=39))
    table = VarTable(
        [("w%d" % i, w) for i, w in enumerate(weights)], draw(st.integers(1, 17))
    )
    chern_classes = [table.one()]
    for d in range(1, min(draw(st.integers(0, 5)), table.degree_bound) + 1):
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            expo, room = [0] * len(weights), d
            while room:
                i = draw(st.sampled_from([i for i, w in enumerate(weights) if w <= room]))
                expo[i] += 1
                room -= weights[i]
            terms[table.pack(expo)] = draw(st.integers(-4, 4).filter(bool))
        chern_classes.append(Poly(table, terms))
    return chern.Bundle(len(chern_classes) - 1, chern_classes)


@settings(max_examples=80, deadline=None)
@given(st.one_of(bundles(), wide_bundles()), st.data())
def test_bundle_text_is_the_text_of_its_total_class(bundle, data):
    """A bundle prints class by class, from c_rank down, as its total Chern
    class prints: so do its dual and its twist by a drawn line class."""
    keys = bundle.table.monomial_keys(1)
    picks = data.draw(st.lists(st.sampled_from(keys), max_size=3)) if keys else []
    ell = Poly(bundle.table, {k: data.draw(st.integers(-3, 3).filter(bool)) for k in picks})
    for E in (bundle, chern.dual(bundle), chern.tensor_line(bundle, ell)):
        assert dsl._show(E) == "bundle(rank %d, c = %s)" % (E.rank, reference_str(E.total()))


def test_sum_text_prints_homogeneous_classes_of_descending_degree_as_their_sum(table):
    a, b, c = table.var("a"), table.var("b"), table.var("c")
    classes = [3 * a**2 * c - b**4, -(a * b) + c, table.zero(), -a, table.const(2)]
    assert sum_text(table, classes) == str(sum(classes, table.zero()))
    assert sum_text(table, classes) == "3*a^2*c - b^4 - a*b + c - a + 2"
    assert sum_text(table, [table.zero()]) == sum_text(table, []) == "0"


@pytest.mark.parametrize(
    "coeffs",
    [(1, -1, 1), (-1, 1, -1), (-2, -7, -1), (2**64, -(2**64) - 1, 3**50), (-(2**70), 1, 0)],
)
@pytest.mark.parametrize("nvars", [1, 5, 30])
def test_str_matches_the_reference_for_any_coefficient(coeffs, nvars):
    table = VarTable([("v%d" % i, 1) for i in range(nvars)], 12)
    first, last = table.var("v0"), table.var("v%d" % (nvars - 1))
    monos = [first**3 * last, last**12, table.one()]
    p = sum((c * m for c, m in zip(coeffs, monos)), table.zero())
    assert str(p) == reference_str(p)


def test_str_of_large_and_negative_coefficients():
    t = VarTable([("x", 1), ("y", 1)], 4)
    x, y = t.gens()
    assert str(-x + 2**70 * y - 1) == "-x + 1180591620717411303424*y - 1"
    assert str(-(2**64) * x**2 * y + x) == "-18446744073709551616*x^2*y + x"
    assert str(t.const(-(2**65))) == "-36893488147419103232"


@settings(max_examples=80, deadline=None)
@given(weighted_tables(), st.data())
def test_series_parts_are_the_graded_parts_of_the_quotient(table, data):
    a, b = draw_poly(data, table), draw_series(data, table)
    k = data.draw(st.integers(0, table.degree_bound + 3))
    parts = series_parts(a, b, k)
    full = a * series_invert(b)
    assert full == reference_quotient(a, b)
    top = min(k, table.degree_bound)
    assert parts == [full.graded_part(d) for d in range(top + 1)]
    assert sum(series_parts(a, b, table.degree_bound), table.zero()) == full
    if k >= table.degree_bound:
        assert reference_mul(sum(parts, table.zero()), b) == a


@pytest.mark.parametrize("constant", [0, 2, -1])
def test_series_parts_reject_a_constant_term_other_than_one(constant):
    t = VarTable([("u", 1), ("v", 2)], 5)
    b = t.const(constant) + t.var("u")
    for divide in (
        lambda: series_parts(t.one(), b, 3),
        lambda: series_invert(b),
    ):
        with pytest.raises(PolyError):
            divide()


def draw_table(data, variables, bound):
    """A table of the given (name, weight) pairs in a drawn order."""
    return VarTable(data.draw(st.permutations(variables)), bound)


@settings(max_examples=80, deadline=None)
@given(weighted_tables(), st.data())
def test_convert_matches_the_substitution_reference(table, data):
    p = draw_poly(data, table)
    assert p.convert(table) is p
    variables = list(zip(table.names, table.degrees))
    extra = [("w%d" % i, w) for i, w in enumerate(
        data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    )]
    lower = data.draw(st.integers(1, table.degree_bound))
    for target in (
        draw_table(data, variables, table.degree_bound),
        draw_table(data, variables + extra, table.degree_bound),
        draw_table(data, variables, lower),
    ):
        assert p.convert(target) == p.substitute({}, table=target)
    used = sorted(p.variables())
    if used:
        gone = data.draw(st.sampled_from(used))
        target = VarTable([v for v in variables if v[0] != gone] + extra, 8)
        with pytest.raises(PolyError):
            p.convert(target)


@settings(max_examples=80, deadline=None)
@given(weighted_tables(), st.data())
def test_split_pieces_times_their_monomials_give_p_back(table, data):
    """sum_e prod names^e * p_e is p, each p_e is free of `names` and
    nonzero, and the exponent tuples are those of p's terms; an unknown
    name is a PolyError."""
    p = draw_poly(data, table)
    names = data.draw(st.lists(st.sampled_from(table.names), unique=True))
    pieces = p.split(names)
    total = table.zero()
    for e, q in pieces.items():
        assert len(e) == len(names) and q.table is table
        assert not q.is_zero() and not q.variables() & set(names)
        mono = table.one()
        for name, x in zip(names, e):
            mono = mono * table.var(name) ** x
        total = total + mono * q
    assert total == p
    index = [table.index[name] for name in names]
    want = {tuple(expo[i] for i in index) for expo in map(table.unpack, p.terms)}
    assert set(pieces) == want
    with pytest.raises(PolyError, match="unknown variable 'nope'"):
        p.split(names + ["nope"])
