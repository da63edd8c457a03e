"""Unit tests for the sparse exact polynomial layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chowcalc.polyring import (
    NotSymmetricError,
    Poly,
    PolyError,
    RootSet,
    TableMismatchError,
    VarTable,
    is_symmetric,
    poly_det,
    series_invert,
    series_parts,
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
    bigger = table.extended([("d", 3)])
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
        p = t.one() + random_poly(rng, t).truncated(7) - random_poly(
            rng, t
        ).constant()
        p = p - p.constant() + 1  # force constant term 1
        inv = series_invert(p)
        assert (p * inv).truncated(7) == t.one()
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
            p = p + term.truncated(6)
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


@settings(max_examples=80, deadline=None)
@given(weighted_tables(), st.data())
def test_mul_matches_the_all_pairs_product(table, data):
    a, b = draw_poly(data, table), draw_poly(data, table)
    assert a * b == reference_mul(a, b)
    assert b * a == reference_mul(a, b)


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
