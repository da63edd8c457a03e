"""Unit tests for the formal bundle calculus."""

import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowcalc import chern
from chowcalc.chern import (
    Bundle,
    BundleError,
    InconsistentSequenceError,
    determinant,
    dual,
    exterior_square,
    formal_quotient,
    line,
    porteous,
    sym2,
    tensor,
    tensor_line,
    whitney_quotient,
)
from chowcalc.polyring import RootSet, VarTable, poly_det, symmetric_reduce


def from_total(rank, total):
    """The bundle of that rank whose c_i are the graded parts of `total`."""
    parts = total.graded_parts()
    zero = total.table.zero()
    return Bundle(rank, [parts.get(d, zero) for d in range(rank + 1)])


def random_bundle(rng, table, max_rank=4, min_rank=1):
    rank = rng.randint(min_rank, max_rank)
    total = table.one()
    for i in range(1, rank + 1):
        if i > table.degree_bound:
            break
        coeffs = {}
        for mono in table.monomials(i):
            if rng.random() < 0.5:
                coeffs[mono] = rng.randint(-3, 3)
        total = total + table.poly(coeffs)
    return from_total(rank, total)


def split_bundle(table, names):
    """Direct sum of line bundles with first Chern classes the given vars."""
    total = table.one()
    for n in names:
        total = total * (table.one() + table.var(n))
    return from_total(len(names), total)


@pytest.fixture
def table():
    return VarTable([("a", 1), ("b", 2), ("c", 3)], degree_bound=8)


def test_bundle_validation(table):
    with pytest.raises(BundleError):
        Bundle(-1, [table.one()])
    with pytest.raises(BundleError):
        Bundle(1, [table.const(2)])
    with pytest.raises(BundleError):
        Bundle(1, [table.one(), table.var("b")])  # c1 must be degree 1
    with pytest.raises(BundleError):
        Bundle(0, [table.one(), table.var("a")])  # too many classes
    # short class lists are padded with zeros
    E = Bundle(3, [table.one(), table.var("a")])
    assert E.c(2).is_zero() and E.c(3).is_zero()
    assert E.c(7).is_zero()  # above the rank


def _bundle_error(rank, classes):
    with pytest.raises(BundleError) as exc:
        Bundle(rank, classes)
    return str(exc.value)


def test_bundle_validation_messages_and_which_wins():
    """Each message in full, and which wins when several apply: c_0 is
    checked first, then each class from c_1 up, for one class its table
    first, then the bound, then its degree."""
    t = VarTable([("a", 1), ("b", 2), ("c", 3)], degree_bound=4)
    other = VarTable([("a", 1), ("b", 2), ("c", 3)], degree_bound=5)
    one, (a, b, c) = t.one(), t.gens()
    tables = "Chern classes over different tables"
    cases = [
        (-1, [one], "rank must be nonnegative"),
        (1, [], "need at least c_0"),
        (0, [one, a], "more Chern classes than the rank allows"),
        (1, [t.const(2), a], "c_0 must be 1"),
        (1, [t.zero()], "c_0 must be 1"),
        (1, [one + a, a], "c_0 must be 1"),
        (3, [t.const(-1), other.var("a"), a * a, t.var("a") ** 4], "c_0 must be 1"),
        (1, [one, other.var("a")], tables),
        (2, [one, a, other.zero()], tables),  # a zero class's table is checked
        (5, [one, a, b, c, a**4, other.var("a") ** 5], tables),  # before the bound
        # a nonzero class above the bound has the wrong degree as well
        (5, [one, 0 * a, 0 * b, 0 * c, 0 * a, a**4], "a nonzero c_5 needs a degree bound >= 5"),
        (1, [one, b], "c_1 must be homogeneous of degree 1"),
        (2, [one, a, a], "c_2 must be homogeneous of degree 2"),
        (2, [one, a, b + a], "c_2 must be homogeneous of degree 2"),
        (2, [one, b, other.var("b")], "c_1 must be homogeneous of degree 1"),
        (3, [one, a, a + b, other.var("c")], "c_2 must be homogeneous of degree 2"),
    ]
    for rank, classes, message in cases:
        assert _bundle_error(rank, classes) == message, (rank, classes)


def test_bundle_accepts_a_table_equal_by_content():
    """A class over another table object with the same variables and bound
    is accepted, and so is a zero class above the bound."""
    t = VarTable([("a", 1), ("b", 2)], degree_bound=4)
    twin = VarTable([("a", 1), ("b", 2)], degree_bound=4)
    E = Bundle(6, [t.one(), twin.var("a"), twin.var("b"), t.zero(), t.zero(), twin.zero()])
    assert E.c(1).table is twin and E.c(2) == t.var("b")
    assert Bundle(1, [twin.one(), t.var("a")]).c(1) == twin.var("a")


def test_trivial_and_line(table):
    assert Bundle(5, [table.one()]).total() == table.one()
    L = line(table.var("a"))
    assert L.rank == 1 and L.c(1) == table.var("a")
    with pytest.raises(BundleError):
        line(table.var("b"))


def test_dual_involution_random(table):
    rng = random.Random(5)
    for _ in range(20):
        E = random_bundle(rng, table)
        assert dual(dual(E)) == E
        assert dual(E).c(1) == -E.c(1)
        assert determinant(E).c(1) == E.c(1)


def test_whitney_sum_then_quotient(table):
    rng = random.Random(23)
    for _ in range(20):
        A = random_bundle(rng, table)
        B = random_bundle(rng, table)
        total = from_total(A.rank + B.rank, A.total() * B.total())
        Q = whitney_quotient(total, A)
        assert Q.rank == B.rank
        assert Q.total() == B.total()


def test_whitney_quotient_rejects_inconsistent(table):
    # rank-1 "total" with a forced nonzero c2 in the quotient series
    total = from_total(2, table.one() + table.var("a"))
    sub = line(2 * table.var("a"))
    with pytest.raises(InconsistentSequenceError):
        whitney_quotient(total, sub)
    # formal_quotient accepts the same data silently
    Q = formal_quotient(total, sub)
    assert Q.rank == 1
    assert Q.c(1) == -table.var("a")


def test_tensor_line_against_splitting():
    # on a split bundle, twisting adds the line class to every root
    t = VarTable([("x", 1), ("y", 1), ("l", 1)], degree_bound=6)
    E = split_bundle(t, ["x", "y"])
    ell = t.var("l")
    twisted = tensor_line(E, ell)
    expected = t.one()
    for n in ("x", "y"):
        expected = expected * (t.one() + t.var(n) + ell)
    assert twisted.total() == expected
    with pytest.raises(BundleError):
        tensor_line(E, t.var("x") * t.var("y"))


def test_tensor_line_rank_one(table):
    L = line(table.var("a"))
    M = tensor_line(L, table.var("a"))
    assert M.c(1) == 2 * table.var("a")


def test_exterior_square_split():
    # wedge^2 of a split rank-3 bundle has roots x+y, x+z, y+z
    t = VarTable([("x", 1), ("y", 1), ("z", 1)], degree_bound=6)
    E = split_bundle(t, ["x", "y", "z"])
    W = exterior_square(E)
    assert W.rank == 3
    expected = t.one()
    for u, v in (("x", "y"), ("x", "z"), ("y", "z")):
        expected = expected * (t.one() + t.var(u) + t.var(v))
    assert W.total() == expected


def test_exterior_square_of_split_bundles():
    # c(wedge^2 E) = prod_{i<j} (1 + x_i + x_j) for E the sum of lines x_i,
    # an oracle that needs no symmetric reduction
    for n in range(2, 7):
        names = ["x%d" % i for i in range(1, n + 1)]
        t = VarTable([(nm, 1) for nm in names], degree_bound=14)
        W = exterior_square(split_bundle(t, names))
        assert W.rank == n * (n - 1) // 2
        expected = t.one()
        for i, j in itertools.combinations(names, 2):
            expected = expected * (t.one() + t.var(i) + t.var(j))
        assert W.total() == expected


def test_squares_of_a_line():
    # wedge^2 of a line is the rank-0 bundle; Sym^2 of line(a) is line(2a)
    t = VarTable([("a", 1)], degree_bound=4)
    L = line(t.var("a"))
    assert exterior_square(L) == Bundle(0, [t.one()])
    assert sym2(L) == line(2 * t.var("a"))
    assert exterior_square(Bundle(0, [t.one()])) == Bundle(0, [t.one()])


def test_sym2_of_split_bundles():
    # c(Sym^2 E) = prod_{i<=j} (1 + x_i + x_j) for E the sum of lines x_i
    for n in range(1, 6):
        names = ["x%d" % i for i in range(1, n + 1)]
        t = VarTable([(nm, 1) for nm in names], degree_bound=10)
        S = sym2(split_bundle(t, names))
        assert S.rank == n * (n + 1) // 2
        expected = t.one()
        for i, j in itertools.combinations_with_replacement(names, 2):
            expected = expected * (t.one() + t.var(i) + t.var(j))
        assert S.total() == expected


def test_tensor_of_split_bundles():
    # c(E (x) F) = prod_{i,j} (1 + x_i + y_j) for sums of lines x_i and y_j
    for e, f in itertools.product(range(1, 4), repeat=2):
        xs = ["x%d" % i for i in range(1, e + 1)]
        ys = ["y%d" % j for j in range(1, f + 1)]
        t = VarTable([(nm, 1) for nm in xs + ys], degree_bound=9)
        T = tensor(split_bundle(t, xs), split_bundle(t, ys))
        assert T.rank == e * f
        expected = t.one()
        for x, y in itertools.product(xs, ys):
            expected = expected * (t.one() + t.var(x) + t.var(y))
        assert T.total() == expected
    other = VarTable([("x1", 1)], degree_bound=9)
    with pytest.raises(BundleError, match="different tables"):
        tensor(split_bundle(t, xs), split_bundle(other, ["x1"]))


def wedge2_by_symmetric_reduction(n, up_to):
    """The universal exterior-square classes by expanding e_k of the pairwise
    root sums and rewriting each in e_1..e_n by symmetric reduction."""
    roots = RootSet(n, up_to)
    xs = roots.roots()
    e_parts = [roots.table.one()]
    for i, j in itertools.combinations(range(n), 2):
        s = xs[i] + xs[j]
        e_parts = [e_parts[0]] + [
            e_parts[k] + e_parts[k - 1] * s for k in range(1, len(e_parts))
        ] + [e_parts[-1] * s]
    e_names = ["e%d" % i for i in range(1, n + 1)]
    e_table = VarTable([(nm, i) for i, nm in enumerate(e_names, start=1)], up_to)
    return [
        symmetric_reduce(e_parts[k], roots, e_table, e_names)
        for k in range(1, min(len(e_parts) - 1, up_to) + 1)
    ]


@pytest.mark.parametrize(
    "n, up_to",
    [(n, b) for n in range(2, 7) for b in range(1, min(comb(n, 2), 10) + 1)],
)
def test_wedge2_universal_matches_symmetric_reduction(n, up_to):
    # the universal classes: wedge^2 of the free bundle (1, e1, ..., en),
    # ranks above the bound too (rank 5 at bound 3 has e4, e5 of degree > 3,
    # which a bundle must leave 0)
    e_table = VarTable([("e%d" % i, i) for i in range(1, n + 1)], up_to)
    W = exterior_square(Bundle(n, [e_table.one()] + [
        e_table.var("e%d" % i) if i <= up_to else e_table.zero()
        for i in range(1, n + 1)
    ]))
    expected = wedge2_by_symmetric_reduction(n, up_to)
    assert W.rank == comb(n, 2)
    assert len(expected) == min(comb(n, 2), up_to)
    for k, want in enumerate(expected, start=1):
        assert W.c(k).table == e_table == want.table
        assert W.c(k).terms == want.terms
    assert all(W.c(k).is_zero() for k in range(len(expected) + 1, W.rank + 1))


def test_wedge2_division_is_checked():
    t = VarTable([("a", 1)], degree_bound=4)
    assert chern._divided(4 * t.var("a") + 2, 2) == 2 * t.var("a") + 1
    with pytest.raises(BundleError):
        chern._divided(3 * t.var("a") + 2, 2)

def test_porteous_zero_rank_is_top_chern_of_hom(table):
    # E -> F with E a line bundle: the r=0 locus class is c_top(E* (x) F)
    rng = random.Random(41)
    for _ in range(10):
        F = random_bundle(rng, table, max_rank=3)
        a = table.var("a")
        E = line(a)
        got = porteous(E, F, 0)
        hom = tensor_line(F, -a)
        assert got == hom.c(F.rank)


def test_porteous_zero_rank_is_top_chern_of_hom_of_two_bundles():
    # Hom(E, F) = E* (x) F for E and F of any rank, through the power-sum
    # tensor product rather than the twist formula
    t = VarTable([("a", 1), ("b", 2), ("c", 3)], degree_bound=9)
    rng = random.Random(43)
    for _ in range(10):
        E = random_bundle(rng, t, max_rank=3, min_rank=2)
        F = random_bundle(rng, t, max_rank=3, min_rank=2)
        assert porteous(E, F, 0) == tensor(dual(E), F).c(E.rank * F.rank)


def test_porteous_trivial_cases(table):
    E = line(table.var("a"))
    F = line(table.var("a"))
    assert porteous(E, F, 1) == table.one()  # empty determinant
    with pytest.raises(BundleError):
        porteous(E, F, 2)
    with pytest.raises(BundleError):
        porteous(E, F, -1)


def test_porteous_symmetry_in_giambelli():
    # for E of rank 2 mapping to F of rank 2 and r=1 the class is
    # c1(F - E), a 1x1 determinant
    t = VarTable([("p", 1), ("q", 1)], degree_bound=4)
    E = split_bundle(t, ["p"])
    F = split_bundle(t, ["q"])
    assert porteous(E, F, 0) == t.var("q") - t.var("p")


# -- the series-division operations against their full-series definitions ---


def full_quotient(a, b):
    """The whole truncated series a / b, by 1/b = sum_m (1 - b)^m."""
    table = a.table
    rest = table.one() - b
    inv = power = table.one()
    for _ in range(table.degree_bound):
        power = power * rest
        inv = inv + power
    return a * inv


def parts_of(p):
    """c_k of a series: its degree-k part, zero outside 0..bound."""
    bound = p.table.degree_bound
    return lambda k: p.graded_part(k) if 0 <= k <= bound else p.table.zero()


MIXED = VarTable([("a", 1), ("b", 2), ("c", 3)], degree_bound=6)
bundles = st.builds(
    lambda seed, rank: random_bundle(random.Random(seed), MIXED, max_rank=rank),
    st.integers(0, 2**32),
    st.integers(1, 5),
)


@settings(max_examples=60, deadline=None)
@given(bundles, bundles)
def test_formal_quotient_matches_the_full_series(total, sub):
    rank = total.rank - sub.rank
    if rank < 0:
        with pytest.raises(BundleError, match="nonnegative"):
            formal_quotient(total, sub)
        return
    c = parts_of(full_quotient(total.total(), sub.total()))
    got = formal_quotient(total, sub)
    assert got == Bundle(rank, [c(d) for d in range(min(rank, 6) + 1)])


@settings(max_examples=60, deadline=None)
@given(bundles, bundles, bundles)
def test_whitney_quotient_matches_the_full_series(A, B, sub):
    total = from_total(A.rank + B.rank, A.total() * B.total())
    assert whitney_quotient(total, A) == B
    if sub.rank > total.rank:
        return
    rank = total.rank - sub.rank
    c = parts_of(full_quotient(total.total(), sub.total()))
    if all(c(d).is_zero() for d in range(rank + 1, 7)):
        assert whitney_quotient(total, sub) == Bundle(
            rank, [c(d) for d in range(rank + 1)]
        )
    else:
        with pytest.raises(InconsistentSequenceError):
            whitney_quotient(total, sub)


@settings(max_examples=60, deadline=None)
@given(bundles, bundles, st.data())
def test_porteous_matches_the_full_series(E, F, data):
    r = data.draw(st.integers(0, min(E.rank, F.rank)))
    c = parts_of(full_quotient(F.total(), E.total()))
    size = E.rank - r
    want = (
        poly_det(
            [[c(F.rank - r + j - i) for j in range(size)] for i in range(size)]
        )
        if size
        else MIXED.one()
    )
    assert porteous(E, F, r) == want


@settings(max_examples=60, deadline=None)
@given(bundles)
def test_tensor_square_splits_into_sym2_and_wedge2(E):
    # E (x) E = Sym^2 E + wedge^2 E, so c(E (x) E) = c(Sym^2 E) c(wedge^2 E)
    T = tensor(E, E)
    assert T.rank == E.rank ** 2
    assert T.total() == sym2(E).total() * exterior_square(E).total()


@settings(max_examples=60, deadline=None)
@given(bundles, st.integers(-3, 3))
def test_tensor_with_a_line_is_the_twist(E, k):
    ell = k * MIXED.var("a")
    assert tensor(E, line(ell)) == tensor_line(E, ell)
    assert tensor(line(ell), E) == tensor_line(E, ell)
