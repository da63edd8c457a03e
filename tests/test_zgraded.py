"""Unit tests for integer lattice normal forms and graded ideals."""

import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowcalc import zgraded
from chowcalc.polyring import VarTable
from chowcalc.so4pipeline import So4Pipeline
from chowcalc.zgraded import (
    DegreeLattice,
    GradedError,
    GradedIdeal,
    GroupStructure,
    hnf_solve,
    row_hnf,
    smith,
)


def _dense_row_hnf(rows, sparsest=True):
    """Reference for `row_hnf`: the same operations on dense rows.

    `row_hnf` must make the same choices: the same pivot (among the rows at
    index >= r, the least |entry|, then the fewest nonzero entries, then the
    lowest index), the same Euclidean loop and the same sign normalization,
    with no reduction above the pivots, so (H, U, pivots) agree entry for
    entry.  With `sparsest` false the pivot is the first row of least
    |entry|, the rule `row_hnf` followed before; the echelon basis it
    reaches has the same pivots and pivot values, but other rows.
    """
    m = len(rows)
    H = [list(r) for r in rows]
    ncols = len(H[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def row_op_sub(i, j, q, col):
        H[i][col:] = [a - q * b for a, b in zip(H[i][col:], H[j][col:])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def row_swap(i, j):
        H[i], H[j] = H[j], H[i]
        U[i], U[j] = U[j], U[i]

    pivots = []
    r = 0
    for col in range(ncols):
        while True:
            nonzero = [i for i in range(r, m) if H[i][col]]
            if not nonzero:
                break
            piv = min(nonzero, key=lambda i: (
                abs(H[i][col]), ncols - H[i].count(0) if sparsest else 0))
            if piv != r:
                row_swap(piv, r)
            done = True
            for i in range(r + 1, m):
                if H[i][col]:
                    q = H[i][col] // H[r][col]
                    row_op_sub(i, r, q, col)
                    if H[i][col]:
                        done = False
            if done:
                break
        if r < m and H[r][col]:
            if H[r][col] < 0:
                H[r] = [-x for x in H[r]]
                U[r] = [-x for x in U[r]]
            pivots.append((r, col))
            r += 1
            if r == m:
                break
    return H, U, pivots


def sparse(rows):
    """Dense rows as the {column: entry} dicts that `row_hnf` returns."""
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def dense(rows, n):
    """{column: entry} rows as dense rows of length n."""
    return [[r.get(j, 0) for j in range(n)] for r in rows]


def sparse_reference(rows, sparsest=True):
    """`_dense_row_hnf` with H and U in the form `row_hnf` returns."""
    H, U, pivots = _dense_row_hnf(rows, sparsest)
    return sparse(H), sparse(U), pivots


def pivot_values(H, pivots):
    return [H[r][c] for r, c in pivots]


def assert_matches_the_reference(M):
    """(H, U, pivots) equal the reference's; the pivots and pivot values
    also equal those of the old first-row rule."""
    H, U, pivots = row_hnf(M)
    assert (H, U, pivots) == sparse_reference(M)
    H_old, _, pivots_old = sparse_reference(M, sparsest=False)
    assert pivots == pivots_old
    assert pivot_values(H, pivots) == pivot_values(H_old, pivots_old)


def random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def mat_mul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    return sum(
        (-1) ** j * M[0][j] * det([r[:j] + r[j + 1:] for r in M[1:]])
        for j in range(n)
    )


def determinantal_divisors(M):
    """[d_1, ..., d_min(m, n)]: d_k is the gcd of the k x k minors of M."""
    m, n = len(M), len(M[0])
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                g = gcd(g, det([[M[i][j] for j in cols] for i in rows]))
        out.append(g)
    return out


def test_row_hnf_properties():
    rng = random.Random(2)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, m, n)
        H, U, pivots = row_hnf(M)
        H, U = dense(H, n), dense(U, m)
        # H = U * M and U unimodular
        assert mat_mul(U, M) == H
        assert det(U) in (1, -1)
        # echelon shape with positive pivots
        last_col = -1
        for r, c in pivots:
            assert c > last_col
            last_col = c
            assert H[r][c] > 0


def test_smith_known_invariants():
    assert smith([[2, 0], [0, 4]]) == [2, 4]
    assert smith([[2, 1], [0, 2]]) == [1, 4]
    # a diagonal out of divisibility order, and one that needs both passes
    assert smith([[4, 0], [0, 6]]) == [2, 12]
    assert smith([[2, 3], [0, 0], [0, 5]]) == [1, 10]
    assert smith([[0, 0], [0, 0]]) == []
    assert smith([[0, 3]]) == [3]


def test_solve_row_combination():
    rng = random.Random(12)
    for _ in range(25):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        M = random_matrix(rng, m, n, -5, 5)
        x = [rng.randint(-4, 4) for _ in range(m)]
        target = [sum(x[i] * M[i][j] for i in range(m)) for j in range(n)]
        y = hnf_solve(*row_hnf(M), target)
        assert y is not None
        assert [sum(y[i] * M[i][j] for i in range(m)) for j in range(n)] == target
    assert hnf_solve(*row_hnf([[2, 0]]), [1, 0]) is None
    assert hnf_solve(*row_hnf([]), [0, 0]) == []
    assert hnf_solve(*row_hnf([]), [1]) is None


@pytest.fixture
def table():
    return VarTable(
        [("c1", 1), ("c2", 2), ("c3", 3), ("c4", 4), ("x", 2)], degree_bound=8
    )


@pytest.fixture
def so4_ideal(table):
    c1 = table.var("c1")
    c3 = table.var("c3")
    c4 = table.var("c4")
    x = table.var("x")
    return GradedIdeal([c1, 2 * c3, x * c3, x * x - 4 * c4])


def test_ideal_validation(table):
    with pytest.raises(GradedError):
        GradedIdeal([table.zero()])
    with pytest.raises(GradedError):
        GradedIdeal([table.var("c1") + table.var("c2")])  # not homogeneous


def test_membership_with_certificate(so4_ideal, table):
    rng = random.Random(31)
    gens = so4_ideal.generators
    for _ in range(20):
        # random homogeneous combination of the generators
        d = rng.randint(2, 8)
        p = table.zero()
        for g in gens:
            rem = d - g.degree()
            if rem < 0:
                continue
            mono = rng.choice(table.monomials(rem))
            p = p + rng.randint(-3, 3) * g * table.poly({mono: 1})
        if p.is_zero():
            continue
        ok, cert = so4_ideal.member(p)
        assert ok
        assert so4_ideal.certificate_product(cert) == p


def test_a_lattice_reduced_then_solved_is_echeloned_once(
    so4_ideal, table, monkeypatch
):
    """A normal form and then a membership test share each echelon basis.
    c2 is a spectator of (c1, 2c3, x*c3, x^2 - 4c4): the degree-6 class
    splits into a degree-6 piece and c2 times a degree-4 piece, and
    `row_hnf` runs once for each of the two lattices over c3, c4 and x."""
    inputs = []

    def recording(rows):
        inputs.append(rows)
        return row_hnf(rows)

    monkeypatch.setattr(zgraded, "row_hnf", recording)
    c2, c3, c4, x = (table.var(n) for n in ("c2", "c3", "c4", "x"))
    q = 5 * x * c4 + 5 * x * x * c2 + 3 * c3 * c3
    nf = so4_ideal.normal_form(q)
    assert nf != q
    ok, cert = so4_ideal.member(q - nf)
    assert ok and so4_ideal.certificate_product(cert) == q - nf
    assert so4_ideal.lattice(6).table.names == ("c3", "c4", "x")
    assert sorted(map(id, inputs)) == sorted(
        id(so4_ideal.lattice(d).rows) for d in (4, 6)
    )


def test_membership_negative(so4_ideal, table):
    ok, cert = so4_ideal.member(table.var("c3"))
    assert not ok and cert is None
    ok, _ = so4_ideal.member(table.var("c2"))
    assert not ok
    # torsion: 2*c3 is in, c3 is not
    ok, cert = so4_ideal.member(2 * table.var("c3"))
    assert ok
    assert so4_ideal.certificate_product(cert) == 2 * table.var("c3")


def test_membership_requires_homogeneous(so4_ideal, table):
    with pytest.raises(GradedError):
        so4_ideal.member(table.var("c1") + table.var("c2"))
    ok, cert = so4_ideal.member(table.zero())
    assert ok and cert == []


def test_normal_form_idempotent(so4_ideal, table):
    rng = random.Random(6)
    for _ in range(20):
        d = rng.randint(1, 8)
        mono = rng.choice(table.monomials(d))
        p = table.poly({mono: rng.randint(-5, 5)})
        nf = so4_ideal.normal_form(p)
        assert so4_ideal.normal_form(nf) == nf
        ok, _ = so4_ideal.member(p - nf)
        assert ok


def test_quotient_structure_so4(so4_ideal):
    # Z[c1..c4,x]/(c1, 2c3, x*c3, x^2-4c4) degree by degree
    want = {0: "Z", 1: "0", 2: "Z^2", 3: "Z/2", 4: "Z^3", 5: "Z/2",
            6: "Z^4 + Z/2"}
    for d, s in want.items():
        assert str(so4_ideal.quotient_structure(d)) == s


def test_quotient_structure_of_the_o4_presentation():
    """A*_O(4) = Z[c1..c4]/(2c1, 2c3): in each degree, one Z for each
    monomial in c2 and c4 and one Z/2 for each monomial with an odd c."""
    t = VarTable([("c1", 1), ("c2", 2), ("c3", 3), ("c4", 4)], 12)
    c1, c2, c3, c4 = t.gens()
    ideal = GradedIdeal([2 * c1, 2 * c3])
    for d in range(13):
        monomials = [
            e
            for e in itertools.product(range(13), range(7), range(5), range(4))
            if e[0] + 2 * e[1] + 3 * e[2] + 4 * e[3] == d
        ]
        free = sum(1 for e in monomials if not e[0] and not e[2])
        torsion = (2,) * (len(monomials) - free)
        assert ideal.quotient_structure(d) == GroupStructure(d, free, torsion)


def test_quotient_structure_simple():
    t = VarTable([("u", 1)], 5)
    ideal = GradedIdeal([2 * t.var("u")])
    assert str(ideal.quotient_structure(1)) == "Z/2"
    assert str(ideal.quotient_structure(3)) == "Z/2"
    ideal2 = GradedIdeal([t.var("u") ** 2])
    assert str(ideal2.quotient_structure(1)) == "Z"
    assert str(ideal2.quotient_structure(2)) == "0"


def test_contains_and_equal(table):
    c1, c2 = table.var("c1"), table.var("c2")
    big = GradedIdeal([c1, c2])
    small = GradedIdeal([c1, c1 * c2, 2 * c2])
    ok, w = big.contains(small, 6)
    assert ok and w is None
    ok, w = small.contains(big, 6)
    assert not ok and w == c2
    ok, _ = big.equal(GradedIdeal([c1 + 0 * c2, c2]), 6)
    assert ok
    ok, why = big.equal(small, 6)
    assert not ok


def test_contains_above_the_bound_is_an_error(table):
    """A containment through a degree above the bound would read generators
    truncated there, so it is refused, as quotient_structure refuses such a
    degree."""
    c1, c2 = table.var("c1"), table.var("c2")
    big = GradedIdeal([c1, c2])
    assert big.contains(GradedIdeal([2 * c2]), 8) == (True, None)
    for call in (
        lambda: big.contains(GradedIdeal([2 * c2]), 9),
        lambda: big.equal(GradedIdeal([c2, c1]), 9),
        lambda: big.quotient_structure(9),
    ):
        with pytest.raises(GradedError, match="degree 9 above the bound"):
            call()


def test_equal_by_two_sided_containment(table):
    c1, c2, c3 = table.var("c1"), table.var("c2"), table.var("c3")
    gens = [c1 ** 2, c2, c3]
    # a second generating set of the same ideal
    other = GradedIdeal([c1 ** 2 + c2, c2, c3 - c1 * c2])
    assert GradedIdeal(gens).equal(other, 8) == (True, None)
    # dropping a generator leaves c3 out of the smaller ideal
    smaller = GradedIdeal(gens[:2])
    assert GradedIdeal(gens).equal(smaller, 8) == (
        False, ("missing from right ideal", c3)
    )
    assert smaller.equal(GradedIdeal(gens), 8) == (
        False, ("missing from left ideal", c3)
    )


def test_equal_detects_span_difference(table):
    c1 = table.var("c1")
    a = GradedIdeal([c1])
    b = GradedIdeal([2 * c1])
    ok, _ = a.equal(b, 4)
    assert not ok


# -- properties ---------------------------------------------------------------

matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=1,
        max_size=5,
    )
)


@st.composite
def sparse_matrices(draw, max_rows=12, max_cols=16):
    """Mostly-zero integer matrices, tall or wide, often with zero rows and
    all-zero columns.  Small entries are common, so pivot candidates of equal
    |entry| are too; large ones make non-unit pivots."""
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    values = st.one_of(st.integers(-3, 3), st.integers(-40, 40)).filter(bool)
    entries = draw(st.dictionaries(cells, values, max_size=max(1, m * n // 4)))
    M = [[0] * n for _ in range(m)]
    for (i, j), a in entries.items():
        M[i][j] = a
    return M


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_row_hnf_matches_the_dense_reference(M):
    assert_matches_the_reference(M)


def test_row_hnf_matches_the_dense_reference_on_edge_shapes():
    for M in ([], [[]], [[0]], [[0, 0], [0, 0]], [[-3]], [[0], [-2], [4]]):
        assert_matches_the_reference(M)


def test_row_hnf_pivots_on_the_sparsest_row_of_least_entry():
    """Rows 1 and 2 tie at |entry| 1 in column 0 and row 2 is sparser, so it
    is the pivot and H's first row as it stands: U[0] picks out row 2 alone.
    The first-row rule pivots on row 1 and keeps it as H's first row, an
    echelon basis with the same pivots and pivot values."""
    M = [[0, 1], [1, 1], [1, 0]]
    H, U, pivots = row_hnf(M)
    assert (H, pivots) == ([{0: 1}, {1: 1}, {}], [(0, 0), (1, 1)])
    assert U == [{2: 1}, {1: 1, 2: -1}, {0: 1, 1: -1, 2: 1}]
    assert (H, U, pivots) == sparse_reference(M)
    H_old, U_old, pivots_old = sparse_reference(M, sparsest=False)
    assert pivots_old == pivots
    assert pivot_values(H_old, pivots_old) == pivot_values(H, pivots)
    assert (H_old[0], U_old[0]) == ({0: 1, 1: 1}, {1: 1})


def test_row_hnf_matches_the_dense_reference_on_so4_lattices(monkeypatch):
    """Degree-10 lattices of the SO(4) geometry.  The G(3, wedge^2 S)
    relation lattice over the c and f variables (the level's core ring) has
    pivots 2, 9, 15 and 885 and takes more than one Euclidean round in 10
    columns.  The G(2, S) relation lattice over the c and b variables is
    built from the level's relations: the level substitutes c3 and c4 out,
    so its core ring has none left, and its Schur solver matrix is square.
    Neither level pushes forward in the geometry's build, so each level's
    lattice-path state is built here."""
    P = So4Pipeline(degree_bound=10).build_geometry()
    level = P.GG.levels[1]
    level._lattice_path()
    P.G3._lattice_path()
    core_relations = [r.convert(level.core_table) for r in level.new_relations]
    g2s = DegreeLattice(level.core_table, core_relations, 10).rows
    assert not level.core_ring.lattice(10).rows and len(g2s) > 100
    solver_rows = []

    def capture(rows):
        solver_rows.append(rows)
        return row_hnf(rows)

    monkeypatch.setattr(zgraded, "row_hnf", capture)
    level._solver(10)
    g3 = P.G3.core_ring.lattice(10).rows
    H, _, pivots = row_hnf(g3)
    assert {H[r][c] for r, c in pivots} >= {2, 9, 15, 885}
    for rows in (g3, g2s, solver_rows[0]):
        assert_matches_the_reference(rows)


@settings(max_examples=300, deadline=None)
@given(sparse_matrices(), st.data())
def test_row_hnf_canonical_under_row_shuffle(M, data):
    """H and U depend on the order of M's rows; what callers read does not.
    The pivots and pivot values are the same, and so is the reduction of a
    vector, whose pivot entries end in [0, pivot)."""
    n = len(M[0])
    shuffled = data.draw(st.permutations(M))
    v = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    seen = []
    for rows in (M, shuffled):
        H, _, pivots = row_hnf(rows)
        w = list(v)
        zgraded._back_substitute(H, pivots, w)
        for r, c in pivots:
            assert 0 <= w[c] < H[r][c]
        seen.append((pivots, pivot_values(H, pivots), w))
    assert seen[0] == seen[1]


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), st.data())
def test_hnf_solve_recovers_a_row_combination(M, data):
    m, n = len(M), len(M[0])
    x = data.draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m))
    v = [sum(x[i] * M[i][j] for i in range(m)) for j in range(n)]
    y = hnf_solve(*row_hnf(M), v)
    assert y is not None
    assert [sum(y[i] * M[i][j] for i in range(m)) for j in range(n)] == v


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), st.data())
def test_back_substitute_brings_pivot_entries_into_range(M, data):
    """Each pivot entry ends in [0, pivot), and what was taken off v is the
    combination of H's rows given by the (row, quotient) pairs returned."""
    n = len(M[0])
    H, U, pivots = row_hnf(M)
    v = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    w = list(v)
    used = zgraded._back_substitute(H, pivots, w)
    for r, c in pivots:
        assert 0 <= w[c] < H[r][c]
    rows = dense(H, n)
    taken = [sum(q * rows[r][k] for r, q in used) for k in range(n)]
    assert [a - b for a, b in zip(v, w)] == taken
    assert hnf_solve(H, U, pivots, taken) is not None


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), st.data())
def test_hnf_solve_refuses_an_odd_vector_over_an_even_lattice(M, data):
    even = [[2 * a for a in row] for row in M]
    n = len(M[0])
    v = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    v[data.draw(st.integers(0, n - 1))] = 2 * data.draw(st.integers(-9, 9)) + 1
    assert hnf_solve(*row_hnf(even), v) is None


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_smith_properties(M):
    """Positive invariant factors, each dividing the next, the same for M
    and for its transpose."""
    factors = smith(M)
    assert all(a > 0 for a in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert smith([list(col) for col in zip(*M)]) == factors
    if len(M) <= 4 and len(M[0]) <= 4:
        # the k-th factor is d_k / d_(k-1), d_k the gcd of the k x k minors
        d = [1] + [x for x in determinantal_divisors(M) if x]
        assert factors == [b // a for a, b in zip(d, d[1:])]


CF = VarTable(
    [("c1", 1), ("c2", 2), ("c3", 3), ("c4", 4), ("f1", 1), ("f2", 2), ("f3", 3)],
    degree_bound=6,
)


def _cf_pool():
    c1, c2, c3, c4, f1, f2, f3 = CF.gens()
    x = c2 - f2
    return [
        c1,
        f1,
        c3 - f3,
        2 * c3,
        3 * c1 - 2 * f1,
        c3 - f3 + c1 * c2,  # unit-linear only once c1 is gone
        x * x - 4 * c4,
        x * c3,
        f2 - c1 * f1,
    ]


POOL = _cf_pool()
ideals = st.lists(
    st.integers(0, len(POOL) - 1), min_size=1, max_size=5, unique=True
).map(lambda idx: [POOL[i] for i in idx])


@st.composite
def homogeneous(draw, d):
    monos = CF.monomials(d)
    picks = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=6))
    return CF.poly({m: draw(st.integers(-5, 5)) for m in picks})


@st.composite
def ideal_members(draw, gens):
    d = draw(st.integers(1, CF.degree_bound))
    p = CF.zero()
    for g in gens:
        if g.degree() <= d:
            p = p + g * draw(homogeneous(d - g.degree()))
    return p


@settings(max_examples=40, deadline=None)
@given(ideals, st.data())
def test_normal_form_matches_the_full_table_lattice(gens, data):
    ideal = GradedIdeal(gens)
    d = data.draw(st.integers(1, CF.degree_bound))
    p = data.draw(homogeneous(d))
    full = DegreeLattice(CF, ideal.generators, d)
    nf = ideal.normal_form(p)
    assert nf == full.poly(full.reduce(full.vector(p)))
    assert ideal.normal_form(nf) == nf
    ok, cert = ideal.member(p)
    assert ok == nf.is_zero()
    if ok:
        assert ideal.certificate_product(cert) == p


@settings(max_examples=40, deadline=None)
@given(ideals, st.data())
def test_member_certificates_remultiply(gens, data):
    ideal = GradedIdeal(gens)
    p = data.draw(ideal_members(gens))
    ok, cert = ideal.member(p)
    assert ok
    assert ideal.certificate_product(cert) == p


@settings(max_examples=25, deadline=None)
@given(ideals, st.integers(0, 5))
def test_quotient_structure_matches_smith_on_the_full_lattice(gens, d):
    ideal = GradedIdeal(gens)
    full = DegreeLattice(CF, ideal.generators, d)
    ncols = len(full.cols)
    factors = smith(full.rows)
    want = GroupStructure(
        d, ncols - len(factors), tuple(x for x in factors if x > 1)
    )
    assert ideal.quotient_structure(d) == want


# c1..c3 and f1..f3 of the pool above, with spectators s1 and s2 between
# them in the variable order, so a spectator monomial interleaves with the
# core monomials in graded-lex order
SP = VarTable(
    [("c1", 1), ("s1", 1), ("c2", 2), ("c3", 3), ("s2", 2), ("f1", 1),
     ("f2", 2), ("f3", 3)],
    degree_bound=6,
)


def _sp_pool():
    c1, s1, c2, c3, s2, f1, f2, f3 = SP.gens()
    return [
        c1,
        2 * c3,
        c3 - f3 + c1 * c2,
        3 * c1 - 2 * f1,
        (c2 - f2) * c3,
        f2 - c1 * f1,
        2 * c2 * f1 + 4 * f3,
        c2 * c2 - 3 * f2 * f2,
    ]


SP_POOL = _sp_pool()
spectator_ideals = st.lists(
    st.integers(0, len(SP_POOL) - 1), min_size=1, max_size=4, unique=True
).map(lambda idx: [SP_POOL[i] for i in idx])


@st.composite
def sp_homogeneous(draw, d):
    picks = draw(st.lists(st.sampled_from(SP.monomials(d)), min_size=1, max_size=6))
    return SP.poly({m: draw(st.integers(-5, 5)) for m in picks})


@settings(max_examples=60, deadline=None)
@given(spectator_ideals, st.data())
def test_spectator_split_agrees_with_the_full_table_lattice(gens, data):
    """member, normal_form and quotient_structure of an ideal whose
    generators leave variables out agree with one lattice over every
    variable of the table, and no lattice the ideal builds has a variable
    that no generator uses."""
    ideal = GradedIdeal(gens)
    d = data.draw(st.integers(0, SP.degree_bound))
    full = DegreeLattice(SP, ideal.generators, d)
    p = data.draw(sp_homogeneous(d))
    nf = ideal.normal_form(p)
    assert nf == full.poly(full.reduce(full.vector(p)))
    ok, cert = ideal.member(p)
    assert ok == nf.is_zero()
    # p - nf is a member, with a certificate that multiplies back
    ok, cert = ideal.member(p - nf)
    assert ok and ideal.certificate_product(cert) == p - nf
    factors = smith(full.rows)
    assert ideal.quotient_structure(d) == GroupStructure(
        d, len(full.cols) - len(factors), tuple(x for x in factors if x > 1)
    )
    used = set().union(*(g.variables() for g in gens))
    assert ideal._lattices
    for lat in ideal._lattices.values():
        assert set(lat.table.names) <= used


def test_unit_linear_generators_are_eliminated():
    """Each lattice lives over the variables that the generators left after
    unit-linear elimination use; the others are spectators."""
    c1, c2, c3, c4, f1, f2, f3 = CF.gens()
    x = c2 - f2
    final = GradedIdeal([c1, f1, 2 * c3, c3 - f3, x * x - 4 * c4, x * c3])
    assert final.lattice(4).table.names == ("c2", "c4", "f2", "f3")
    # c1, then c3 (once c1 is gone) are substituted out: no generator is
    # left, every lattice is over no variable and a query is its own
    # normal form once substituted
    chained = GradedIdeal([c1, c3 - f3 + c1 * c2])
    assert chained.lattice(3).table.names == ()
    assert chained.lattice(3).rows == []
    assert chained.normal_form(c3 + c1 * f2) == f3
    ok, cert = chained.member(c3 - f3)
    assert ok and chained.certificate_product(cert) == c3 - f3
    # (c1, 2c3): c3 alone is a lattice variable, c2, c4 and the f's split off
    odd = GradedIdeal([c1, 2 * c3])
    assert odd.lattice(6).table.names == ("c3",)
    assert [len(r) for r in odd.lattice(6).rows] == [1]
    assert odd.normal_form(
        3 * c3 * c3 + 3 * c3 * f2 * f1 + c1 * c3 * f2
    ) == c3 * c3 + c3 * f2 * f1
