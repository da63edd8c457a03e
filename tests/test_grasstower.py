"""Unit tests for Grassmannian tower levels and Gysin pushforwards."""

import random
from fractions import Fraction

import pytest

from chowcalc import chern, grasstower, zgraded
from chowcalc.grasstower import (
    FiberProduct,
    TowerError,
    check_partition,
    conjugate,
    extend,
    fiber_product,
    free_ring,
    partitions_in_box,
    schur_from_chern,
    subset_symmetrization,
)
from chowcalc.polyring import Poly, VarTable
from chowcalc.so4pipeline import So4Pipeline
from chowcalc.zgraded import hnf_solve, row_hnf


def elementary_values(roots):
    """Elementary symmetric functions e_1..e_n of an integer list."""
    n = len(roots)
    e = [1] + [0] * n
    for x in roots:
        for t in range(n, 0, -1):
            e[t] += e[t - 1] * x
    return e[1:]


# -- partitions ---------------------------------------------------------------


def test_partitions_in_box():
    box = partitions_in_box(2, 2)
    assert box == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
    assert len(partitions_in_box(3, 3)) == 20  # C(6,3)


def test_check_partition():
    assert check_partition([2, 1, 0], 2, 2) == (2, 1)
    with pytest.raises(TowerError):
        check_partition([1, 2], 2, 2)
    with pytest.raises(TowerError):
        check_partition([3], 1, 2)
    with pytest.raises(TowerError):
        check_partition([1, 1, 1], 2, 3)


def test_conjugate():
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()


def test_schur_from_chern_basics():
    t = VarTable([("b1", 1), ("b2", 2)], 6)
    B = chern.Bundle(2, [t.one(), t.var("b1"), t.var("b2")])
    b1, b2 = t.var("b1"), t.var("b2")
    assert schur_from_chern(B, (1,)) == b1
    assert schur_from_chern(B, (1, 1)) == b2
    assert schur_from_chern(B, (2,)) == b1 * b1 - b2
    assert schur_from_chern(B, (2, 2)) == b2 * b2
    assert schur_from_chern(B, ()) == t.one()


# -- G(2, 4): the absolute Grassmannian of lines ------------------------------


@pytest.fixture
def g24():
    # trivial rank-4 bundle over a (near-)point base with one spectator var
    ring = free_ring([("t", 1)], degree_bound=8)
    E = chern.trivial(ring.table, 4)
    return extend(ring, E, 2, ["b1", "b2"])


def test_g24_normalization(g24):
    T = g24.table
    b1, b2 = T.var("b1"), T.var("b2")
    # the two pinned integrals
    assert g24.gysin(b2 * b2).constant() == 1
    assert g24.gysin(b1 ** 4).constant() == 2
    # degree count of the other monomials
    assert g24.gysin(b1 * b1 * b2).constant() == 1
    assert g24.gysin(b1 ** 3).is_zero()  # degree below the fiber dimension


def test_g24_duality_pairing(g24):
    # Schur classes pair to 1 against their complement in the 2x2 box
    T = g24.table
    box = partitions_in_box(2, 2)
    for lam in box:
        comp = tuple(
            2 - p for p in reversed(tuple(lam) + (0,) * (2 - len(lam)))
        )
        comp = tuple(p for p in comp if p)
        s1 = g24.schur(lam)
        s2 = g24.schur(comp)
        val = g24.gysin(g24.normal_form(s1 * s2))
        assert val.constant() == 1, (lam, comp)


def test_g24_relations(g24):
    # c(sub) * c(quot) = 1: degree 3 and 4 relations kill b-classes
    T = g24.table
    b1, b2 = T.var("b1"), T.var("b2")
    nf = g24.normal_form
    # the classical relation b1^3 = 2 b1 b2 holds modulo the relations
    assert nf(b1 ** 3 - 2 * b1 * b2).is_zero()
    for r in g24.new_relations:
        assert nf(r).is_zero()


# -- relative towers ----------------------------------------------------------


def base_and_S():
    """The free ring on c1..c4 at bound 9 and the rank-4 bundle S over it."""
    base = free_ring(
        [("c1", 1), ("c2", 2), ("c3", 3), ("c4", 4)], degree_bound=9
    )
    tb = base.table
    S = chern.Bundle(4, [tb.one()] + [tb.var("c%d" % i) for i in range(1, 5)])
    return base, S


@pytest.fixture
def g2s():
    base, S = base_and_S()
    return extend(base, S, 2, ["b1", "b2"])


def test_tower_level_shape(g2s):
    assert g2s.relative_dim == 4
    assert g2s.taut_sub.rank == 2 and g2s.taut_quot.rank == 2
    # Whitney: c(sub) * c(quot) = c(E) modulo the defining relations
    # (the discarded quotient parts above rank 2 are exactly the relations)
    diff = g2s.taut_sub.total() * g2s.taut_quot.total() - g2s.E.total()
    assert g2s.normal_form(diff).is_zero()
    # new relations live in degrees 3 and 4
    assert [r.degree() for r in g2s.new_relations] == [3, 4]


def test_gysin_degree_and_linearity(g2s):
    T = g2s.table
    b1, b2 = T.var("b1"), T.var("b2")
    c1 = T.var("c1")
    img = g2s.gysin(b2 * b2)
    assert img.constant() == 1
    # degree drops by exactly 4
    p = b1 ** 2 * b2 * c1
    assert g2s.gysin(p).degree() == p.degree() - 4
    with pytest.raises(TowerError):
        g2s.gysin(b1 + b2)  # not homogeneous


def test_projection_formula(g2s):
    rng = random.Random(17)
    T = g2s.table
    b1, b2 = T.var("b1"), T.var("b2")
    for _ in range(20):
        # random fiber class and random base class
        fiber = T.zero()
        for _ in range(3):
            i = rng.randint(0, 4)
            j = rng.randint(0, 2)
            if 4 <= i + 2 * j <= 6:
                fiber = fiber + rng.randint(-4, 4) * b1 ** i * b2 ** j
        d = rng.randint(1, 3)
        mono = rng.choice(
            [m for m in T.monomials(d) if all(
                m[T.index[v]] == 0 for v in ("b1", "b2"))]
        )
        base_cls = T.poly({mono: rng.randint(-3, 3)})
        for part in fiber.graded_parts().values():
            lhs = g2s.gysin(part * base_cls)
            rhs = g2s.gysin(part) * base_cls.convert(lhs.table)
            assert lhs == rhs


def test_gysin_vs_symmetrization_oracle_g24(g24):
    # over a trivial bundle the roots vanish, so the oracle comparison is
    # meaningful exactly in the top fiber degree, where the symmetrized sum
    # is a degree-0 rational function of the roots: root-independent
    rng = random.Random(29)
    T = g24.table
    b1, b2 = T.var("b1"), T.var("b2")
    done = 0
    while done < 20:
        p = T.zero()
        for _ in range(rng.randint(1, 4)):
            (i, j) = rng.choice([(4, 0), (2, 1), (0, 2)])
            p = p + rng.randint(-5, 5) * b1 ** i * b2 ** j
        if p.is_zero():
            continue
        img = g24.gysin(p)
        for _ in range(10):
            roots = rng.sample(range(-20, 20), 4)
            got = subset_symmetrization(p, ["b1", "b2"], roots, {"t": 0})
            assert got == Fraction(img.constant())
        done += 1


def test_gysin_vs_symmetrization_oracle_g2s(g2s):
    rng = random.Random(37)
    T = g2s.table
    b1, b2 = T.var("b1"), T.var("b2")
    c_names = ["c1", "c2", "c3", "c4"]
    for _ in range(20):
        p = T.zero()
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, 4)
            j = rng.randint(0, 2)
            k = rng.randint(0, 2)
            if 4 <= i + 2 * j + k <= 9:
                p = p + rng.randint(-5, 5) * b1 ** i * b2 ** j * T.var(
                    "c1") ** k
        if p.is_zero():
            continue
        for part in p.graded_parts().values():
            img = g2s.gysin(part)
            for _ in range(10):
                roots = rng.sample(range(-20, 20), 4)
                es = elementary_values(roots)
                values = dict(zip(c_names, es))
                got = subset_symmetrization(part, ["b1", "b2"], roots, values)
                assert got == Fraction(img.eval(values))


def free_bundle(prefix, n, degree_bound):
    """The free ring on prefix1..prefix<n> and the bundle E with those
    Chern classes."""
    names = ["%s%d" % (prefix, i) for i in range(1, n + 1)]
    base = free_ring([(nm, i) for i, nm in enumerate(names, start=1)], degree_bound)
    tb = base.table
    E = chern.Bundle(n, [tb.one()] + [tb.var(nm) for nm in names])
    return base, E


def random_class(rng, T, d, terms):
    """A degree-d class of T with up to `terms` random monomials."""
    monos = T.monomials(d)
    return T.poly({rng.choice(monos): rng.choice((-3, -2, -1, 1, 2, 3))
                   for _ in range(terms)})


def assert_matches_oracle(level, rng, E_names, draw_roots, classes):
    """Random classes of `level` push forward to what the oracle gives.

    `draw_roots(rng)` returns distinct integer roots xs of the bundle whose
    Chern classes are `E_names`, and the roots of the bundle the level
    is built on; the image is evaluated at the elementary symmetric
    functions of xs and at random values of the other variables.
    """
    T = level.table
    for _ in range(classes):
        d = rng.randint(level.relative_dim, T.degree_bound)
        p = random_class(rng, T, d, 3)
        img = level.gysin(p)
        for _ in range(2):
            xs, roots = draw_roots(rng)
            values = dict(zip(E_names, elementary_values(xs)))
            for nm in T.names:
                if nm not in values and nm not in level.subvars:
                    values[nm] = rng.randint(-9, 9)
            got = subset_symmetrization(p, level.subvars, roots, values)
            assert got == Fraction(img.eval(values)), str(p)


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in range(2, 6) for k in range(1, n)]
)
def test_gysin_vs_symmetrization_oracle_free_bundles(n, k):
    """G(k, E) for E with variable Chern classes e1..en: the fiber
    substitutes e_(n-k+1)..e_n out, leaves a core ring with no relations,
    and every image still equals the oracle's."""
    base, E = free_bundle("e", n, 9)
    level = extend(base, E, k, ["f%d" % i for i in range(1, k + 1)])
    ring = level._fiber.core_ring
    assert not ring.relations
    assert ring.table.names == tuple(
        ["e%d" % i for i in range(1, n - k + 1)] + list(level.subvars)
    )

    def draw_roots(rng):
        xs = rng.sample(range(-30, 30), n)
        return xs, xs

    names = ["e%d" % i for i in range(1, n + 1)]
    assert_matches_oracle(level, random.Random(100 * n + k), names, draw_roots, 12)


def test_gysin_vs_symmetrization_oracle_without_substitution():
    """On P(wedge^2 E) for E of rank 4 no relation gives a variable as
    +-v + rho, so the fiber substitutes nothing and solves modulo its
    relation lattice; the images still equal the oracle's, whose roots of
    wedge^2 E are the sums x_i + x_j of two roots of E."""
    base, E = free_bundle("c", 4, 10)
    level = extend(base, chern.exterior_square(E), 1, ["f1"])
    fiber = level._fiber
    assert not fiber._units and fiber.core_ring.table == fiber.core_table
    assert fiber.core_ring.relations

    def draw_roots(rng):
        while True:
            xs = rng.sample(range(-30, 30), 4)
            sums = [xs[i] + xs[j] for i in range(4) for j in range(i + 1, 4)]
            if len(set(sums)) == 6:
                return xs, sums

    names = ["c1", "c2", "c3", "c4"]
    assert_matches_oracle(level, random.Random(43), names, draw_roots, 20)


def test_g2s_solver_echelons_only_its_own_matrix(monkeypatch):
    """The G(2, S) fiber has substituted c3 and c4 out, so its degree-10
    solver reduces against no relation lattice: `row_hnf` runs once, on the
    square solver matrix."""
    fiber = So4Pipeline(degree_bound=10).build_geometry().GG.levels[1]._fiber
    shapes = []

    def counted(rows, transform=True):
        shapes.append((len(rows), len(rows[0])))
        return row_hnf(rows, transform)

    monkeypatch.setattr(zgraded, "row_hnf", counted)
    monkeypatch.setattr(grasstower, "row_hnf", counted)
    lat, labels, _, _, _ = fiber._solver(10)
    assert shapes == [(len(labels), len(labels))] and len(lat.cols) == len(labels)


def test_oracle_requires_distinct_roots(g24):
    T = g24.table
    with pytest.raises(TowerError):
        subset_symmetrization(T.var("b2") ** 2, ["b1", "b2"], [1, 1, 2, 3], {})


def test_fiber_product_gysin_factors():
    base, S = base_and_S()
    W = chern.exterior_square(S)
    G3 = extend(base, W, 3, ["f1", "f2", "f3"])
    G2 = extend(base, S, 2, ["b1", "b2"])
    GG = fiber_product(G3, G2)
    T = GG.table
    b2, f1 = T.var("b2"), T.var("f1")
    # pushing along factor 1 integrates out the b's and keeps the f's
    img = GG.gysin(1, b2 * b2 * f1)
    assert str(img) == "f1"
    # pushing a pure base class of low fiber degree gives zero
    assert GG.gysin(1, T.var("c1") ** 4).is_zero()
    # on classes free of the f's, the factor pushes forward as its level does
    tb = base.table
    for i, j, m in [(0, 2, 0), (4, 0, 0), (2, 1, 1), (3, 1, 1), (0, 3, 1)]:
        p, q = (
            U.var("b1") ** i * U.var("b2") ** j * U.var("c1") ** m
            for U in (T, G2.table)
        )
        assert GG.gysin(1, p).convert(tb) == G2.gysin(q).convert(tb)


@pytest.fixture(scope="module")
def so4_levels():
    P = So4Pipeline(degree_bound=10).build_geometry()
    return {"G(2,S)": P.GG.levels[1], "G3": P.G3}


def _top_box_by_full_transform(fiber, d):
    """Top-box coefficients of degree-d core classes, solved with every
    column of the transform built: a map from class to image, or to None
    where the class is outside the Schur-basis span."""
    lat, labels, _, _, _ = fiber._solver(d)
    # the rows and p go through the fiber's substitution, onto the table of
    # its core ring
    rows = [
        lat.reduce(lat.vector(
            fiber._schur[lam] * fiber._substituted(Poly(fiber.core_table, {m: 1}))
        ))
        for lam, m in labels
    ]
    hnf = row_hnf(rows)

    def solve(p):
        x = hnf_solve(*hnf, lat.reduce(lat.vector(fiber._substituted(p))))
        if x is None:
            return None
        out = {}
        for coeff, (lam, m) in zip(x, labels):
            if coeff and lam == fiber.top:
                out[m] = out.get(m, 0) + coeff
        return Poly(fiber.core_table, out)

    return solve


@pytest.mark.parametrize("name", ["G(2,S)", "G3"])
def test_solver_reads_the_same_top_box_coefficients_as_a_full_solve(
    so4_levels, name
):
    """The solver builds only the top-box columns of its transform; every
    degree-9 and degree-10 core monomial gets the same image, or the same
    TowerError, as from a solve with the whole transform."""
    fiber = so4_levels[name]._fiber
    for d in (9, 10):
        full = _top_box_by_full_transform(fiber, d)
        for mono in fiber.core_table.monomials(d):
            p = fiber.core_table.poly({mono: 1})
            want = full(p)
            if want is None:
                with pytest.raises(TowerError, match="Schur-basis module span"):
                    fiber._solve_core(p)
            else:
                assert fiber._solve_core(p) == want, str(p)


def test_fiber_product_renames_clashing_sub_bundle_variables():
    base, S = base_and_S()
    GG = fiber_product(
        extend(base, S, 2, ["b1", "b2"]), extend(base, S, 2, ["b1", "b2"])
    )
    T = GG.table
    assert T.names[-4:] == ("b1", "b2", "b1_2", "b2_2")
    v = T.var
    cases = [
        (v("b1_2") ** 4, "2"),
        (v("b2_2") ** 2 * v("b1"), "b1"),
        (v("b1_2") ** 2 * v("b2_2") * v("c1") * v("b2"), "c1*b2"),
    ]
    for p, image in cases:
        assert str(GG.gysin(1, p)) == image
        assert GG.gysin(0, p).is_zero()


def test_fiber_product_keeps_levels_that_share_a_table():
    # the SO(4) script's two levels are built over its one table
    P = So4Pipeline(degree_bound=6).build_geometry()
    G2 = P.script_value("G2")
    assert P.GG.levels[0] is P.G3 and P.GG.levels[1] is G2
    assert P.GG.table == P.G3.table == G2.table


def test_fiber_product_requires_common_base():
    b1 = free_ring([("c1", 1)], 6)
    b2 = free_ring([("d1", 1)], 6)
    E1 = chern.trivial(b1.table, 3)
    E2 = chern.trivial(b2.table, 3)
    t1 = extend(b1, E1, 1, ["u1"])
    t2 = extend(b2, E2, 1, ["v1"])
    with pytest.raises(TowerError):
        fiber_product(t1, t2)


def test_tower_validation():
    base = free_ring([("c1", 1)], 6)
    E = chern.trivial(base.table, 3)
    with pytest.raises(TowerError):
        extend(base, E, 3, ["a1", "a2", "a3"])  # k must be < rank
    with pytest.raises(TowerError):
        extend(base, E, 1, ["c1"])  # name clash with the base
    with pytest.raises(TowerError):
        extend(base, E, 2, ["a1"])  # wrong number of names
