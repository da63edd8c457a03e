"""End-to-end acceptance suite: one test per headline requirement.

Two recorded reference values (the divisor pushforward and the sixth
monomial pushforward) are not reproduced by the computation; the
corresponding assertions here are kept honest and fail.  Everything else
passes.  See the report emitted by `chowcalc verify-so4` for the full
per-check breakdown.
"""

import json
import os
import random
from fractions import Fraction

import jsonschema
import pytest

from chowcalc import chern, cli
from chowcalc.dsl import run_script
from chowcalc.grasstower import TowerLevel, subset_symmetrization
from chowcalc.polyring import VarTable
from chowcalc.so4pipeline import (
    REPORT_SCHEMA,
    So4Pipeline,
    lemma4_check,
    theorem1_structure_oracle,
)
from chowcalc.zgraded import GradedIdeal

EXAMPLE = os.path.join(os.path.dirname(__file__), "..", "examples", "so4.chow")


@pytest.fixture(scope="module")
def pipeline():
    p = So4Pipeline(degree_bound=10, seed=0)
    p.build_geometry()
    return p


@pytest.fixture(scope="module")
def report(pipeline):
    return pipeline.run_all()


def checks(report):
    return {c.name: c for c in report.checks}


# 1. the two displayed intermediate classes, term for term


def test_exact_class_reproduction(pipeline):
    T = pipeline.GG.table
    c1, c2 = T.var("c1"), T.var("c2")
    f1, f2, f3 = (T.var(n) for n in ("f1", "f2", "f3"))
    b1 = T.var("b1")
    d = c1 - b1
    assert pipeline.script_value("Y") == -f3 + d * f2 - d * d * f1 + d ** 3
    assert pipeline.script_value("Z") == (
        b1 * b1 - c1 * b1 + c1 * c1 - 2 * c1 * f1 + f1 * f1 - f2 + 2 * c2
    )


# 2. the six recorded pushforwards, exactly
#    (the first and last recorded values are NOT reproduced: the computed
#    divisor is 3*c1 - 2*f1 and the computed sixth value is -c2*f3 + f2*f3;
#    these assertions are kept as recorded and fail)


def test_six_pushforwards(pipeline):
    t = pipeline.G3.table
    c1, c2, c3, c4 = (t.var("c%d" % i) for i in range(1, 5))
    f1, f2, f3 = (t.var("f%d" % i) for i in range(1, 4))
    x = c2 - f2
    pf = pipeline.pushforwards()
    expected = [
        13 * c1 - 2 * f1,
        t.zero(),
        -2 * f3,
        c3 - f3,
        x * x - 4 * c4,
        c2 * f3 + f2 * c3,
    ]
    assert [str(p) for p in pf] == [str(e) for e in expected]


# 3. tower relations t4, t5, t6 mod (c1, f1) and their membership in the
#    six-generator ideal, with verifying certificates


def test_tower_relations_and_membership(pipeline):
    t = pipeline.G3.table
    c1, c2, c3, c4 = (t.var("c%d" % i) for i in range(1, 5))
    f1, f2, f3 = (t.var("f%d" % i) for i in range(1, 4))
    x = c2 - f2
    rels = [r.convert(t) for r in pipeline.G3.new_relations]
    assert [r.degree() for r in rels] == [4, 5, 6]
    mod_j = [r.substitute({"c1": 0, "f1": 0}) for r in rels]
    assert mod_j[0] == x * x - 4 * c4
    assert mod_j[1] == 2 * f2 * f3 - 2 * c2 * f3
    assert mod_j[2] == f2 * (4 * c4 - x * x) + f3 * f3 - c3 * c3
    ideal = GradedIdeal(
        [c1, f1, 2 * c3, c3 - f3, x * x - 4 * c4, x * c3]
    )
    for r in rels:
        ok, cert = ideal.member(r)
        assert ok
        assert ideal.certificate_product(cert) == r


# 4. ideal identity in every degree <= 8, both containments certified


def test_ideal_identity(pipeline):
    t = pipeline.G3.table
    c1, c2, c3, c4 = (t.var("c%d" % i) for i in range(1, 5))
    f1, f2, f3 = (t.var("f%d" % i) for i in range(1, 4))
    x = c2 - f2
    pf = [p for p in pipeline.pushforwards() if not p.is_zero()]
    left = GradedIdeal(pf + [c1, f1])
    right = GradedIdeal([c1, f1, 2 * c3, c3 - f3, x * x - 4 * c4, x * c3])
    ok, w = left.contains(right, 8)
    assert ok, w
    ok, w = right.contains(left, 8)
    assert ok, w
    ok, w = left.equal(right, 8)
    assert ok, w


# 5. the degree-one lattice argument on the recorded divisor data


def test_lattice_generation(pipeline):
    res = lemma4_check((13, -2))
    assert res["f1_image"] == 26
    assert res["image_generator"] == 2
    assert res["normal_generates"]
    assert res["replace_ok"]


# 6. final presentation and per-degree quotient structure


def test_final_presentation_and_structure(pipeline):
    relations, ideal = pipeline.assemble_theorem1()
    pres = pipeline.presentation_table()
    x = pres.var("x")
    want = {
        str(pres.var("c1")),
        str(2 * pres.var("c3")),
        str(x * pres.var("c3")),
        str(x * x - 4 * pres.var("c4")),
    }
    assert {str(r) for r in relations} == want
    structures = [str(ideal.quotient_structure(d)) for d in range(7)]
    assert structures == ["Z", "0", "Z^2", "Z/2", "Z^3", "Z/2", "Z^4 + Z/2"]
    # and the independent enumeration agrees
    for d in range(7):
        free, torsion = theorem1_structure_oracle(d)
        s = ideal.quotient_structure(d)
        assert s.free_rank == free and len(s.torsion) == torsion
        assert all(t == 2 for t in s.torsion)


# 7. ruling symmetry of the complementary rank-3 bundle


def test_ruling_symmetry(pipeline, report):
    _, ok1, ok2 = pipeline.check_ruling_symmetry()
    assert ok1 and ok2
    assert checks(report)["ruling-symmetry"].status == "pass"


# 8. property suites guarding the machinery


def test_property_whitney_twist_dual():
    rng = random.Random(101)
    t = VarTable([("a", 1), ("b", 2), ("c", 3)], 8)
    for _ in range(20):
        total = t.one()
        rank = rng.randint(1, 4)
        for i in range(1, rank + 1):
            coeffs = {
                m: rng.randint(-3, 3)
                for m in t.monomials(i)
                if rng.random() < 0.5
            }
            total = total + t.poly(coeffs)
        E = bundle_of(rank, total)
        assert chern.dual(chern.dual(E)) == E
        # twisting by zero is the identity; twists compose additively
        a = t.var("a")
        assert chern.tensor_line(E, t.zero()) == E
        twice = chern.tensor_line(chern.tensor_line(E, a), a)
        assert twice == chern.tensor_line(E, 2 * a)
        # Whitney: recover a factor by series division
        F = bundle_of(2, t.one() + a)
        s = bundle_of(rank + 2, E.total() * F.total())
        assert chern.whitney_quotient(s, E).total() == F.total()


def bundle_of(rank, total):
    """The bundle of that rank whose c_i are the graded parts of `total`."""
    parts = total.graded_parts()
    zero = total.table.zero()
    return chern.Bundle(rank, [parts.get(d, zero) for d in range(rank + 1)])


def g24():
    """G(2, 4) over a table with one spectator variable t."""
    T = VarTable([("t", 1), ("b1", 1), ("b2", 2)], 8)
    return TowerLevel(T, chern.Bundle(4, [T.one()]), 2, ["b1", "b2"])


def g2s(degree_bound):
    """G(2, S) for S of rank 4 with Chern classes c1..c4."""
    T = VarTable(
        [("c1", 1), ("c2", 2), ("c3", 3), ("c4", 4), ("b1", 1), ("b2", 2)],
        degree_bound,
    )
    S = chern.Bundle(4, [T.one()] + [T.var("c%d" % i) for i in range(1, 5)])
    return TowerLevel(T, S, 2, ["b1", "b2"])


def _random_b_class(rng, T, extra=0):
    b1, b2 = T.var("b1"), T.var("b2")
    p = T.zero()
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, 4)
        j = rng.randint(0, 2)
        k = rng.randint(0, extra)
        if 4 <= i + 2 * j + k <= T.degree_bound:
            term = b1 ** i * b2 ** j
            if k:
                term = term * T.var("c1") ** k
            p = p + rng.randint(-5, 5) * term
    return p


def test_property_gysin_oracle_g24():
    # trivial bundle: all roots vanish, so compare in the top fiber degree
    # only, where the symmetrized sum is root-independent
    rng = random.Random(103)
    g = g24()
    T = g.table
    b1, b2 = T.var("b1"), T.var("b2")
    done = 0
    while done < 20:
        p = T.zero()
        for _ in range(rng.randint(1, 4)):
            i, j = rng.choice([(4, 0), (2, 1), (0, 2)])
            p = p + rng.randint(-5, 5) * b1 ** i * b2 ** j
        if p.is_zero():
            continue
        img = g.gysin(p)
        for _ in range(10):
            roots = rng.sample(range(-20, 20), 4)
            got = subset_symmetrization(p, ["b1", "b2"], roots, {"t": 0})
            assert got == Fraction(img.constant())
        done += 1


def test_property_gysin_oracle_g2s():
    rng = random.Random(107)
    g = g2s(8)
    T = g.table
    done = 0
    while done < 20:
        p = _random_b_class(rng, T, extra=2)
        if p.is_zero() or not p.is_homogeneous():
            continue
        img = g.gysin(p)
        for _ in range(10):
            roots = rng.sample(range(-20, 20), 4)
            e = [1, 0, 0, 0, 0]
            for x in roots:
                for k in range(4, 0, -1):
                    e[k] += e[k - 1] * x
            values = {"c%d" % i: e[i] for i in range(1, 5)}
            got = subset_symmetrization(p, ["b1", "b2"], roots, values)
            assert got == Fraction(img.eval(values))
        done += 1


def test_property_projection_formula():
    rng = random.Random(109)
    g = g2s(9)
    T = g.table
    done = 0
    while done < 20:
        fiber = _random_b_class(rng, T)
        if fiber.is_zero() or not fiber.is_homogeneous():
            continue
        d = rng.randint(1, 3)
        mono = rng.choice(
            [
                m
                for m in T.monomials(d)
                if m[T.index["b1"]] == 0 and m[T.index["b2"]] == 0
            ]
        )
        base_cls = T.poly({mono: rng.randint(-3, 3)})
        if fiber.degree() + d > T.degree_bound:
            continue
        lhs = g.gysin(fiber * base_cls)
        rhs = g.gysin(fiber) * base_cls.convert(g.gysin(fiber).table)
        assert lhs == rhs
        done += 1


def test_property_integrals_and_certificates():
    g = g24()
    T = g.table
    assert g.gysin(T.var("b2") ** 2).constant() == 1
    assert g.gysin(T.var("b1") ** 4).constant() == 2
    # membership certificates re-multiply exactly
    rng = random.Random(113)
    t = VarTable([("u", 1), ("v", 1)], 6)
    ideal = GradedIdeal([t.var("u") + t.var("v"), 2 * t.var("v") ** 2])
    for _ in range(20):
        p = (t.var("u") + t.var("v")) * t.poly(
            {rng.choice(t.monomials(rng.randint(0, 4))): rng.randint(-4, 4)}
        )
        ok, cert = ideal.member(p)
        assert ok
        assert ideal.certificate_product(cert) == p


# 9. the command line: report + schema, and the shipped script
#    (exits 1, not 0, because the report contains the two failing checks;
#    the assertions on exit codes are kept as recorded and fail)


def test_cli_verify_and_example(capsys):
    code = cli.main(["verify-so4", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, REPORT_SCHEMA)
    with open(EXAMPLE) as fh:
        events, ok = run_script(fh.read())
    texts = {
        e["text"]: e["ok"] for e in events if e["kind"] == "check"
    }
    values = {e["name"]: e["value"] for e in events if e["kind"] == "let"}
    # the script records the reference pushforward table
    assert [values["p%d_rec" % k] for k in range(6)] == [
        "13*c1 - 2*f1", "0", "-2*f3", "c3 - f3",
        "c2^2 - 2*c2*f2 - 4*c4 + f2^2", "c2*f3 + c3*f2",
    ]
    # the DSL path reproduces the pushforward checks
    assert texts["nf(J, p2) == p2_rec"]
    assert texts["nf(J, p3) == p3_rec"]
    assert texts["nf(J, p4) == p4_rec"]
    assert texts["p0 == p0_rec"]
    assert texts["nf(J, p5) == p5_rec"]
    assert code == cli.EXIT_OK
    assert data["overall"] == "pass"
