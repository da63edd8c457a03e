"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and imports nothing from
chowcalc, so the program under test receives only the generated text and
never the generator's state.  The same seed gives byte-identical output.
"""

from __future__ import annotations

import json
import random

# -- chow-script ---------------------------------------------------------------

# Every choice that sets how much work a statement asks for (ranks, Chern
# degrees, exponents, the number of terms of a line class, the rank of a
# sub-bundle) comes from a fixed multiset that is only shuffled per seed.
# The seed draws the order, the names and the signs, so every seed asks for
# the same amount of polynomial work.
SCRIPT_RANKS = (2, 3, 4, 5, 2, 3, 4, 5)
# terms of the line class of each twist; twist 0 is the base of the powers
TWIST_TERMS = (1, 2, 3, 1, 2, 3)
PORTEOUS_PER_BUNDLE = 5
SCRIPT_DEGREE_BOUND = 14


def _linear_class(rng, prefixes, terms):
    """A nonzero degree-1 class: a combination of `terms` c1's with
    coefficients of magnitude 1, 2 and 3 and random signs."""
    out = ""
    for i, (p, mag) in enumerate(zip(rng.sample(prefixes, terms), (1, 2, 3))):
        neg = rng.random() < 0.5
        coef = "" if mag == 1 else "%d * " % mag
        if i == 0:
            out += ("-" if neg else "") + coef + p + "1"
        else:
            out += (" - " if neg else " + ") + coef + p + "1"
    return out


def _quotient_plan(r):
    """(sub-bundle rank, or None for a line; terms of the line class; Chern
    degree) per quotient."""
    subs = [max(2, r - 2), r - 1] if r > 2 else []
    plan = [(s, 0, r - s) for s in subs]
    plan += [(None, 1 + q % 3, 1 + q % (r - 1)) for q in range(5 - len(plan))]
    return plan


def _porteous_plan(r):
    """(rank of the target bundle, r0) per Porteous class: a determinant of
    at most 2 x 2 that stays inside the degree bound."""
    targets = sorted({f for f in SCRIPT_RANKS if f >= r - 1})
    plan = []
    for q in range(PORTEOUS_PER_BUNDLE):
        f = targets[q % len(targets)]
        r0s = [x for x in (r - 1, r - 2) if 0 <= x <= min(r, f)]
        plan.append((f, r0s[q % len(r0s)]))
    return plan


def _power_plan(r):
    """(kind, Chern degree, exponent) per power: kind "w" raises c(W, k),
    "mix" a mixed degree-2 class, "twist" c(T_0, k)."""
    wrank = r * (r - 1) // 2
    return [
        ("w", 1, 6), ("w", 1, 14), ("w", min(2, wrank), 7), ("w", min(3, wrank), 4),
        ("mix", None, 2), ("mix", None, 3), ("mix", None, 5),
        ("twist", 1, 8), ("twist", min(2, r), 4), ("twist", r, 2),
    ]


def chow_script(seed):
    """A `.chow` script of a few hundred statements, one statement a line.

    Every `check` is an identity known in advance, so a correct evaluator
    passes all of them.
    """
    rng = random.Random(seed)
    ranks = list(SCRIPT_RANKS)
    rng.shuffle(ranks)
    prefixes = ["v" + chr(ord("a") + i) for i in range(len(ranks))]
    lines = ["# chow-script workload, seed %d" % seed]
    for i, (p, r) in enumerate(zip(prefixes, ranks)):
        lines.append("let E%d = bundle(%s, %d);" % (i, p, r))
    # one Grassmannian level over a rank-4 bundle
    g = rng.choice([i for i, r in enumerate(ranks) if r == 4])
    lines.append("let G = grass(E%d, 2, gr);" % g)

    def other(rank, i):
        """A bundle of the given rank other than E<i>."""
        return rng.choice([j for j, rj in enumerate(ranks) if rj == rank and j != i])

    for i, r in enumerate(ranks):
        E = "E%d" % i
        # line classes of twists avoid E's own c1, so every twist has the
        # same shape
        others = prefixes[:i] + prefixes[i + 1:]
        lines.append("let W%d = wedge2(%s);" % (i, E))
        lines.append("check c(W%d, 1) == %d * c(%s, 1);" % (i, r - 1, E))
        lines.append("check dual(dual(%s)) == %s;" % (E, E))
        lines.append("check c(det(%s), 1) == c(%s, 1);" % (E, E))
        lines.append("let D%d = dual(%s);" % (i, E))
        degrees = [1 + t % r for t in range(len(TWIST_TERMS))]
        rng.shuffle(degrees)
        for t, (terms, k) in enumerate(zip(TWIST_TERMS, degrees)):
            ell = _linear_class(rng, others, terms)
            lines.append("let T%d_%d = tensor_line(%s, %s);" % (i, t, E, ell))
            lines.append("check tensor_line(T%d_%d, -(%s)) == %s;" % (i, t, ell, E))
            lines.append("let t%d_%d = c(T%d_%d, %d);" % (i, t, i, t, k))
        plan = _quotient_plan(r)
        rng.shuffle(plan)
        for q, (sub_rank, terms, k) in enumerate(plan):
            if sub_rank is None:
                sub = "line(%s)" % _linear_class(rng, others, terms)
            else:
                sub = "E%d" % other(sub_rank, i)
            lines.append("let Q%d_%d = quotient(%s, %s);" % (i, q, E, sub))
            lines.append("let q%d_%d = c(Q%d_%d, %d);" % (i, q, i, q, k))
        plan = _porteous_plan(r)
        rng.shuffle(plan)
        for q, (f, r0) in enumerate(plan):
            lines.append(
                "let P%d_%d = porteous(%s, E%d, %d);" % (i, q, E, other(f, i), r0)
            )
        plan = _power_plan(r)
        rng.shuffle(plan)
        for t, (kind, k, e) in enumerate(plan):
            if kind == "w":
                base = "c(W%d, %d)" % (i, k)
            elif kind == "mix":
                j = other(rng.choice((2, 3, 4, 5)), i)
                base = "(c(%s, 1) - c(E%d, 2) + c(D%d, 2))" % (E, j, i)
            else:
                base = "c(T%d_0, %d)" % (i, k)
            lines.append("let X%d_%d = %s ^ %d;" % (i, t, base, e))

    # the Grassmannian level: relations, normal forms, pushforwards, members
    lines.append("let R3 = rel(G, 3);")
    lines.append("let R4 = rel(G, 4);")
    lines.append("check nf(G, R3) == 0;")
    lines.append("check nf(G, R4) == 0;")
    lines.append("check nf(G, R3 * (%s)) == 0;" % _linear_class(rng, prefixes, 2))
    lines.append("check gysin(G, schur(G, 2, 2)) == 1;")
    lines.append("let Y1 = gysin(G, gr1 ^ 4);")
    lines.append("let Y2 = gysin(G, gr2 ^ 2 * %s1);" % rng.choice(prefixes))
    lines.append("let Y3 = gysin(G, schur(G, 2, 1) * gr1 * c(E%d, 1));" % g)
    lines.append("let J = ideal(R3, R4);")
    lines.append("check member(R3 * (%s), J) == 1;" % _linear_class(rng, prefixes, 2))
    lines.append("check member(R4, J) == 1;")
    return "\n".join(lines) + "\n"


# -- gysin-sweep ---------------------------------------------------------------
#
# Classes are pushed forward along G(2, S) in the fiber product, that is
# FiberProduct.gysin(1, .), which forgets b1 and b2.  TowerLevel.gysin on
# G(3, wedge^2 S) raises on most classes of its degrees (see gysin_sweep.py),
# so no class is drawn for it.
#
# The pushforward is linear over the f classes: it splits a class by its f
# monomials and solves each piece over the core variables c1..c4, b1, b2,
# building one lattice solver per core degree.  Each term's f-degree comes
# from a fixed tuple, so every seed solves at the same core degrees and asks
# for the same lattice work; the seed draws the monomials and coefficients.

SWEEP_MAP = "fiber-G2S"
SWEEP_RELATIVE_DIM = 4
SWEEP_DEGREE_BOUND = 13
CLASSES_PER_DEGREE = 4
# f-degree of each term of a class
TERM_F_DEGREES = (0, 0, 1, 2)
ORACLE_POINTS = 2

BASE_VARS = (("c1", 1), ("c2", 2), ("c3", 3), ("c4", 4))
F_VARS = (("f1", 1), ("f2", 2), ("f3", 3))
B_VARS = (("b1", 1), ("b2", 2))
CORE_VARS = BASE_VARS + B_VARS


def monomials(variables, d):
    """All monomials of weighted degree d, as {name: exponent} dicts."""
    out = []

    def rec(i, remaining, prefix):
        if i == len(variables):
            if remaining == 0:
                out.append({n: e for n, e in prefix if e})
            return
        name, w = variables[i]
        for e in range(remaining // w, -1, -1):
            rec(i + 1, remaining - e * w, prefix + [(name, e)])

    rec(0, d, [])
    return out


def _elementary(xs):
    es = [1] + [0] * len(xs)
    for x in xs:
        for t in range(len(xs), 0, -1):
            es[t] += es[t - 1] * x
    return es


def _oracle_point(rng):
    """Integer roots of S and values of the base and f classes at which
    subset symmetrization gives the pushforward along G(2, S)."""
    s_roots = rng.sample(range(-9, 10), 4)
    es = _elementary(s_roots)
    values = {"c%d" % i: es[i] for i in range(1, 5)}
    values.update({n: rng.randint(-9, 9) for n, _ in F_VARS})
    return {"roots": s_roots, "values": values}


def _sweep_class(rng, d):
    """A homogeneous degree-d class: one term per entry of TERM_F_DEGREES,
    an f monomial of that degree times a core monomial, all terms distinct."""
    terms = {}
    for f_deg in TERM_F_DEGREES:
        f_mono = rng.choice(monomials(F_VARS, f_deg))
        while True:
            mono = dict(rng.choice(monomials(CORE_VARS, d - f_deg)), **f_mono)
            key = tuple(sorted(mono.items()))
            if key not in terms:
                break
        terms[key] = [mono, rng.choice((-3, -2, -1, 1, 2, 3))]
    return list(terms.values())


def gysin_classes(seed):
    """Random homogeneous classes of every degree from the relative dimension
    up to the bound, each with its oracle points."""
    rng = random.Random(seed)
    classes = []
    for d in range(SWEEP_RELATIVE_DIM, SWEEP_DEGREE_BOUND + 1):
        for _ in range(CLASSES_PER_DEGREE):
            classes.append({
                "map": SWEEP_MAP,
                "degree": d,
                "terms": _sweep_class(rng, d),
                "points": [_oracle_point(rng) for _ in range(ORACLE_POINTS)],
            })
    return {"degree_bound": SWEEP_DEGREE_BOUND, "classes": classes}


def gysin_classes_text(seed):
    return json.dumps(gysin_classes(seed), sort_keys=True) + "\n"
