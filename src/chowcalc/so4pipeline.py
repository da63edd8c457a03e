"""End-to-end verification pipeline for the SO(4) Chow ring computation.

Evaluates the SO(4) script shipped beside this module (`so4.chow`, the same
file as `examples/so4.chow`) in one `dsl.Session`, only as far as a row
needs, and emits a Report of named pass/fail rows.  The script is parsed
once.  Its 19 checks alone decide 17 rows, each naming the checks it reads
by their printed text (`dsl.check_text`, the `text` that `eval` prints),
which is looked up in an index of the script's checks: the class displays,
the pushforwards and the tower relations mod J = (c1, f1), the sixth entry's
ideal consistency, the relations' membership in the final ideal `I`, the
ideal identity and the complementary ruling.  The other 6 rows (the Gysin
oracle, both lattice rows, the presentation, the quotient structure and the
monomial closure, which queries the script's `P`) are decided here, on the
script's own values, over the script's table.  No recorded value
(`let NAME_rec`, `I`) is written here.

`So4Pipeline.run_all` walks one check table of rows
(name, paper_ref, min_bound, fn) in report order.  A row whose minimum bound
exceeds the degree bound is skipped; any other runs its check method, which
returns (expected, computed, ok), and is timed.  A minimum bound is the
degree of the class its check reads.  The results several checks share (the
geometry, the six pushforwards, the final ideal, the presentation) are
built on first use and kept on the pipeline, so each cost lands in the
`elapsed_ms` of the first check that needs it.

Two of the recorded reference values are not reproduced by the computation
(the first pushforward and the sixth); the checks are kept honest and simply
fail, with supplementary checks documenting that the discrepancies lie inside
the generated ideal (so the final presentation is unaffected) and that the
pushforward normalization agrees with the classical symmetrization formula.
"""

import json
import os
import random
import time
from functools import cached_property, partial
from math import gcd

from . import DEFAULT_DEGREE_BOUND, dsl
from .grasstower import FiberProduct, subset_symmetrization
from .polyring import ChowError, Record, VarTable


class PipelineError(ChowError):
    pass


# The SO(4) script; its `let`s build every class the checks read.
SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "so4.chow")

MIN_DEGREE_BOUND = 3
GEOMETRY_BOUND = 4  # below this the polynomial checks are all skipped

# [G(2,E)] = [Y] * c2((K/F) (x) (wedge^2 B)^dual) has degree 3 + 2.
G2E_DEGREE = 5
# The pushed-forward classes [G(2,E)] * b1^i * b2^j, in report order, as
# (label, i, j); b1 has degree 1 and b2 degree 2.
PUSHFORWARDS = (
    ("1", 0, 0), ("b1", 1, 0), ("b1^2", 2, 0),
    ("b2", 0, 1), ("b1*b2", 1, 1), ("b1^2*b2", 2, 1),
)


# JSON schema for serialized reports.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["checks", "overall", "config"],
    "additionalProperties": False,
    "properties": {
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "name",
                    "paper_ref",
                    "expected",
                    "computed",
                    "status",
                    "degree_bound",
                    "elapsed_ms",
                ],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "paper_ref": {"type": "string"},
                    "expected": {"type": "string"},
                    "computed": {"type": "string"},
                    "status": {"enum": ["pass", "fail", "skipped"]},
                    "degree_bound": {"type": "integer"},
                    "elapsed_ms": {"type": "number"},
                },
            },
        },
        "overall": {"enum": ["pass", "fail"]},
        "config": {
            "type": "object",
            "required": ["degree_bound", "seed"],
            "properties": {
                "degree_bound": {"type": "integer"},
                "seed": {"type": "integer"},
            },
        },
    },
}


class Check(Record):
    """One row of a Report; `to_dict` gives it as a REPORT_SCHEMA item."""

    __slots__ = ("name", "paper_ref", "expected", "computed", "status",
                 "degree_bound", "elapsed_ms")

    def __init__(self, name, paper_ref, expected, computed, status,
                 degree_bound, elapsed_ms):
        self.name = name
        self.paper_ref = paper_ref
        self.expected = expected
        self.computed = computed
        self.status = status
        self.degree_bound = degree_bound
        self.elapsed_ms = elapsed_ms

    def to_dict(self):
        return {f: getattr(self, f) for f in self.__slots__}


class Report(Record):
    """The checks of one run, in report order, and the run's config."""

    __slots__ = ("checks", "config")

    def __init__(self, checks=None, config=None):
        self.checks = [] if checks is None else checks
        self.config = {} if config is None else config

    @property
    def overall(self):
        return "fail" if any(c.status == "fail" for c in self.checks) else "pass"

    def to_dict(self):
        return {
            "checks": [c.to_dict() for c in self.checks],
            "overall": self.overall,
            "config": dict(self.config),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self):
        lines = []
        width = max((len(c.name) for c in self.checks), default=0)
        for c in self.checks:
            tag = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[c.status]
            line = "%s  %-*s  computed: %s" % (tag, width, c.name, c.computed)
            if c.status == "fail":
                line += "  (expected: %s)" % c.expected
            lines.append(line)
        lines.append("overall: %s" % self.overall)
        return "\n".join(lines)


# the restrictions of c1 and of the residual normal class to the generator L
PULLBACK_C1, PULLBACK_N = 4, 2


def lemma4_check(divisor):
    """Run the degree-one generation argument on explicit lattice data.

    `divisor` holds the integer coefficients (u, v) of the divisor class
    u*c1 + v*f1; c1 restricts to PULLBACK_C1 times the generator L, and the
    residual normal class to PULLBACK_N times L.  Checks that the divisor
    class is primitive, solves for the forced restriction of f1
    (u*PULLBACK_C1 + v*t = 0), computes the image subgroup
    gcd(PULLBACK_C1, t)*Z, and confirms the normal class generates it.
    Returns a dict of the derived quantities.
    """
    u, v = divisor
    if gcd(u, v) != 1:
        raise PipelineError("divisor class (%d, %d) is not primitive" % (u, v))
    if v == 0 or (-u * PULLBACK_C1) % v:
        raise PipelineError("no integral solution for the f1 restriction")
    t = (-u * PULLBACK_C1) // v
    image = gcd(PULLBACK_C1, t)
    return {
        "divisor": (u, v),
        "f1_image": t,
        "image_generator": image,
        "normal_generates": PULLBACK_N == image,
    }


def theorem1_structure_oracle(d):
    """Independent enumeration of the degree-d quotient group.

    In Z[c1..c4, x]/(c1, 2c3, x*c3, x^2 - 4c4) a monomial basis is:
    free part c2^a c4^b x^e with e <= 1 (x^2 reduces to 4c4), and one Z/2 for
    each c2^a c4^b c3^g with g >= 1 (killed by 2c3, and x-multiples die by
    x*c3).  Counts both by direct enumeration.
    """
    free = 0
    for e in (0, 1):
        for b in range((d - 2 * e) // 4 + 1):
            rem = d - 2 * e - 4 * b
            if rem >= 0 and rem % 2 == 0:
                free += 1
    torsion = 0
    g = 1
    while 3 * g <= d:
        for b in range((d - 3 * g) // 4 + 1):
            rem = d - 3 * g - 4 * b
            if rem >= 0 and rem % 2 == 0:
                torsion += 1
        g += 1
    return free, torsion


class So4Pipeline:
    """Orchestrates the whole computation over a chosen degree bound."""

    BASE_VARS = [("c1", 1), ("c2", 2), ("c3", 3), ("c4", 4)]
    F_VARS = ["f1", "f2", "f3"]
    B_VARS = ["b1", "b2"]

    def __init__(self, degree_bound=DEFAULT_DEGREE_BOUND, seed=0):
        if degree_bound < MIN_DEGREE_BOUND:
            raise PipelineError(
                "degree bound must be at least %d" % MIN_DEGREE_BOUND
            )
        self.degree_bound = degree_bound
        self.seed = seed
        self._session = None

    # -- geometry and the script's classes ---------------------------------

    def build_geometry(self):
        """The script's `let`s evaluated through L: its levels
        G3 = G(3, wedge^2 S) and G2 = G(2, S), and their fiber product GG
        over the script's table, which only the bench and tests read."""
        if self._session is None:
            try:
                with open(SCRIPT, encoding="utf-8") as fh:
                    stmts = dsl.parse(fh.read())
            except OSError as exc:
                raise PipelineError("cannot read the SO(4) script: %s" % exc)
            self._session = dsl.Session(self.degree_bound)
            self._session.declare(stmts)
            self._lets = (s for s in stmts if isinstance(s, dsl.Let))
            # each check by its text, with the last `let` before it
            self._checks = {}
            last = None
            for s in stmts:
                if isinstance(s, dsl.Let):
                    last = s.name
                else:
                    self._checks.setdefault(dsl.check_text(s), (last, s))
            self.G3 = self.script_value("G3")
            self.GG = FiberProduct(self.G3, self.script_value("G2"))
            self.script_value("L")
        return self

    def script_value(self, name):
        """The value of the script's `let name`, over the script's table;
        the `let`s before it are evaluated first, in order, once."""
        self.build_geometry()
        env = self._session.env
        while name not in env:
            stmt = next(self._lets, None)
            if stmt is None:
                raise PipelineError("the SO(4) script has no let %s" % name)
            self._session.bind(stmt)
        return env[name]

    def script_check(self, text):
        """The transcript event of the script's check `text`, as `eval`
        prints it, run alone once the `let`s before it are evaluated."""
        self.build_geometry()
        if text not in self._checks:
            raise PipelineError("the SO(4) script has no check %s" % text)
        last, check = self._checks[text]
        if last is not None:
            self.script_value(last)
        return self._session.execute(check)

    # -- pushforwards ------------------------------------------------------

    def pushforwards(self):
        """The script's images p0..p5 of [G(2,E)] * b1^i * b2^j, for the
        PUSHFORWARDS rows, over the script's table.

        The first is returned exactly; the rest are reduced mod the script's
        J = (c1, f1).  Entries whose product degree exceeds the bound are
        returned as None.
        """
        J = self.script_value("J")
        out = []
        for k, (_, i, j) in enumerate(PUSHFORWARDS):
            if G2E_DEGREE + i + 2 * j > self.degree_bound:
                out.append(None)
                continue
            img = self.script_value("p%d" % k)
            out.append(J.normal_form(img) if k else img)
        return out

    # -- theorem assembly --------------------------------------------------

    def presentation_table(self):
        return VarTable(self.BASE_VARS + [("x", 2)], self.degree_bound)

    def assemble_theorem1(self):
        """Eliminate f1, f3, f2 from the final ideal and present the ring.

        Returns (relations, ideal): the relation polynomials over
        Z[c1..c4, x] and the presented GradedIdeal.
        """
        from .zgraded import GradedIdeal

        pres = self.presentation_table()
        x = pres.var("x")
        c2 = pres.var("c2")
        c3 = self.G3.table.var("c3")
        relations = []
        for g in self.script_value("I").generators:
            img = g.substitute({"f1": 0, "f3": c3}).substitute(
                {"f2": c2 - x}, table=pres
            )
            if img.is_zero():
                continue
            if img not in relations:
                relations.append(img)
        return relations, GradedIdeal(relations)

    # -- shared results, built by the first check that reads them ----------

    @cached_property
    def _pf(self):
        return self.pushforwards()

    @cached_property
    def _presentation(self):
        return self.assemble_theorem1()

    # -- checks: each returns (expected, computed, ok) ---------------------

    def _script_row(self, *texts, verdict=None):
        """A row decided by the script checks with these texts.  A value
        row (no `verdict`) shows its check's rhs as expected and its lhs as
        computed; a boolean row shows its `verdict` texts."""
        events = [self.script_check(t) for t in texts]
        ok = all(e["ok"] for e in events)
        if verdict is None:
            (e,) = events
            return e["rhs"], e["lhs"], ok
        expected, passed, failed = verdict
        return expected, passed if ok else failed, ok

    def _pushforward_row(self, text):
        # the six images are built once, in the first row that reads one
        self._pf
        return self._script_row(text)

    def _check_oracle_agreement(self, rng):
        """Pushforward normalization against the symmetrization formula,
        checked on the image that `pushforward-G2E` reports."""
        ge = self.script_value("GE")
        img = self._pf[0]
        for _ in range(10):
            roots = rng.sample(range(-25, 25), 4)
            e = [0] * 5
            e[0] = 1
            for xr in roots:
                for t_ in range(4, 0, -1):
                    e[t_] += e[t_ - 1] * xr
            values = {
                "c1": e[1], "c2": e[2], "c3": e[3], "c4": e[4],
                "f1": rng.randint(-9, 9),
                "f2": rng.randint(-9, 9),
                "f3": rng.randint(-9, 9),
            }
            lhs = img.eval(values)
            rhs = subset_symmetrization(ge, self.B_VARS, roots, values)
            if rhs != lhs:
                return ("agreement", "mismatch at %r" % (roots,), False)
        return ("agreement", "agreement at 10 specializations", True)

    def _check_lemma_reference(self):
        res = lemma4_check((13, -2))
        ok = (
            res["f1_image"] == 26
            and res["image_generator"] == 2
            and res["normal_generates"]
        )
        return (
            "f1 -> 26L; image 2Z; normal class generates",
            "f1 -> %dL; image %dZ; generates: %s"
            % (res["f1_image"], res["image_generator"],
               res["normal_generates"]),
            ok,
        )

    def _check_lemma_computed(self):
        div = self._pf[0]
        t = self.G3.table
        u = div.coeff(t.var("c1").leading()[0])
        v = div.coeff(t.var("f1").leading()[0])
        res = lemma4_check((u, v))
        ok = res["image_generator"] == 2 and res["normal_generates"]
        return (
            "image 2Z; normal class generates",
            "divisor (%d, %d); f1 -> %dL; image %dZ; generates: %s"
            % (u, v, res["f1_image"], res["image_generator"],
               res["normal_generates"]),
            ok,
        )

    def _check_presentation(self):
        relations, _ = self._presentation
        pres = self.presentation_table()
        x = pres.var("x")
        want = [
            pres.var("c1"),
            2 * pres.var("c3"),
            x * pres.var("c3"),
            x * x - 4 * pres.var("c4"),
        ]
        # relations above the bound truncate to zero, as in `relations`
        want = [p for p in want if not p.is_zero()]
        ok = sorted(map(str, relations)) == sorted(map(str, want))
        return (
            "{%s}" % ", ".join(map(str, want)),
            "{%s}" % ", ".join(map(str, relations)),
            ok,
        )

    def _check_quotient_structure(self):
        """Quotient structure per degree against the enumeration oracle."""
        from .zgraded import GroupStructure

        _, pres_ideal = self._presentation
        got, want = [], []
        for d in range(min(6, self.degree_bound) + 1):
            s = pres_ideal.quotient_structure(d)
            free, torsion = theorem1_structure_oracle(d)
            got.append("A^%d=%s" % (d, s))
            want.append("A^%d=%s" % (d, GroupStructure(d, free, (2,) * torsion)))
        return ("; ".join(want), "; ".join(got), got == want)

    def _check_monomial_closure(self, rng):
        """Pushforwards of unlisted monomials stay inside the script's P,
        the ideal of the six pushforwards and (c1, f1), each by a membership
        certificate that multiplies back to the image."""
        G2, t = self.script_value("G2"), self.G3.table
        P, ge = self.script_value("P"), self.script_value("GE")
        max_deg = min(6, self.degree_bound - G2E_DEGREE)
        listed = {(i, j) for _, i, j in PUSHFORWARDS}
        # the row's minimum bound is 9, so max_deg >= 4 and (3, 0) is drawn
        # from; a repeated draw is pushed forward and tested once
        candidates = [
            (i, j)
            for i in range(max_deg + 1)
            for j in range((max_deg - i) // 2 + 1)
            if 0 < i + 2 * j <= max_deg and (i, j) not in listed
        ]
        draws = [rng.choice(candidates) for _ in range(10)]
        for i, j in dict.fromkeys(draws):
            mono = t.var("b1") ** i * t.var("b2") ** j
            img = G2.gysin(ge * mono)
            if not dsl._member(img, P):
                return (
                    "all images in the pushforward ideal",
                    "b1^%d*b2^%d image escapes" % (i, j),
                    False,
                )
        return (
            "all images in the pushforward ideal",
            "10 random monomials verified",
            True,
        )

    # -- report assembly ---------------------------------------------------

    def _check_table(self, rng):
        """Rows (name, paper_ref, min_bound, fn) in report order.

        A row's minimum bound is the degree of the class its check reads:
        5 + i + 2j for [G(2,E)] * b1^i * b2^j, d for the relation t_d.
        """
        pf_bounds = [G2E_DEGREE + i + 2 * j for _, i, j in PUSHFORWARDS]
        all_pf = max(pf_bounds)
        script = self._script_row
        # a boolean row's texts: expected, computed on pass, computed on fail
        member = ("member with verifying certificate",
                  "member certificate verified", "not a member")
        rows = [
            ("class-Y", "reference: degeneracy class display",
             GEOMETRY_BOUND, partial(script, "Y == Y_rec")),
            ("class-G2E-factor", "reference: degeneracy class display",
             GEOMETRY_BOUND, partial(script, "Z == Z_rec")),
        ]
        for k, (label, _, _) in enumerate(PUSHFORWARDS):
            name = "pushforward-G2E" + ("" if k == 0 else ".%s-mod-J" % label)
            text = "%s == p%d_rec" % ("nf(J, p%d)" % k if k else "p0", k)
            rows.append((name, "reference: pushforward table", pf_bounds[k],
                         partial(self._pushforward_row, text)))
        rows += [
            ("pushforward-G2E.b1^2*b2-ideal-consistency",
             "derived: internal consistency", pf_bounds[5],
             partial(script, "member(nf(J, p5) - p5_rec, "
                     "ideal(c1, f1, p2_rec, p3_rec)) == 1",
                     verdict=("difference lies in the ideal of the earlier "
                              "entries", "member certificate verified",
                              "not a member"))),
            ("gysin-oracle-agreement", "derived: symmetrization formula",
             G2E_DEGREE, partial(self._check_oracle_agreement, rng)),
        ]
        for d in (4, 5, 6):
            rows.append(("tower-relation-t%d-mod-J" % d,
                         "reference: relation table", d,
                         partial(script, "nf(J, rel(G3, %d)) == t%d_rec" % (d, d))))
        for d in (4, 5, 6):
            rows.append(("relation-t%d-in-final-ideal" % d,
                         "derived: membership with certificate", d,
                         partial(script, "member(rel(G3, %d), I) == 1" % d,
                                 verdict=member)))
        rows += [
            ("ideal-identity", "derived: two-sided certified containment",
             all_pf, partial(script, "contains(P, I, 8) == 1",
                             "contains(I, P, 8) == 1",
                             verdict=("equal in all degrees <= 8", "equal",
                                      "differ"))),
            ("lattice-generation-reference", "reference: divisor lattice data",
             MIN_DEGREE_BOUND, self._check_lemma_reference),
            ("lattice-generation-computed", "derived: computed divisor class",
             pf_bounds[0], self._check_lemma_computed),
            ("presentation-relations", "reference: final presentation",
             GEOMETRY_BOUND, self._check_presentation),
            ("quotient-structure", "derived: monomial enumeration oracle",
             GEOMETRY_BOUND, self._check_quotient_structure),
            ("ruling-symmetry", "reference: complementary ruling",
             GEOMETRY_BOUND,
             partial(script, "member(c(Ft, 2) - (2 * c2 - f2), I) == 1",
                     "member(c2 - c(Ft, 2) + (c2 - f2), I) == 1",
                     verdict=("f~2 == 2c2 - f2 and c2 - f~2 == -(c2 - f2)",
                              "both congruences hold", "congruence failed"))),
            ("monomial-closure", "derived: ideal closure property",
             all_pf, partial(self._check_monomial_closure, rng)),
        ]
        return rows

    def run_all(self):
        report = Report(
            config={"degree_bound": self.degree_bound, "seed": self.seed}
        )
        rng = random.Random(self.seed)
        for name, ref, min_bound, fn in self._check_table(rng):
            if self.degree_bound < min_bound:
                expected, status, elapsed = "", "skipped", 0.0
                computed = "skipped: needs degree bound >= %d" % min_bound
            else:
                start = time.perf_counter()
                expected, computed, ok = fn()
                elapsed = (time.perf_counter() - start) * 1000.0
                status = "pass" if ok else "fail"
            report.checks.append(
                Check(name, ref, expected, computed, status,
                      self.degree_bound, elapsed)
            )
        return report


def run(degree_bound=DEFAULT_DEGREE_BOUND, seed=0):
    """Convenience wrapper: build the pipeline and produce its Report."""
    return So4Pipeline(degree_bound=degree_bound, seed=seed).run_all()
