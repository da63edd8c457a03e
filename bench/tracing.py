"""In-process span tracing of chowcalc's layers, from outside the program.

    python -m tracing MODULE ARG...

runs `MODULE.main([ARG...])` once with tracing on, with `src` and `bench` on
PYTHONPATH, and prints one JSON object: the exit code, the captured standard
output and the per-layer metrics.  `run.py` starts it for `--trace 1`.

`Tracer.install` wraps the public entry points of each chowcalc module where
they are looked up: methods on their classes, and module-level functions in
every chowcalc module that holds them by name.  Each call records a span
(name, start, end, parent) in memory; `layer_metrics` turns the spans into
the per-layer numbers.  A span's self time is its duration minus the part of
it that its child spans cover, so the self times of all spans under the root
add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
from collections import defaultdict

# Span record fields.
NAME, START, END, PARENT, VALUE, RAISED = range(6)

MODULES = ("polyring", "chern", "zgraded", "grasstower", "so4pipeline", "dsl", "cli")

# (defining module, attribute path, span name).  Module-level functions are
# wrapped in every chowcalc module that imported them by name.
ENTRY_POINTS = [
    ("polyring", "Poly.__mul__", "polyring.mul"),
    ("polyring", "Poly.__rmul__", "polyring.mul"),
    ("polyring", "Poly.__add__", "polyring.add"),
    ("polyring", "Poly.__radd__", "polyring.add"),
    ("polyring", "Poly.__sub__", "polyring.sub"),
    ("polyring", "Poly.__rsub__", "polyring.sub"),
    ("polyring", "Poly.__neg__", "polyring.neg"),
    ("polyring", "Poly.__pow__", "polyring.pow"),
    ("polyring", "Poly.__str__", "polyring.str"),
    ("polyring", "Poly.graded_part", "polyring.graded_part"),
    ("polyring", "Poly.graded_parts", "polyring.graded_part"),
    ("polyring", "Poly.substitute", "polyring.substitute"),
    ("polyring", "Poly.eval", "polyring.eval"),
    ("polyring", "series_invert", "polyring.series_invert"),
    ("polyring", "poly_det", "polyring.poly_det"),
    ("polyring", "symmetric_reduce", "polyring.symmetric_reduce"),
    ("chern", "dual", "chern.dual"),
    ("chern", "determinant", "chern.determinant"),
    ("chern", "line", "chern.line"),
    ("chern", "tensor_line", "chern.tensor_line"),
    ("chern", "exterior_square", "chern.exterior_square"),
    ("chern", "formal_quotient", "chern.quotient"),
    ("chern", "whitney_quotient", "chern.quotient"),
    ("chern", "porteous", "chern.porteous"),
    ("zgraded", "row_hnf", "zgraded.row_hnf"),
    ("zgraded", "smith", "zgraded.smith"),
    ("zgraded", "DegreeLattice.__init__", "zgraded.lattice.build"),
    ("zgraded", "DegreeLattice.reduce", "zgraded.reduce"),
    ("zgraded", "DegreeLattice.solve", "zgraded.solve"),
    ("zgraded", "GradedIdeal.lattice", "zgraded.lattice.request"),
    ("zgraded", "GradedIdeal.member", "zgraded.member"),
    ("zgraded", "GradedIdeal.normal_form", "zgraded.normal_form"),
    ("zgraded", "GradedIdeal.equal", "zgraded.equal"),
    ("zgraded", "GradedIdeal.quotient_structure", "zgraded.quotient_structure"),
    # GradedRing lives in grasstower, but its per-degree lattice cache is the
    # same lattice layer as GradedIdeal's.
    ("grasstower", "GradedRing.lattice", "zgraded.lattice.request"),
    ("grasstower", "GradedRing.normal_form", "grasstower.normal_form"),
    ("grasstower", "TowerLevel.__init__", "grasstower.level"),
    ("grasstower", "FiberProduct.__init__", "grasstower.level"),
    ("grasstower", "_Fiber.gysin", "grasstower.gysin"),
    ("grasstower", "_Fiber._solver", "grasstower.solver"),
    ("grasstower", "schur_from_chern", "grasstower.schur"),
    ("grasstower", "subset_symmetrization", "grasstower.subset_symmetrization"),
    ("so4pipeline", "So4Pipeline.build_geometry", "so4pipeline.build_geometry"),
    ("so4pipeline", "So4Pipeline.pushforwards", "so4pipeline.pushforwards"),
    ("so4pipeline", "So4Pipeline.run_all", "so4pipeline.run_all"),
    ("so4pipeline", "Report.to_json", "so4pipeline.report"),
    ("dsl", "parse", "dsl.parse"),
    ("dsl", "Session.run", "dsl.run"),
    ("cli", "main", "cli.main"),
]

# Per-layer metrics, in the order they are reported: (name, unit).
REPORT_CHECKS = (
    "ruling-symmetry",
    "monomial-closure",
    "ideal-identity",
    "gysin-oracle-agreement",
)
PER_LAYER = (
    [
        ("zgraded.row_hnf.calls", "count"),
        ("zgraded.row_hnf.self_s", "s"),
        ("zgraded.row_hnf.cells", "count"),
        ("zgraded.row_hnf.max_rows", "count"),
        ("zgraded.row_hnf.max_cols", "count"),
        ("zgraded.smith.calls", "count"),
        ("zgraded.smith.self_s", "s"),
        ("zgraded.smith.cells", "count"),
        ("zgraded.lattice.requests", "count"),
        ("zgraded.lattice.builds", "count"),
        ("zgraded.lattice.hit_ratio", "ratio"),
        ("zgraded.lattice.build.self_s", "s"),
        ("zgraded.member.self_s", "s"),
        ("zgraded.normal_form.self_s", "s"),
        ("zgraded.quotient_structure.self_s", "s"),
        ("grasstower.gysin.calls", "count"),
        ("grasstower.gysin.self_s", "s"),
        ("grasstower.gysin.failed", "count"),
        ("grasstower.solver.calls", "count"),
        ("grasstower.solver.builds", "count"),
        ("grasstower.solver.self_s", "s"),
        ("grasstower.normal_form.calls", "count"),
        ("grasstower.normal_form.self_s", "s"),
        ("polyring.mul.calls", "count"),
        ("polyring.mul.self_s", "s"),
        ("polyring.mul.terms_out", "count"),
        ("polyring.graded_part.self_s", "s"),
        ("polyring.substitute.calls", "count"),
        ("polyring.substitute.self_s", "s"),
        ("polyring.series_invert.self_s", "s"),
        ("chern.exterior_square.calls", "count"),
        ("chern.exterior_square.self_s", "s"),
        ("chern.porteous.self_s", "s"),
        ("chern.quotient.self_s", "s"),
        ("so4pipeline.build_geometry.self_s", "s"),
        ("so4pipeline.pushforwards.self_s", "s"),
    ]
    + [("so4pipeline.check.%s.ms" % name, "ms") for name in REPORT_CHECKS]
    + [
        ("dsl.parse.self_s", "s"),
        ("dsl.run.self_s", "s"),
        ("dsl.statements", "count"),
        ("cli.main.self_s", "s"),
        ("cli.output_bytes", "bytes"),
    ]
    + [("%s.self_s" % module, "s") for module in MODULES]
    + [
        ("bench.self_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
)
def _row_hnf_shape(args, result):
    rows = args[0]
    return (len(rows), len(rows[0]) if rows else 0)


def _solver_cached(args):
    fiber, d = args
    return d in fiber._solvers


# span name -> (before(args) or None, after(args, result) or None); the value
# either returns is kept on the span.
_VALUES = {
    "polyring.mul": (None, lambda args, result: len(result.terms)),
    "zgraded.row_hnf": (None, _row_hnf_shape),
    "zgraded.smith": (None, _row_hnf_shape),
    "grasstower.solver": (_solver_cached, None),
    "dsl.parse": (None, lambda args, result: len(result)),
}


class Tracer:
    """Records spans of wrapped calls; `install` patches, `restore` undoes."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = _VALUES.get(name, (None, None))

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, False]
            if before is not None:
                rec[VALUE] = before(args)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                rec[VALUE] = after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span of its own (the root of a run)."""
        return self.wrap(fn, name)(*args)

    def install(self):
        mods = {m: importlib.import_module("chowcalc." + m) for m in MODULES}
        for home, path, name in ENTRY_POINTS:
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mods[home], owner_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, self.wrap(original, name))
                continue
            original = getattr(mods[home], attr)
            wrapped = self.wrap(original, name)
            for mod in mods.values():
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        covered = 0.0
        run_start = run_end = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            else:
                run_end = max(run_end, ce)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, report_checks=(), output_bytes=0):
    """Per-layer metrics from one traced run.

    `spans[0]` is the root span around the whole operation; its own self time
    is the benchmark's share (`bench.self_s`).  `report_checks` are the
    `checks` of a verify-so4 JSON report, if the run produced one.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    raised = defaultdict(int)
    values = defaultdict(list)
    for rec, s in zip(spans, selfs):
        name = rec[NAME]
        calls[name] += 1
        self_s[name] += s
        raised[name] += rec[RAISED]
        if rec[VALUE] is not None:
            values[name].append(rec[VALUE])

    m = {}
    shapes = values["zgraded.row_hnf"]
    m["zgraded.row_hnf.calls"] = calls["zgraded.row_hnf"]
    m["zgraded.row_hnf.self_s"] = self_s["zgraded.row_hnf"]
    m["zgraded.row_hnf.cells"] = sum(r * c for r, c in shapes)
    m["zgraded.row_hnf.max_rows"] = max((r for r, _ in shapes), default=0)
    m["zgraded.row_hnf.max_cols"] = max((c for _, c in shapes), default=0)
    m["zgraded.smith.calls"] = calls["zgraded.smith"]
    m["zgraded.smith.self_s"] = self_s["zgraded.smith"]
    m["zgraded.smith.cells"] = sum(r * c for r, c in values["zgraded.smith"])
    requests = calls["zgraded.lattice.request"]
    builds = calls["zgraded.lattice.build"]
    m["zgraded.lattice.requests"] = requests
    m["zgraded.lattice.builds"] = builds
    m["zgraded.lattice.hit_ratio"] = (requests - builds) / requests if requests else 0.0
    m["zgraded.lattice.build.self_s"] = self_s["zgraded.lattice.build"]
    for op in ("member", "normal_form", "quotient_structure"):
        m["zgraded.%s.self_s" % op] = self_s["zgraded." + op]
    m["grasstower.gysin.calls"] = calls["grasstower.gysin"]
    m["grasstower.gysin.self_s"] = self_s["grasstower.gysin"]
    m["grasstower.gysin.failed"] = raised["grasstower.gysin"]
    m["grasstower.solver.calls"] = calls["grasstower.solver"]
    m["grasstower.solver.builds"] = values["grasstower.solver"].count(False)
    m["grasstower.solver.self_s"] = self_s["grasstower.solver"]
    m["grasstower.normal_form.calls"] = calls["grasstower.normal_form"]
    m["grasstower.normal_form.self_s"] = self_s["grasstower.normal_form"]
    m["polyring.mul.calls"] = calls["polyring.mul"]
    m["polyring.mul.self_s"] = self_s["polyring.mul"]
    m["polyring.mul.terms_out"] = sum(values["polyring.mul"])
    m["polyring.graded_part.self_s"] = self_s["polyring.graded_part"]
    m["polyring.substitute.calls"] = calls["polyring.substitute"]
    m["polyring.substitute.self_s"] = self_s["polyring.substitute"]
    m["polyring.series_invert.self_s"] = self_s["polyring.series_invert"]
    m["chern.exterior_square.calls"] = calls["chern.exterior_square"]
    m["chern.exterior_square.self_s"] = self_s["chern.exterior_square"]
    m["chern.porteous.self_s"] = self_s["chern.porteous"]
    m["chern.quotient.self_s"] = self_s["chern.quotient"]
    m["so4pipeline.build_geometry.self_s"] = self_s["so4pipeline.build_geometry"]
    m["so4pipeline.pushforwards.self_s"] = self_s["so4pipeline.pushforwards"]
    elapsed = {c["name"]: c["elapsed_ms"] for c in report_checks}
    for name in REPORT_CHECKS:
        m["so4pipeline.check.%s.ms" % name] = elapsed.get(name, 0.0)
    m["dsl.parse.self_s"] = self_s["dsl.parse"]
    m["dsl.run.self_s"] = self_s["dsl.run"]
    m["dsl.statements"] = sum(values["dsl.parse"])
    m["cli.main.self_s"] = self_s["cli.main"]
    m["cli.output_bytes"] = output_bytes
    for module in MODULES:
        m["%s.self_s" % module] = sum(
            s for name, s in self_s.items() if name.split(".", 1)[0] == module
        )
    m["bench.self_s"] = selfs[0] if spans else 0.0
    m["trace.wall_s"] = spans[0][END] - spans[0][START] if spans else 0.0
    m["trace.spans"] = len(spans)
    return m


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python -m tracing MODULE ARG...", file=sys.stderr)
        return 2
    program = importlib.import_module(argv[0])
    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = tracer.span("bench.op", program.main, argv[1:])
    finally:
        tracer.restore()
    output = out.getvalue()
    try:
        report = json.loads(output)
    except ValueError:
        report = None
    checks = report.get("checks", ()) if isinstance(report, dict) else ()
    metrics = layer_metrics(tracer.spans, checks, len(output.encode()))
    print(json.dumps({"rc": rc, "output": output, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
