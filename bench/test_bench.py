"""Self-tests of the benchmark: generators, span arithmetic, counting and
output format.  Run with `python -m pytest bench` from the repository root."""

from __future__ import annotations

import collections
import json
import os
import re
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gysin_sweep  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_generators_are_deterministic():
    assert inputs.chow_script(7) == inputs.chow_script(7)
    assert inputs.gysin_classes_text(7) == inputs.gysin_classes_text(7)
    assert inputs.chow_script(7) != inputs.chow_script(8)
    assert inputs.gysin_classes_text(7) != inputs.gysin_classes_text(8)


def _shapes(script):
    """The statements with names and signs erased: what sets their work."""
    return collections.Counter(
        re.sub(r"[A-Za-z]+\d*(_\d+)?", "x", line).replace("-", "").replace("+", "")
        for line in script.splitlines()
        if not line.startswith("#")
    )


def test_generated_script_work_is_seed_independent():
    shapes = _shapes(inputs.chow_script(0))
    assert sum(shapes.values()) > 300
    for seed in range(1, 5):
        assert _shapes(inputs.chow_script(seed)) == shapes


def test_gysin_classes_have_seed_independent_shapes():
    # every seed solves at the same core degrees: see inputs.TERM_F_DEGREES
    weights = dict(inputs.CORE_VARS + inputs.F_VARS)
    f_weights = dict(inputs.F_VARS)
    for seed in range(4):
        for cls in inputs.gysin_classes(seed)["classes"]:
            assert cls["map"] == "fiber-G2S"
            for mono, coeff in cls["terms"]:
                assert coeff != 0
                assert sum(weights[n] * e for n, e in mono.items()) == cls["degree"]
            f_degrees = [
                sum(f_weights.get(n, 0) * e for n, e in mono.items())
                for mono, _ in cls["terms"]
            ]
            assert sorted(f_degrees) == sorted(inputs.TERM_F_DEGREES)


def test_generated_sweep_has_no_failed_operation(monkeypatch):
    monkeypatch.setattr(inputs, "SWEEP_DEGREE_BOUND", 7)
    result = gysin_sweep.run_sweep(inputs.gysin_classes(5))
    assert result["attempted"] == 4 * inputs.CLASSES_PER_DEGREE
    assert (result["failed"], result["wrong"]) == (0, [])


def _span(name, start, end, parent):
    return [name, start, end, parent, None, False]


def test_self_times_subtract_covered_child_intervals():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("b.child", 5.5, 6.0, 3),
        _span("b.child", 7.0, 8.0, 3),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 2.5, 0.5, 1.0]
    # on a properly nested tree the self times add up to the root's duration
    assert sum(tracing.self_times(spans)) == 10.0


def test_self_times_count_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("x", 1.0, 5.0, 0),
        _span("y", 3.0, 7.0, 0),
        _span("z", 9.0, 12.0, 0),
    ]
    assert tracing.self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_layer_metrics_account_for_the_traced_wall_time():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from chowcalc import dsl
        from chowcalc.polyring import Poly

        assert hasattr(Poly.__mul__, "__wrapped__")
        tracer.span(
            "bench.op",
            dsl.run_script,
            "let E = bundle(e, 3);\nlet W = wedge2(E);\n"
            "let G = grass(E, 1, g);\ncheck gysin(G, g1 ^ 2) == 1;\n",
        )
    finally:
        tracer.restore()
    assert not hasattr(Poly.__mul__, "__wrapped__")
    m = tracing.layer_metrics(tracer.spans)
    assert set(m) == {n for n, _ in tracing.PER_LAYER} - {"trace.overhead_s"}
    total = m["bench.self_s"] + sum(m["%s.self_s" % mod] for mod in tracing.MODULES)
    assert abs(total - m["trace.wall_s"]) < 1e-9
    assert m["dsl.run.self_s"] > 0 and m["polyring.mul.calls"] > 0
    assert m["chern.exterior_square.calls"] == 1
    assert m["grasstower.gysin.calls"] == 1


def test_known_gysin_defect_is_counted_as_a_failed_operation():
    # c1^6*f1^3 pushes forward to 0 by the projection formula, but
    # TowerLevel.gysin on G(3, wedge^2 S) raises on it.
    spec = {
        "degree_bound": 10,
        "classes": [
            {
                "map": "tower-G3",
                "degree": 9,
                "terms": [[{"c1": 6, "f1": 3}, 1]],
                "points": [],
            }
        ],
    }
    result = gysin_sweep.run_sweep(spec)
    assert result["attempted"] == 1
    assert result["failed"] == 1
    assert list(result["errors"]) == [
        "TowerError: class is not in the Schur-basis module span"
    ]
    attempted, failed, wrong = run.check_gysin(
        {"classes": 1}, 0, json.dumps(result), ""
    )
    assert (attempted, failed, wrong) == (1, 1, [])


def test_wrong_gysin_image_is_a_wrong_answer():
    result = {"attempted": 1, "failed": 0, "errors": {}, "wrong": [{"map": "x"}]}
    _, _, wrong = run.check_gysin({"classes": 1}, 0, json.dumps(result), "")
    assert wrong


def test_script_evaluator_stopping_early_is_a_wrong_answer():
    ctx = {"statements": 404, "checks": 100}
    for rc, stderr in (
        (2, "error: gysin: class is not in the span at line 401, col 5\n"),
        (1, "Traceback (most recent call last):\n  ...\nKeyError: 'gr1'\n"),
    ):
        attempted, failed, wrong = run.check_script(ctx, rc, "", stderr)
        assert (attempted, failed) == (404, 1)
        assert wrong and stderr.strip().splitlines()[-1] in wrong[0]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_output_records_environment_and_every_metric(monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_RUNS", 1)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    args = run.parse_args(
        ["--workload", "chow-script", "--seed", "1", "--seconds", "1", "--trace", "0"]
    )
    assert run.bench(args, ROOT) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    env = json.loads(next(l for l in lines if l.startswith("# env "))[len("# env "):])
    assert env["python"] == "%d.%d.%d" % sys.version_info[:3]
    assert env["nproc"] >= 1
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path, capsys):
    args = run.parse_args(
        ["--workload", "verify-b14", "--seed", "1", "--seconds", "1"]
    )
    try:
        run.bench(args, str(tmp_path))
    except run.BenchError as exc:
        assert "no chowcalc sources" in str(exc)
    else:
        raise AssertionError("ran without sources")
    assert "correct" not in capsys.readouterr().out
