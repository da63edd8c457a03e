"""Tests for the command line interface: subcommands, formats, exit codes."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chowcalc import __version__, cli, dsl, so4pipeline
from chowcalc.chern import BundleError
from chowcalc.dsl import DslError
from chowcalc.grasstower import TowerError
from chowcalc.polyring import PolyError
from chowcalc.so4pipeline import REPORT_SCHEMA, PipelineError, So4Pipeline
from chowcalc.zgraded import GradedError

EXAMPLE = os.path.join(os.path.dirname(__file__), "..", "examples", "so4.chow")
BUNDLES = os.path.join(os.path.dirname(__file__), "..", "examples", "bundles.chow")
O3 = os.path.join(os.path.dirname(__file__), "..", "examples", "o3.chow")
O4 = os.path.join(os.path.dirname(__file__), "..", "examples", "o4.chow")
O5 = os.path.join(os.path.dirname(__file__), "..", "examples", "o5.chow")
O6 = os.path.join(os.path.dirname(__file__), "..", "examples", "o6.chow")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(argv):
    return cli.main(argv)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_no_command_is_usage_error(capsys):
    assert run_cli([]) == cli.EXIT_USAGE


def test_verify_default_fails(capsys):
    # two recorded reference values are not reproduced, so the report fails
    code = run_cli(["verify-so4"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_CHECK_FAILED
    assert "overall: fail" in out
    assert "FAIL" in out and "PASS" in out


def test_verify_low_bound_passes(capsys):
    code = run_cli(["verify-so4", "--degree-bound", "3"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "overall: pass" in out
    assert "SKIP" in out


def test_verify_json_schema(capsys):
    code = run_cli(["verify-so4", "--degree-bound", "3", "--format", "json"])
    assert code == cli.EXIT_OK
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, REPORT_SCHEMA)
    assert data["overall"] == "pass"
    assert data["config"]["degree_bound"] == 3


def test_text_and_json_verdicts_agree(capsys):
    run_cli(["verify-so4", "--degree-bound", "5", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    run_cli(["verify-so4", "--degree-bound", "5"])
    text = capsys.readouterr().out
    tags = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}
    for line, c in zip(text.splitlines(), data["checks"]):
        assert line.startswith(tags[c["status"]])
        assert c["name"] in line


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = run_cli(
        [
            "verify-so4",
            "--degree-bound",
            "3",
            "--format",
            "json",
            "--out",
            str(target),
        ]
    )
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out == ""
    data = json.loads(target.read_text())
    jsonschema.validate(data, REPORT_SCHEMA)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-so4", "--degree-bound", "3"],
        ["eval", EXAMPLE, "--degree-bound", "6"],
    ],
    ids=["verify-so4", "eval"],
)
def test_unwritable_out_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    # refused before any work: the pipeline and the script runner never run
    def never(*args, **kwargs):
        raise AssertionError("ran the command before checking --out")

    monkeypatch.setattr(So4Pipeline, "run_all", never)
    monkeypatch.setattr(dsl, "run_script", never)
    target = tmp_path / "no-such-dir" / "report.txt"
    assert run_cli(argv + ["--out", str(target)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == (
        "error: cannot write %s: No such file or directory\n" % target
    )
    assert captured.out == ""
    assert not target.exists()


def test_env_var_default(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_DEGREE_BOUND, "3")
    assert run_cli(["verify-so4"]) == cli.EXIT_OK
    capsys.readouterr()
    # an explicit flag wins over the environment
    monkeypatch.setenv(cli.ENV_DEGREE_BOUND, "10")
    assert run_cli(["verify-so4", "--degree-bound", "3"]) == cli.EXIT_OK
    capsys.readouterr()


def test_env_var_invalid(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_DEGREE_BOUND, "three")
    assert run_cli(["verify-so4"]) == cli.EXIT_USAGE
    assert "CHOW_DEGREE_BOUND" in capsys.readouterr().err


def test_bad_degree_bound_is_usage_error(capsys):
    assert run_cli(["verify-so4", "--degree-bound", "1"]) == cli.EXIT_USAGE
    assert "degree bound" in capsys.readouterr().err


def test_eval_example_script(monkeypatch, capsys):
    # the verdicts below are those of the default bound
    monkeypatch.delenv(cli.ENV_DEGREE_BOUND, raising=False)
    code = run_cli(["eval", EXAMPLE])
    out = capsys.readouterr().out
    assert code == cli.EXIT_CHECK_FAILED
    assert "overall: fail" in out
    assert "3*c1 - 2*f1" in out  # the computed divisor class is shown
    assert out.count("FAIL") == 2


@pytest.mark.parametrize("bound", [10, 14])
def test_eval_example_output_matches_the_golden_copy(capsys, bound):
    """The printed classes and verdicts, byte for byte.  The golden copies
    are the output of `chowcalc eval examples/so4.chow --degree-bound N`."""
    code = run_cli(["eval", EXAMPLE, "--degree-bound", str(bound)])
    assert code == cli.EXIT_CHECK_FAILED
    with open(os.path.join(GOLDEN, "so4-eval-b%d.txt" % bound), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()


def test_eval_json_of_a_wide_table_matches_the_golden_copy(capsys):
    """`eval --format json` of a hand-written script over 27 variables, byte
    for byte: every Chern-class builtin, powers, normal forms and ideal
    membership, printed over a table with many zero exponent fields."""
    code = run_cli([
        "eval", os.path.join(GOLDEN, "wide.chow"),
        "--degree-bound", "14", "--format", "json",
    ])
    assert code == cli.EXIT_OK
    with open(os.path.join(GOLDEN, "wide-eval-b14.json"), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()


def _bench_inputs():
    """`bench/inputs.py`, loaded by path: `bench` is no package."""
    root = os.path.join(os.path.dirname(__file__), "..")
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", os.path.join(root, "bench", "inputs.py")
    )
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


@pytest.mark.parametrize("seed", [1, 3])
def test_eval_json_of_the_chow_script_workload_matches_the_golden_digest(
    tmp_path, capsys, seed
):
    """`eval --format json` of the chow-script bench workload's script at
    bound 14, byte for byte: the golden file holds the length and SHA-256
    of that output (some 92 kB a seed), with every let's class printed."""
    inputs = _bench_inputs()
    script = tmp_path / "script.chow"
    script.write_text(inputs.chow_script(seed))
    code = run_cli([
        "eval", str(script),
        "--degree-bound", str(inputs.SCRIPT_DEGREE_BOUND), "--format", "json",
    ])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out.encode()
    with open(os.path.join(GOLDEN, "chow-script-eval-b14.json")) as fh:
        golden = json.load(fh)[str(seed)]
    assert inputs.SCRIPT_DEGREE_BOUND == 14
    assert (len(out), hashlib.sha256(out).hexdigest()) == (
        golden["bytes"], golden["sha256"],
    )


@pytest.mark.parametrize("bound", range(3, 15))
def test_eval_bundle_example_passes_at_every_bound_that_fits_it(capsys, bound):
    """examples/bundles.chow checks wedge2, sym2, tensor, porteous and twists
    against identities known in advance; its rank-3 bundle needs bound 3."""
    code = run_cli(["eval", BUNDLES, "--degree-bound", str(bound)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert out.count("PASS") == 13 and "FAIL" not in out
    assert out.endswith("overall: pass\n")


@pytest.mark.parametrize("bound", [12, 13, 14])
def test_eval_o3_example_passes_from_its_stated_bound(capsys, bound):
    """examples/o3.chow finds (2c1, 2c3) as the image of the degenerate
    quadratic forms on C^3; its header states the session bound 12."""
    code = run_cli(["eval", O3, "--degree-bound", str(bound)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert out.count("PASS") == 2 and "FAIL" not in out
    assert out.endswith("overall: pass\n")


def test_eval_o3_example_refuses_a_larger_ideal(tmp_path, capsys):
    # with 2c2 added, (2c1, 2c2, 2c3) still holds every generator of the
    # image, but the image no longer holds the ideal
    with open(O3, encoding="utf-8") as fh:
        text = fh.read()
    ideal = "let I = ideal(2 * c1, 2 * c3);"
    assert text.count(ideal) == 1
    script = tmp_path / "o3-control.chow"
    script.write_text(
        text.replace(ideal, "let I = ideal(2 * c1, 2 * c2, 2 * c3);"),
        encoding="utf-8",
    )
    code = run_cli(["eval", str(script), "--degree-bound", "12"])
    verdicts = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith(("PASS", "FAIL"))
    ]
    assert code == cli.EXIT_CHECK_FAILED
    assert verdicts == [
        "FAIL  check contains(P, I, 10) == 1   [false vs 1]",
        "PASS  check contains(I, P, 10) == 1",
    ]


def test_eval_o3_example_below_its_check_degree_is_an_error(capsys):
    """At bound 5 the pushforwards of P lost their terms above 5, so
    `contains(P, I, 10)` is refused instead of read off truncated classes."""
    with open(O3, encoding="utf-8") as fh:
        line = 1 + fh.read().splitlines().index("check contains(P, I, 10) == 1;")
    code = run_cli(["eval", O3, "--degree-bound", "5"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.err == (
        "error: line %d, col 1: degree 10 above the bound\n" % line
    )


# (script, the degree D its checks read, its odd classes, its stated bound)
OK_SCRIPTS = {
    "o4": (O4, 12, "2 * c1, 2 * c3", 16),
    "o5": (O5, 10, "2 * c1, 2 * c3, 2 * c5", 16),
    "o6": (O6, 10, "2 * c1, 2 * c3, 2 * c5", 19),
}


@pytest.mark.parametrize("stated", [0, 2], ids=["stated", "stated+2"])
@pytest.mark.parametrize("name", sorted(OK_SCRIPTS))
def test_eval_ok_example_passes_from_its_stated_bound(capsys, name, stated):
    """examples/o4.chow, o5.chow and o6.chow find (2c_odd) as the image of
    the degenerate quadratic forms on C^4, C^5 and C^6; each header states
    the session bound, D + floor(k^2/4)."""
    path, d, odd, bound = OK_SCRIPTS[name]
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert "The session bound is D + floor(k^2/4) = %d + " % d in text
    assert "= %d, for k = %s" % (bound, name[1]) in text
    code = run_cli(["eval", path, "--degree-bound", str(bound + stated)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert out.count("PASS") == 2 and "FAIL" not in out
    assert out.endswith("overall: pass\n")


@pytest.mark.parametrize("name", sorted(OK_SCRIPTS))
def test_eval_ok_example_refuses_a_larger_ideal(tmp_path, capsys, name):
    # with 2c2 added, the larger ideal still holds every generator of the
    # image, but the image no longer holds the ideal
    path, d, odd, bound = OK_SCRIPTS[name]
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    ideal = "let I = ideal(%s);" % odd
    assert text.count(ideal) == 1
    script = tmp_path / ("%s-control.chow" % name)
    script.write_text(
        text.replace(ideal, "let I = ideal(2 * c2, %s);" % odd), encoding="utf-8"
    )
    code = run_cli(["eval", str(script), "--degree-bound", str(bound)])
    verdicts = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith(("PASS", "FAIL"))
    ]
    assert code == cli.EXIT_CHECK_FAILED
    assert verdicts == [
        "FAIL  check contains(P, I, %d) == 1   [false vs 1]" % d,
        "PASS  check contains(I, P, %d) == 1" % d,
    ]


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_eval_example_below_the_rank_of_S_names_the_bound_it_needs(
    capsys, bound
):
    """`bundle(c, 4)` has a nonzero c_(bound + 1) above the bound: the
    error names that class and the bound it needs, on the line of S."""
    with open(EXAMPLE, encoding="utf-8") as fh:
        line = 1 + fh.read().splitlines().index("let S = bundle(c, 4);")
    code = run_cli(["eval", EXAMPLE, "--degree-bound", str(bound)])
    assert code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == (
        "error: line %d, col 1: a nonzero c_%d needs a degree bound >= %d\n"
        % (line, bound + 1, bound + 1)
    )
    assert captured.out == ""


def test_eval_json(monkeypatch, capsys):
    monkeypatch.delenv(cli.ENV_DEGREE_BOUND, raising=False)
    code = run_cli(["eval", EXAMPLE, "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_CHECK_FAILED
    assert data["overall"] == "fail"
    kinds = {e["kind"] for e in data["events"]}
    assert kinds == {"let", "check"}
    failing = [e for e in data["events"] if e["kind"] == "check" and not e["ok"]]
    assert len(failing) == 2


def test_eval_passing_script(tmp_path, capsys):
    script = tmp_path / "ok.chow"
    script.write_text("let S = bundle(c, 2);\ncheck c1 * c1 == c1 ^ 2;\n")
    assert run_cli(["eval", str(script)]) == cli.EXIT_OK
    assert "overall: pass" in capsys.readouterr().out


def test_eval_parse_error(tmp_path, capsys):
    script = tmp_path / "bad.chow"
    script.write_text("let = ;\n")
    assert run_cli(["eval", str(script)]) == cli.EXIT_USAGE
    assert "line 1" in capsys.readouterr().err


def test_eval_missing_file(capsys):
    assert run_cli(["eval", "no/such/file.chow"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err


def test_eval_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    script = tmp_path / "latin1.chow"
    script.write_bytes(b"let a = 1;\xff\n")
    assert run_cli(["eval", str(script)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "can't decode byte 0xff" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_eval_evaluation_error(tmp_path, capsys):
    script = tmp_path / "boom.chow"
    script.write_text("check frobnicate(1) == 1;\n")
    assert run_cli(["eval", str(script)]) == cli.EXIT_USAGE


def test_eval_tower_error_names_its_line(tmp_path, capsys):
    script = tmp_path / "grass.chow"
    script.write_text("let E = bundle(e, 3);\nlet G = grass(E, 3, g);\n")
    assert run_cli(["eval", str(script)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "error: line 2, col 1: need 1 <= k < rank(E)\n"
    assert captured.out == ""


def eval_error(tmp_path, capsys, text):
    """Exit code and stderr of `eval` on a script that must fail."""
    script = tmp_path / "bad.chow"
    script.write_text(text, encoding="utf-8")
    code = run_cli(["eval", str(script)])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


@pytest.mark.parametrize(
    "text, kind",
    [
        ("let S = bundle(c, 2);\nlet x = S * S;\n", "a bundle"),
        (
            "let S = bundle(c, 2);\nlet x = structure(ideal(c1), 2)"
            " * structure(ideal(c1), 2);\n",
            "GroupStructure",
        ),
    ],
    ids=["bundle", "structure"],
)
def test_eval_operand_of_the_wrong_kind_is_usage_error(tmp_path, capsys, text, kind):
    code, err = eval_error(tmp_path, capsys, text)
    assert code == cli.EXIT_USAGE
    assert err == "error: line 2, col 1: expected a class, found %s\n" % kind


BUNDLE = "let S = bundle(c, 2);\n"
LEVEL = "let S = bundle(c, 4);\nlet G = grass(S, 2, b);\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("let a = 1;\ncheck zz == 0;\n", "line 2, col 1: unknown name 'zz'"),
        (BUNDLE + "let x = frob(1);\n", "line 2, col 1: unknown function 'frob'"),
        (BUNDLE + "let x = dual(S, S);\n", "line 2, col 1: dual takes 1 argument(s)"),
        (
            BUNDLE + "let x = dual(c1);\n",
            "line 2, col 1: expected a bundle, found a class",
        ),
        (
            BUNDLE + "let x = member(c1, c1);\n",
            "line 2, col 1: expected an ideal, found a class",
        ),
        (
            BUNDLE + "let x = gysin(S, c1);\n",
            "line 2, col 1: expected a tower level, found a bundle",
        ),
        (
            BUNDLE + "let x = nf(S, c1);\n",
            "line 2, col 1: expected a tower level or an ideal, found a bundle",
        ),
        (
            LEVEL + "let x = rel(G, 7);\n",
            "line 3, col 1: no relation of degree 7 on this level",
        ),
        (
            LEVEL + "let x = rel(G, 12);\n",
            "line 3, col 1: a relation of degree 12 needs a degree bound >= 12",
        ),
        (
            "let S = bundle(c, 11);\n",
            "line 1, col 1: a nonzero c_11 needs a degree bound >= 11",
        ),
        (
            BUNDLE + "let x = c(S, c1);\n",
            "line 2, col 1: expected an integer, found a class",
        ),
        (
            LEVEL + "let x = schur();\n",
            "line 3, col 1: schur takes at least 1 argument(s)",
        ),
        (
            BUNDLE + "let T = bundle(c, 3);\n",
            "line 2, col 1: variable 'c1' declared twice",
        ),
        ("let a = \u00b2;\n", "line 1, col 9: unexpected character '\u00b2'"),
        ("let a = 2^20000;\n", "line 1, col 1: coefficient too large to print"),
        (
            "let a = %s;\n" % ("9" * 5000),
            "line 1, col 9: integer literal too long",
        ),
        (
            BUNDLE + "let n = nf(grass(S, 1, g), c1);\n",
            "line 2, col 1: grass declares variables, so it must be the whole"
            " right-hand side of a let",
        ),
        (
            BUNDLE + "let x = c(bundle(c, 2), 1);\n",
            "line 2, col 1: bundle declares variables, so it must be the whole"
            " right-hand side of a let",
        ),
        (
            BUNDLE + "check bundle(c, 2) == 1;\n",
            "line 2, col 1: bundle declares variables, so it must be the whole"
            " right-hand side of a let",
        ),
    ],
    ids=[
        "unknown-name", "unknown-function", "arity", "kind-bundle",
        "kind-ideal", "kind-tower", "kind-nf", "rel", "rel-above-bound",
        "bundle-above-bound", "kind-int",
        "variadic-arity", "pass-1", "non-decimal-digit", "huge-value",
        "huge-literal", "nested-grass", "nested-bundle", "check-bundle",
    ],
)
def test_eval_error_names_its_line(tmp_path, capsys, text, message):
    code, err = eval_error(tmp_path, capsys, text)
    assert code == cli.EXIT_USAGE
    assert err == "error: %s\n" % message


@pytest.mark.parametrize(
    "expr, message",
    [
        ("(" * 3000 + "1" + ")" * 3000, "expression nested too deeply"),
    ],
    ids=["parentheses"],
)
def test_eval_deep_nesting_is_usage_error(tmp_path, capsys, expr, message):
    # one error line with a position; the column of a parse that runs out
    # of stack depends on the interpreter's recursion limit
    code, err = eval_error(tmp_path, capsys, "let x = %s;\n" % expr)
    assert code == cli.EXIT_USAGE
    assert re.fullmatch(r"error: line 1, col \d+: %s[^\n]*\n" % message, err)


@pytest.mark.parametrize("n", [1200, 100000])
def test_eval_long_flat_sum_evaluates(tmp_path, capsys, n):
    # a chain of n operators costs no stack to evaluate or to print
    ones = " + ".join(["1"] * n)
    c1s = " - ".join(["c1"] * n)
    script = tmp_path / "sum.chow"
    script.write_text(
        "let S = bundle(c, 1);\nlet x = %s;\ncheck %s == %d * c1;\n"
        % (ones, c1s, 2 - n),
        encoding="utf-8",
    )
    code = run_cli(["eval", str(script)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert out.splitlines()[1:] == [
        "x = %d" % n, "PASS  check %s == %d * c1" % (c1s, 2 - n), "overall: pass",
    ]


@pytest.mark.parametrize(
    "error",
    [TowerError, PolyError, GradedError, BundleError, PipelineError, DslError],
)
def test_library_error_is_usage_error(monkeypatch, capsys, error):
    def run_all(self):
        raise error("no pushforward at this bound")

    monkeypatch.setattr(So4Pipeline, "run_all", run_all)
    assert run_cli(["verify-so4", "--degree-bound", "3"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "error: no pushforward at this bound\n"
    assert captured.out == ""


def test_missing_so4_script_is_usage_error(monkeypatch, capsys, tmp_path):
    # an installed package without its SO(4) script fails with one line
    monkeypatch.setattr(so4pipeline, "SCRIPT", str(tmp_path / "so4.chow"))
    assert run_cli(["verify-so4", "--degree-bound", "4"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read the SO(4) script: ")
    assert err.count("\n") == 1


def test_importing_the_cli_leaves_the_dsl_unloaded():
    # each command imports what it runs when it runs, not on import
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = "import sys, chowcalc.cli; print('chowcalc.dsl' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


LAZY_NAMESPACE = """
import importlib, sys
before = set(sys.modules)
import chowcalc
after_package = set(sys.modules) - before
import chowcalc.cli
after_cli = set(sys.modules) - before
import json
homes = {}
for name in set(chowcalc.__all__) - {"__version__"}:
    value = getattr(chowcalc, name)
    module = importlib.import_module("chowcalc." + chowcalc._HOMES[name])
    homes[name] = value is getattr(module, name) and value.__module__ == module.__name__
try:
    chowcalc.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
from chowcalc import polyring
print(json.dumps({
    "package": sorted(m for m in after_package if m.startswith("chowcalc.")),
    "cli": sorted(m for m in after_cli if m.startswith("chowcalc.")),
    "cli_stdlib": sorted({"argparse", "json"} & after_cli),
    "exported": sorted(set(chowcalc.__all__) - {"__version__"}),
    "table": sorted(chowcalc._HOMES),
    "homes": homes,
    "unknown": unknown,
    "submodule": polyring.__name__,
}))
"""


def test_import_loads_no_layer_and_each_name_its_home_on_first_use():
    # `import chowcalc` loads no submodule, the CLI only its own, and
    # neither loads argparse or json; each exported name is the object its
    # home module defines, loaded on first use
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", LAZY_NAMESPACE],
        env=env, capture_output=True, text=True, check=True,
    )
    got = json.loads(out.stdout)
    assert got["package"] == []
    assert got["cli"] == ["chowcalc.cli"]
    assert got["cli_stdlib"] == []
    assert got["table"] == got["exported"]
    assert got["homes"] == dict.fromkeys(got["exported"], True)
    assert got["unknown"] == "module 'chowcalc' has no attribute 'no_such_name'"
    assert got["submodule"] == "chowcalc.polyring"


NO_COMMAND = """
import contextlib, io, json, sys
import chowcalc.cli
codes = []
for argv in (["--version"], [], ["eval"]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(chowcalc.cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps({
    "codes": codes,
    "layers": sorted(m for m in sys.modules if m.startswith("chowcalc.")),
}))
"""


def test_version_help_and_a_usage_error_load_no_layer():
    # `--version`, a missing command and a usage error end before any
    # command runs, so no chowcalc module but the CLI's own loads
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", NO_COMMAND],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == {
        "codes": [0, cli.EXIT_USAGE, cli.EXIT_USAGE],
        "layers": ["chowcalc.cli"],
    }


# any code point, quotes, backslashes, control characters and lone
# surrogates included
ANY_TEXT = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028'),
        st.characters(categories=["Cs"]),
    )
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.dictionaries(
            ANY_TEXT, st.one_of(ANY_TEXT, st.booleans()), min_size=1, max_size=5
        ),
        max_size=5,
    ),
    ANY_TEXT,
)
@example([], "pass")
@example([{"kind": "check", "text": 'a\\"b\n\x00', "ok": False, "lhs": "\ud800é"}], "fail")
def test_transcript_json_is_json_dumps_with_indent_2(events, overall):
    expected = json.dumps({"events": events, "overall": overall}, indent=2)
    assert cli._transcript_json(events, overall) == expected


COLD_START = """
import json, sys
before = set(sys.modules)
import chowcalc.cli
added = set(sys.modules) - before
code = chowcalc.cli.main(["eval", sys.argv[1], "--out", sys.argv[2]])
after_eval = "chowcalc.so4pipeline" in sys.modules
from chowcalc import Report, So4Pipeline, run
print(json.dumps({
    "added": sorted({"dataclasses", "inspect", "chowcalc.so4pipeline"} & added),
    "eval": [code, after_eval],
    "lazy": [Report.__name__, So4Pipeline.__name__, run.__module__],
}))
"""


def test_cold_start_loads_only_what_the_command_runs(tmp_path):
    script = tmp_path / "small.chow"
    script.write_text("let S = bundle(c, 2);\ncheck c1 * c2 == c2 * c1;\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", COLD_START, str(script), str(tmp_path / "out.txt")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == {
        "added": [],
        "eval": [cli.EXIT_OK, False],
        "lazy": ["Report", "So4Pipeline", "chowcalc.so4pipeline"],
    }
    assert (tmp_path / "out.txt").read_text().endswith("overall: pass\n")


def lattice_code_loaded(code, *args):
    """Run `code` in a fresh interpreter and tell whether `chowcalc.zgraded`
    was loaded at its end."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code += "\nimport sys; print('chowcalc.zgraded' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True,
    )
    return out.stdout.splitlines()[-1] == "True"


GYSIN_PATH = """
from chowcalc import GradedError
from chowcalc.so4pipeline import So4Pipeline
GG = So4Pipeline(degree_bound=13).build_geometry().GG
b1, b2, c2 = (GG.table.var(v) for v in ("b1", "b2", "c2"))
assert str(GG.gysin(1, b1**3 * b2 * c2)) == "2*c1*c2"
"""

EVAL = """
import contextlib, io, sys
import chowcalc.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = chowcalc.cli.main(sys.argv[1:])
assert code in (0, 1), code
"""


def test_pushforwards_and_bundle_scripts_load_no_lattice_code():
    # gysin-sweep's path: the error classes, the geometry and a push along
    # G(2, S), which takes the closed form
    assert not lattice_code_loaded(GYSIN_PATH)
    # a script with no ideal, nf or member
    assert not lattice_code_loaded(EVAL, "eval", BUNDLES)


@pytest.mark.parametrize(
    "script",
    [
        "let S = bundle(c, 2);\nlet I = ideal(c1, c2);\n",
        "let S = bundle(c, 2);\nlet G = grass(S, 1, f);\ncheck nf(G, rel(G, 2)) == 0;\n",
    ],
    ids=["ideal", "nf"],
)
def test_ideals_and_normal_forms_load_the_lattice_code(tmp_path, script):
    path = tmp_path / "small.chow"
    path.write_text(script)
    assert lattice_code_loaded(EVAL, "eval", str(path))


def test_verify_so4_loads_the_lattice_code():
    assert lattice_code_loaded(EVAL, "verify-so4", "--degree-bound", "4")


GRADED_ERROR = """
import chowcalc
from chowcalc import ChowError, GradedError, zgraded
assert chowcalc.GradedError is zgraded.GradedError is GradedError
try:
    zgraded.GradedIdeal([])
except ChowError as exc:
    assert type(exc) is GradedError, exc
else:
    raise AssertionError("GradedIdeal([]) raised nothing")
"""


def test_graded_error_is_one_class_and_a_chow_error():
    assert lattice_code_loaded(GRADED_ERROR)


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_writable_out_probe_leaves_the_file_as_it_was(tmp_path, monkeypatch, existing):
    # the probe must neither leave a file behind nor truncate one when the
    # command then fails
    def fail(*args, **kwargs):
        raise DslError("stopped")

    monkeypatch.setattr(dsl, "run_script", fail)
    target = tmp_path / "report.txt"
    if existing:
        target.write_text("old report\n")
    assert run_cli(["eval", EXAMPLE, "--out", str(target)]) == cli.EXIT_USAGE
    if existing:
        assert target.read_text() == "old report\n"
    else:
        assert not target.exists()
