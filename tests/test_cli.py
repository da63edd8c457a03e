"""Tests for the command line interface: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys

import jsonschema
import pytest

from chowcalc import __version__, cli, dsl, so4pipeline
from chowcalc.chern import BundleError
from chowcalc.dsl import DslError
from chowcalc.grasstower import TowerError
from chowcalc.polyring import PolyError
from chowcalc.so4pipeline import REPORT_SCHEMA, PipelineError, So4Pipeline
from chowcalc.zgraded import GradedError

EXAMPLE = os.path.join(os.path.dirname(__file__), "..", "examples", "so4.chow")
BUNDLES = os.path.join(os.path.dirname(__file__), "..", "examples", "bundles.chow")
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


@pytest.mark.parametrize("bound", range(3, 15))
def test_eval_bundle_example_passes_at_every_bound_that_fits_it(capsys, bound):
    """examples/bundles.chow checks wedge2, sym2, tensor, porteous and twists
    against identities known in advance; its rank-3 bundle needs bound 3."""
    code = run_cli(["eval", BUNDLES, "--degree-bound", str(bound)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert out.count("PASS") == 13 and "FAIL" not in out
    assert out.endswith("overall: pass\n")


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
    "expr",
    ["(" * 3000 + "1" + ")" * 3000, " + ".join(["1"] * 5000)],
    ids=["parentheses", "sum"],
)
def test_eval_deep_nesting_is_usage_error(tmp_path, capsys, expr):
    # one error line with a position; the column of a parse that runs out
    # of stack depends on the interpreter's recursion limit
    code, err = eval_error(tmp_path, capsys, "let x = %s;\n" % expr)
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: line 1, col ") and err.count("\n") == 1


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
