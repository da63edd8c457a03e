"""Tests for the .chow script language: parser, printer, evaluator."""

import os
import random
import re
import sys
import tracemalloc

import pytest

from chowcalc import chern, dsl
from chowcalc.dsl import (
    BinOp,
    Call,
    CheckStmt,
    DslError,
    IntLit,
    Let,
    Neg,
    ParseError,
    Pow,
    Ref,
    parse,
    pretty,
    run_script,
    tokenize,
)
from chowcalc.grasstower import TowerLevel
from chowcalc.polyring import VarTable

# -- tokenizer ----------------------------------------------------------------


def test_tokenize_positions():
    assert tokenize("let x = 1;\ncheck x == 1;") == [
        ("NAME", "let", 1, 1),
        ("NAME", "x", 1, 5),
        ("=", "=", 1, 7),
        ("INT", "1", 1, 9),
        (";", ";", 1, 10),
        ("NAME", "check", 2, 1),
        ("NAME", "x", 2, 7),
        ("==", "==", 2, 9),
        ("INT", "1", 2, 12),
        (";", ";", 2, 13),
        ("EOF", "", 2, 14),
    ]


def test_tokenize_comments_and_eof():
    assert tokenize("# a comment\n42 # trailing\n") == [
        ("INT", "42", 2, 1),
        ("EOF", "", 3, 1),
    ]


def test_a_comment_advances_the_column():
    # EOF right after a trailing comment sits one past the comment's end
    assert tokenize("let a = 1 # no semicolon")[-1] == ("EOF", "", 1, 25)
    assert tokenize("x # c\ny") == [
        ("NAME", "x", 1, 1),
        ("NAME", "y", 2, 1),
        ("EOF", "", 2, 2),
    ]


def test_tokenize_rejects_garbage():
    with pytest.raises(ParseError) as exc:
        tokenize("let x = $;")
    assert (str(exc.value), exc.value.line, exc.value.col) == (
        "line 1, col 9: unexpected character '$'", 1, 9
    )


# -- parser -------------------------------------------------------------------


def parse_expr(text):
    """The expression `text`, parsed as the left side of a check."""
    return parse("check %s == 0;" % text)[0].lhs


def test_parse_precedence():
    e = parse_expr("1 + 2 * 3 ^ 2")
    assert e == BinOp("+", IntLit(1), BinOp("*", IntLit(2), Pow(IntLit(3), 2)))
    e = parse_expr("-a * b")
    assert e == Neg(BinOp("*", Ref("a"), Ref("b")))
    e = parse_expr("a - b - c")
    assert e == BinOp("-", BinOp("-", Ref("a"), Ref("b")), Ref("c"))
    e = parse_expr("(a - b) ^ 2")
    assert e == Pow(BinOp("-", Ref("a"), Ref("b")), 2)


def test_parse_calls():
    e = parse_expr("gysin(G, p * q)")
    assert e == Call("gysin", (Ref("G"), BinOp("*", Ref("p"), Ref("q"))))
    assert parse_expr("f()") == Call("f", ())


def test_parse_statements():
    stmts = parse("let a = 1; check a == 1;\ncheck a == a;")
    assert stmts == [
        Let("a", IntLit(1), 1),
        CheckStmt(Ref("a"), IntLit(1), 1),
        CheckStmt(Ref("a"), Ref("a"), 2),
    ]
    # a statement's line counts towards its equality
    assert parse("\nlet a = 1;") != parse("let a = 1;")


def test_node_equality_is_by_type_and_fields():
    assert Ref("a") != Call("a", ())
    assert Ref("a") != IntLit("a")
    one = IntLit(1)
    assert BinOp("+", Ref("a"), one) == BinOp(op="+", left=Ref("a"), right=one)
    assert BinOp("+", Ref("a"), IntLit(1)) != BinOp("-", Ref("a"), IntLit(1))
    # a statement's line is one of its fields
    assert Let("a", IntLit(1), 3) != Let("a", IntLit(1), 7)
    assert Let("a", IntLit(1), 3) != Let("b", IntLit(1), 3)
    assert CheckStmt(Ref("a"), IntLit(1), line=2) == CheckStmt(Ref("a"), IntLit(1), 2)


def test_nodes_are_plain_records():
    assert repr(Let("a", IntLit(1), 3)) == "Let(name='a', expr=IntLit(value=1), line=3)"
    assert repr(Neg(Pow(Ref("a"), 2))) == (
        "Neg(operand=Pow(base=Ref(name='a'), exponent=2))"
    )
    # a check is named by its printed text, not by its node
    (check,) = parse("check  -(a^2)==f(1,b) ;")
    assert dsl.check_text(check) == "-a^2 == f(1, b)"
    assert run_script("check 1 == 1;")[0][0]["text"] == "1 == 1"


PARSE_ERRORS = [
    ("let = 1;", 1, 5, "expected 'NAME', found '='"),
    ("let a 1;", 1, 7, "expected '=', found '1'"),
    ("check a = a;", 1, 9, "expected '==', found '='"),
    ("let a = ;", 1, 9, "expected an expression, found ';'"),
    ("frob a;", 1, 1, "expected 'let' or 'check'"),
    ("let a = 1;\nlet b = ^;", 2, 9, "expected an expression, found '^'"),
    ("let a = (1;", 1, 11, "expected ')', found ';'"),
    ("let a = x^y;", 1, 11, "expected 'INT', found 'y'"),
    ("let a = 1 # no semicolon", 1, 25, "expected ';', found 'EOF'"),
]


# each case is named by its input and position
@pytest.mark.parametrize(
    "bad,line,col,message",
    PARSE_ERRORS,
    ids=["%s-%d-%d" % case[:3] for case in PARSE_ERRORS],
)
def test_parse_errors_report_positions(bad, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse(bad)
    assert exc.value.line == line
    assert exc.value.col == col
    assert str(exc.value) == "line %d, col %d: %s" % (line, col, message)


def test_parse_reports_deep_nesting_at_the_token_reached():
    # the parser gives up at the `(` it had reached when the stack ran out,
    # so a higher recursion limit reaches a later one
    n = 5000
    text = "let x = %s1%s;" % ("(" * n, ")" * n)
    cols = []
    limit = sys.getrecursionlimit()
    try:
        for extra in (-200, 0):
            sys.setrecursionlimit(limit + extra)
            with pytest.raises(ParseError) as exc:
                parse(text)
            cols.append(exc.value.col)
            assert exc.value.line == 1
            assert str(exc.value) == (
                "line 1, col %d: expression nested too deeply" % exc.value.col
            )
    finally:
        sys.setrecursionlimit(limit)
    assert 9 <= cols[0] < cols[1] < 9 + n


# -- round trips --------------------------------------------------------------

ROUND_TRIP_CORPUS = [
    "let a = 1;",
    "let a = -1;",
    "let a = 1 + 2 + 3;",
    "let a = 1 - 2 - 3;",
    "let a = 1 - (2 - 3);",
    "let a = (1 + 2) * 3;",
    "let a = 1 + 2 * 3;",
    "let a = x ^ 2;",
    "let a = (x + y) ^ 2;",
    "let a = -x ^ 2;",
    "let a = -(x + y);",
    "let a = 2 * (0 - 3);",
    "let a = f();",
    "let a = f(1);",
    "let a = f(1, 2, 3);",
    "let a = f(g(h(x)));",
    "let a = f(x + 1, y * 2);",
    "check 1 == 1;",
    "check x + y == y + x;",
    "check f(x) == g(y);",
    "check -x == 0 - x;",
    "let S = bundle(c, 4);",
    "let G = grass(S, 2, b);",
    "let Y = porteous(F, L, 0);",
    "check gysin(G, p) == 13 * c1 - 2 * f1;",
    "let I = ideal(c1, f1, 2 * c3, c3 - f3);",
    "check member(p, I) == 1;",
    "check contains(I, J, 8) == 1;",
    "let a = 1;\nlet b = a + 1;\ncheck b == 2;",
    "let q = (a - b) * (a + b);",
    "let r = a * b * c + d;",
    "let s = a - (0 - b);",
    "check nf(G, b1 ^ 3) == nf(G, b1 ^ 3);",
    "let t = wedge2(dual(S));",
]


def pretty_script(stmts):
    """The statements printed back, one a line, each side with `pretty`."""
    return "".join(
        "let %s = %s;\n" % (s.name, pretty(s.expr))
        if isinstance(s, Let)
        else "check %s == %s;\n" % (pretty(s.lhs), pretty(s.rhs))
        for s in stmts
    )


@pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
def test_pretty_round_trip(src):
    stmts = parse(src)
    printed = pretty_script(stmts)
    assert parse(printed) == stmts
    # printing is idempotent
    assert pretty_script(parse(printed)) == printed


def test_random_source_round_trips():
    # generate random well-formed sources from the grammar and require the
    # parse -> pretty -> parse fixpoint plus printer idempotence
    rng = random.Random(77)

    def atom(depth):
        k = rng.randint(0, 3)
        if k == 0:
            return str(rng.randint(0, 9))
        if k == 1:
            return rng.choice(["x", "y", "z"])
        if k == 2 and depth:
            n = rng.randint(0, 2)
            return "f(%s)" % ", ".join(expr(depth - 1) for _ in range(n))
        if depth:
            return "(%s)" % expr(depth - 1)
        return "x"

    def factor(depth):
        a = atom(depth)
        if rng.random() < 0.3:
            return "%s^%d" % (a, rng.randint(0, 3))
        return a

    def term(depth):
        parts = [factor(depth) for _ in range(rng.randint(1, 3))]
        return " * ".join(parts)

    def expr(depth):
        out = ("-" if rng.random() < 0.2 else "") + term(depth)
        for _ in range(rng.randint(0, 2)):
            out += " %s %s" % (rng.choice("+-"), term(depth))
        return out

    for _ in range(60):
        src = "let a = %s;" % expr(3)
        stmts = parse(src)
        printed = pretty_script(stmts)
        assert parse(printed) == stmts
        assert pretty_script(parse(printed)) == printed


# -- evaluation ---------------------------------------------------------------


def test_session_arithmetic():
    events, ok = run_script(
        "let S = bundle(a, 2);\n"
        "check (a1 + a2) ^ 2 == a1 ^ 2 + 2 * a1 * a2 + a2 ^ 2;\n"
        "check a1 - a1 == 0;\n"
        "check -a1 == 0 - a1;\n"
    )
    assert ok
    assert [e["kind"] for e in events] == ["let", "check", "check", "check"]


def test_session_bundle_builtins():
    events, ok = run_script(
        "let S = bundle(c, 3);\n"
        "check c(S, 1) == c1;\n"
        "check c(dual(S), 2) == c2;\n"
        "check c(dual(S), 1) == -c1;\n"
        "check c(wedge2(S), 1) == 2 * c1;\n"
        "check det(S) == line(c1);\n"
    )
    assert ok


def test_session_sym2_and_tensor_builtins():
    events, ok = run_script(
        "let S = bundle(c, 3);\n"
        "let L = bundle(l, 1);\n"
        "check c(sym2(S), 1) == 4 * c1;\n"
        "check c(tensor(S, dual(S)), 1) == 0;\n"
        "check tensor(S, L) == tensor_line(S, l1);\n"
        "check sym2(L) == line(2 * l1);\n"
        "check c(wedge2(L), 1) == 0;\n"
    )
    assert ok, events
    with pytest.raises(DslError, match="tensor takes 2 argument"):
        run_script("let S = bundle(c, 3);\nlet T = tensor(S);\n")


def test_session_tower_and_gysin():
    events, ok = run_script(
        "let S = bundle(c, 4);\n"
        "let G = grass(S, 2, b);\n"
        "check schur(G, 1, 1) == b2;\n"
        "check schur(G, 2) == b1 ^ 2 - b2;\n"
        "check gysin(G, b2 ^ 2) == 1;\n"
        "check gysin(G, b1 ^ 4) == 2;\n"
        "check nf(G, rel(G, 3)) == 0;\n"
    )
    assert ok, events


def test_session_gysin_matches_the_library():
    classes = [(0, 2, 0), (4, 0, 0), (2, 1, 1), (1, 2, 2), (0, 3, 1), (3, 2, 1)]
    script = "let S = bundle(c, 4);\nlet G = grass(S, 2, b);\n" + "".join(
        "let p%d = gysin(G, b1 ^ %d * b2 ^ %d * c1 ^ %d);\n" % ((n,) + ijm)
        for n, ijm in enumerate(classes)
    )
    events, ok = run_script(script)
    shown = {e["name"]: e["value"] for e in events if e["kind"] == "let"}
    T = VarTable(
        [("c%d" % i, i) for i in range(1, 5)] + [("b1", 1), ("b2", 2)], 10
    )
    S = chern.Bundle(4, [T.one()] + [T.var("c%d" % i) for i in range(1, 5)])
    G = TowerLevel(T, S, 2, ["b1", "b2"])
    for n, (i, j, m) in enumerate(classes):
        p = T.var("b1") ** i * T.var("b2") ** j * T.var("c1") ** m
        assert shown["p%d" % n] == str(G.gysin(p))


def test_session_ideal_builtins():
    events, ok = run_script(
        "let S = bundle(c, 4);\n"
        "let I = ideal(c1, 2 * c3);\n"
        "check member(c1 * c2, I) == 1;\n"
        "check member(c3, I) == 0;\n"
        "check contains(I, ideal(c1), 6) == 1;\n"
        "check contains(ideal(c1), I, 6) == 0;\n"
        "check nf(I, c1 * c3 + c2 ^ 2) == c2 ^ 2;\n"
        "check nf(I, 3 * c3) == c3;\n"
    )
    assert ok


def test_session_structure_builtin():
    # Z[c1, c2]/(2 c1) in degree 2: c2 is free, c1^2 has order 2
    events, ok = run_script(
        "let S = bundle(c, 2);\n"
        "let A = structure(ideal(2 * c1), 2);\n"
    )
    assert ok
    assert events[-1]["name"] == "A" and events[-1]["value"] == "Z + Z/2"


def test_session_events_carry_values():
    events, ok = run_script(
        "let S = bundle(c, 2);\ncheck c1 == c2;"
    )
    assert not ok
    check = events[-1]
    assert check["kind"] == "check"
    assert check["lhs"] == "c1" and check["rhs"] == "c2"
    assert check["text"] == "c1 == c2"


def test_session_rejects_rebinding():
    with pytest.raises(DslError):
        run_script("let a = 1;\nlet a = 2;")
    with pytest.raises(DslError):
        run_script("let S = bundle(c, 2);\nlet c1 = 5;")
    with pytest.raises(DslError):
        run_script("let S = bundle(c, 2);\nlet T = bundle(c, 3);")


def test_session_unknown_names_and_functions():
    with pytest.raises(DslError):
        run_script("check zz == 0;")
    with pytest.raises(DslError):
        run_script("let a = frobnicate(1);")
    with pytest.raises(DslError):
        run_script("let S = bundle(c, 2);\nlet a = gysin(S, c1);")


def test_session_wraps_library_errors():
    # a bundle class above the degree bound surfaces as a DslError,
    # not a raw library exception
    with pytest.raises(DslError):
        run_script("let S = bundle(c, 4);", degree_bound=3)


@pytest.mark.parametrize(
    "script, line",
    [
        ("let E = bundle(c, 1000000000);\n", 1),
        ("let S = bundle(c, 4);\nlet G = grass(S, 1000000000, b);\n", 2),
        # k >= rank(E) as well: refused for the bound, not for the rank
        ("let S = bundle(c, 4);\nlet G = grass(S, 11, b);\n", 2),
        # pass 1 refuses it before pass 2 reads the unknown function
        ("let a = frob(1);\nlet E = bundle(c, 12);\n", 2),
    ],
)
def test_a_declaration_above_the_bound_is_refused_before_its_names(script, line):
    tracemalloc.start()
    try:
        with pytest.raises(DslError) as exc:
            run_script(script, degree_bound=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == (
        "line %d, col 1: a nonzero c_11 needs a degree bound >= 11" % line
    )
    assert peak < 1 << 20  # no name of the declaration was built


@pytest.mark.parametrize("bound", [0, -1, -3])
@pytest.mark.parametrize(
    "script",
    [
        "let E = bundle(c, 2);",
        "let E = bundle(c, 2);\nlet G = grass(E, 1, f);",
        "let a = 1;",
        "",
    ],
    ids=["bundle", "grass", "no-declaration", "empty"],
)
def test_a_bound_below_1_is_refused_before_any_declaration(script, bound):
    # not "a nonzero c_(bound + 1) needs a degree bound >= bound + 1", a
    # class that cannot exist below degree 1
    with pytest.raises(DslError) as exc:
        run_script(script, degree_bound=bound)
    assert str(exc.value) == "degree bound must be positive"


def test_degree_bound_plumbs_through():
    # at a low bound the truncation changes the arithmetic
    events, ok = run_script(
        "let S = bundle(c, 2);\ncheck (c1 + c2) ^ 2 == c1 ^ 2 + 2 * c1 * c2;",
        degree_bound=3,
    )
    assert ok


def test_example_script_verdicts():
    path = os.path.join(
        os.path.dirname(__file__), "..", "examples", "so4.chow"
    )
    with open(path) as fh:
        text = fh.read()
    events, ok = run_script(text)
    assert not ok  # two recorded reference values are not reproduced
    checks = [e for e in events if e["kind"] == "check"]
    assert len(checks) == 19
    failing = [c["text"] for c in checks if not c["ok"]]
    assert failing == ["p0 == p0_rec", "nf(J, p5) == p5_rec"]
    values = {e["name"]: e["value"] for e in events if e["kind"] == "let"}
    assert [values["p%d_rec" % k] for k in range(6)] == [
        "13*c1 - 2*f1", "0", "-2*f3", "c3 - f3",
        "c2^2 - 2*c2*f2 - 4*c4 + f2^2", "c2*f3 + c3*f2",
    ]


def test_readme_lists_every_builtin():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Scripts", 1)[1].split("\n## ", 1)[0]
    lists = "".join(re.findall(r"\(([^)]*)\)", section))
    listed = set(re.findall(r"`(\w+)`", lists))
    assert listed == set(dsl._BUILTINS) | {"bundle", "grass"}
