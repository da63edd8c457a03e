"""A small script language for bundle and tower computations.

Scripts are sequences of `let NAME = expr;` bindings and
`check expr == expr;` assertions.  Expressions combine ring arithmetic
(+, -, *, ^) with builtin constructors for bundles (bundle, line, dual, det,
wedge2, sym2, tensor, tensor_line, quotient, porteous, c, sub, quot), towers
(grass, schur, gysin, nf, rel) and ideals (ideal, nf, member, contains, structure).

`tokenize` scans a script with one regular expression into NAMEs (a letter
or `_`, then letters, digits and `_`), INTs (decimal digits) and operators;
blanks and `#` comments to the end of the line separate them.  `parse`
builds plain syntax-tree records, a statement's line among their fields.

Evaluation is two-pass: a first pass collects the `bundle` and `grass`
declarations to assemble the session's variable table, a second pass
evaluates every statement over that table.  A declaration is the whole
right-hand side of a `let`; a `bundle` or `grass` call anywhere else is an
error, and so is a rank above the degree bound, which the first pass
refuses.  Names bind once per script.  A check is named by its printed
text, `check_text`: the `text` of its transcript event.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

from . import chern
from .grasstower import TowerLevel
from .polyring import DEFAULT_DEGREE_BOUND, ChowError, Poly, PolyError, Record, VarTable
from .zgraded import GradedIdeal


class DslError(ChowError):
    """Evaluation-time error with optional source position."""

    def __init__(self, msg, line=None, col=None):
        if line is not None:
            msg = "line %d, col %d: %s" % (line, col, msg)
        super().__init__(msg)
        self.line = line
        self.col = col


class ParseError(DslError):
    pass


# -- tokens ------------------------------------------------------------------


class Token(Record):
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind  # NAME, INT, punctuation/operator literal
        self.value = value
        self.line = line
        self.col = col


# A NAME starts with a letter or `_`; `\w` also takes digits such as `²`
# that are not decimal, so `tokenize` refuses a word that starts with one.
_TOKEN = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|#[^\n]*|(?P<INT>\d+)|(?P<NAME>\w+)"
    r"|(?P<op>==|[-+*^(),;=])|(?P<bad>.)"
)


def tokenize(text):
    """The tokens of `text`, ending with EOF; lines and columns count from 1."""
    tokens = []
    line, start = 1, 0  # start: the offset of the line's first character
    for m in _TOKEN.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind is None:  # blanks or a comment
            continue
        if kind == "newline":
            line, start = line + 1, m.end()
            continue
        col = m.start() - start + 1
        if kind == "NAME" and not (value[0].isalpha() or value[0] == "_"):
            kind = "bad"
        if kind == "bad":
            raise ParseError("unexpected character %r" % value[0], line, col)
        tokens.append(Token(value if kind == "op" else kind, value, line, col))
    tokens.append(Token("EOF", "", line, len(text) - start + 1))
    return tokens


# -- syntax tree -------------------------------------------------------------


class Ref(Record):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class IntLit(Record):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Neg(Record):
    __slots__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand


class BinOp(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op = op  # "+", "-", "*"
        self.left = left
        self.right = right


class Pow(Record):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = exponent


class Call(Record):
    __slots__ = ("fn", "args")

    def __init__(self, fn, args):
        self.fn = fn
        self.args = args


class Let(Record):
    __slots__ = ("name", "expr", "line")

    def __init__(self, name, expr, line):
        self.name = name
        self.expr = expr
        self.line = line


class CheckStmt(Record):
    __slots__ = ("lhs", "rhs", "line")

    def __init__(self, lhs, rhs, line):
        self.lhs = lhs
        self.rhs = rhs
        self.line = line


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        if self.peek().kind != kind:
            self.fail(repr(kind))
        return self.next()

    def fail(self, expected):
        tok = self.peek()
        found = tok.value or tok.kind
        raise ParseError("expected %s, found %r" % (expected, found), tok.line, tok.col)

    def script(self):
        stmts = []
        while self.peek().kind != "EOF":
            stmts.append(self.statement())
        return stmts

    def statement(self):
        tok = self.peek()
        if tok.kind != "NAME" or tok.value not in ("let", "check"):
            raise ParseError("expected 'let' or 'check'", tok.line, tok.col)
        self.next()
        if tok.value == "let":
            name = self.expect("NAME").value
            self.expect("=")
            expr = self.expr()
            self.expect(";")
            return Let(name, expr, tok.line)
        lhs = self.expr()
        self.expect("==")
        rhs = self.expr()
        self.expect(";")
        return CheckStmt(lhs, rhs, tok.line)

    def expr(self):
        if self.peek().kind == "-":
            self.next()
            node = Neg(self.term())
        else:
            node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "*":
            self.next()
            node = BinOp("*", node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.peek().kind == "^":
            self.next()
            node = Pow(node, _int(self.expect("INT")))
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return IntLit(_int(tok))
        if tok.kind == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "NAME":
            self.next()
            if self.peek().kind == "(":
                self.next()
                args = []
                if self.peek().kind != ")":
                    args.append(self.expr())
                    while self.peek().kind == ",":
                        self.next()
                        args.append(self.expr())
                self.expect(")")
                return Call(tok.value, tuple(args))
            return Ref(tok.value)
        self.fail("an expression")


def _int(tok):
    try:
        return int(tok.value)
    except ValueError:  # past the interpreter's int/str digit limit
        raise ParseError("integer literal too long", tok.line, tok.col) from None


def parse(text):
    """Parse a script into a list of statements.

    An expression nested past the interpreter's recursion limit is a
    ParseError at the token the parser had reached.
    """
    parser = _Parser(tokenize(text))
    try:
        return parser.script()
    except RecursionError:
        tok = parser.peek()
        raise ParseError("expression nested too deeply", tok.line, tok.col) from None


def check_text(stmt):
    """The `text` of a check's transcript event: its two sides printed by
    `pretty`.  It names the check, as `eval` prints it."""
    return "%s == %s" % (pretty(stmt.lhs), pretty(stmt.rhs))


# -- pretty printer ----------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "neg": 2, "^": 3, "atom": 4}


def pretty(node):
    """Canonical source form; parse(pretty(parse(s))) == parse(s)."""
    text, _ = _pp(node)
    return text


def _pp(node):
    if isinstance(node, Ref):
        return node.name, _PREC["atom"]
    if isinstance(node, IntLit):
        return str(node.value), _PREC["atom"]
    if isinstance(node, Call):
        args = ", ".join(pretty(a) for a in node.args)
        return "%s(%s)" % (node.fn, args), _PREC["atom"]
    if isinstance(node, Neg):
        body, prec = _pp(node.operand)
        if prec < _PREC["neg"]:
            body = "(%s)" % body
        return "-" + body, _PREC["+"]
    if isinstance(node, Pow):
        body, prec = _pp(node.base)
        if prec < _PREC["^"] + 1:
            body = "(%s)" % body
        return "%s^%d" % (body, node.exponent), _PREC["^"]
    if isinstance(node, BinOp):
        lp = _PREC[node.op]
        left, lprec = _pp(node.left)
        right, rprec = _pp(node.right)
        if lprec < lp:
            left = "(%s)" % left
        # the grammar is left-associative and a bare '-' cannot start a
        # right operand, so equal precedence on the right needs parens too
        if rprec <= lp:
            right = "(%s)" % right
        return "%s %s %s" % (left, node.op, right), lp
    raise DslError("cannot print %r" % (node,))


# -- evaluation --------------------------------------------------------------


_DECLARING = ("bundle", "grass")


def _declaration(node, bound):
    """(names, bundle expression) of a `bundle` or `grass` call, else None.

    `bundle(c, r)` declares c1..cr and has no bundle expression;
    `grass(E, k, b)` declares b1..bk of the sub-bundle of E.  A rank or k
    above the degree bound is refused before any name is built.
    """
    if not isinstance(node, Call) or node.fn not in _DECLARING:
        return None
    args = node.args
    if node.fn == "bundle":
        if len(args) != 2 or not (
            isinstance(args[0], Ref) and isinstance(args[1], IntLit)
        ):
            raise DslError("bundle(prefix, rank) takes a name and an integer")
        prefix, rank, bundle = args[0].name, args[1].value, None
    else:
        if len(args) != 3 or not isinstance(args[2], Ref):
            raise DslError(
                "grass(E, k, prefix) takes a bundle, an integer and a name"
            )
        if not isinstance(args[1], IntLit):
            raise DslError("grass rank must be a literal")
        prefix, rank, bundle = args[2].name, args[1].value, args[0]
    if rank > bound:
        raise DslError(
            "a nonzero c_%d needs a degree bound >= %d" % (bound + 1, bound + 1)
        )
    return ["%s%d" % (prefix, i) for i in range(1, rank + 1)], bundle


def _relation(level, degree):
    for r in level.new_relations:
        if r.degree() == degree:
            return r
    if degree > level.table.degree_bound:
        raise DslError(
            "a relation of degree %d needs a degree bound >= %d" % (degree, degree)
        )
    raise DslError("no relation of degree %d on this level" % degree)


def _member(p, I):
    """Membership, true only when the certificate multiplies back to p."""
    ok, cert = I.member(p)
    return ok and I.certificate_product(cert) == p


# argument kind -> (accepted type(s), the noun an error names it by)
_KINDS = {
    "class": (Poly, "a class"),
    "bundle": (chern.Bundle, "a bundle"),
    "tower": (TowerLevel, "a tower level"),
    "ideal": (GradedIdeal, "an ideal"),
    "reducer": ((TowerLevel, GradedIdeal), "a tower level or an ideal"),
    "int": (int, "an integer"),
}

# builtin -> (argument kinds, function); a last kind ending in "*" takes any
# number of arguments.  `bundle` and `grass` declare variables and are read
# by `_declaration` instead.  The functions look library functions up when
# called, so a wrapper installed on a module attribute sees every call.
_BUILTINS = {
    "line": (("class",), lambda x: chern.line(x)),
    "dual": (("bundle",), lambda E: chern.dual(E)),
    "det": (("bundle",), lambda E: chern.determinant(E)),
    "wedge2": (("bundle",), lambda E: chern.exterior_square(E)),
    "sym2": (("bundle",), lambda E: chern.sym2(E)),
    "tensor": (("bundle", "bundle"), lambda E, F: chern.tensor(E, F)),
    "tensor_line": (("bundle", "class"), lambda E, x: chern.tensor_line(E, x)),
    "quotient": (("bundle", "bundle"), lambda E, F: chern.formal_quotient(E, F)),
    "porteous": (("bundle", "bundle", "int"), lambda E, F, r: chern.porteous(E, F, r)),
    "c": (("bundle", "int"), lambda E, k: E.c(k)),
    "sub": (("tower",), lambda G: G.taut_sub),
    "quot": (("tower",), lambda G: G.taut_quot),
    "schur": (("tower", "int*"), lambda G, *lam: G.schur(list(lam))),
    # the image lives over the table without G's variables; scripts keep
    # every value over the session table
    "gysin": (("tower", "class"), lambda G, p: G.gysin(p).convert(G.table)),
    "nf": (("reducer", "class"), lambda G, p: G.normal_form(p)),
    "rel": (("tower", "int"), _relation),
    "ideal": (("class", "class*"), lambda *gens: GradedIdeal(list(gens))),
    "member": (("class", "ideal"), _member),
    "contains": (("ideal", "ideal", "int"), lambda I, J, d: I.contains(J, d)[0]),
    "structure": (("ideal", "int"), lambda I, d: I.quotient_structure(d)),
}


def _arg_kinds(fn, n):
    """The kind of each of the n arguments of builtin `fn`."""
    kinds = _BUILTINS[fn][0]
    many = kinds[-1].endswith("*")
    fixed = kinds[:-1] if many else kinds
    if n < len(fixed) or (n > len(fixed) and not many):
        at_least = "at least " if many else ""
        raise DslError("%s takes %s%d argument(s)" % (fn, at_least, len(fixed)))
    return fixed + (kinds[-1][:-1],) * (n - len(fixed))


class Session:
    """Evaluates a parsed script; holds the environment and the table."""

    def __init__(self, degree_bound=DEFAULT_DEGREE_BOUND):
        self.degree_bound = degree_bound
        self.env = {}
        self.table = None

    def run(self, stmts):
        """Evaluate all statements; returns a list of transcript events.

        Events are dicts: {"kind": "let", "name", "value"} or
        {"kind": "check", "text", "ok", "lhs", "rhs"}.  Every error is
        raised as one DslError that names the line of its statement.
        """
        self.declare(stmts)
        return [self.execute(s) for s in stmts]

    def declare(self, stmts):
        """Pass 1: build the table from the script's declarations."""
        degrees = {}
        for s in stmts:
            with _at(s.line):
                decl = isinstance(s, Let) and _declaration(s.expr, self.degree_bound)
                for degree, name in enumerate(decl[0] if decl else (), start=1):
                    if name in degrees:
                        raise DslError("variable %r declared twice" % name)
                    degrees[name] = degree
        with _at(None):
            self.table = VarTable(list(degrees.items()), self.degree_bound)

    def execute(self, s):
        """Pass 2, one statement: evaluate it over the table; returns its
        transcript event."""
        with _at(s.line):
            return self._statement(s)

    def _statement(self, s):
        if isinstance(s, Let):
            if s.name in self.env or s.name in self.table.index:
                raise DslError("name %r bound twice" % s.name)
            decl = _declaration(s.expr, self.degree_bound)
            value = self._declare(*decl) if decl else self.eval(s.expr)
            self.env[s.name] = value
            return {"kind": "let", "name": s.name, "value": _show(value)}
        lhs = self.eval(s.lhs)
        rhs = self.eval(s.rhs)
        return {
            "kind": "check",
            "text": check_text(s),
            "ok": _loose_eq(lhs, rhs),
            "lhs": _show(lhs),
            "rhs": _show(rhs),
        }

    def eval(self, node):
        if isinstance(node, IntLit):
            return self.table.const(node.value)
        if isinstance(node, Ref):
            if node.name in self.table.index:
                return self.table.var(node.name)
            if node.name in self.env:
                return self.env[node.name]
            raise DslError("unknown name %r" % node.name)
        if isinstance(node, Neg):
            return -self._as("class", self.eval(node.operand))
        if isinstance(node, BinOp):
            left = self._as("class", self.eval(node.left))
            right = self._as("class", self.eval(node.right))
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            return left * right
        if isinstance(node, Pow):
            return self._as("class", self.eval(node.base)) ** node.exponent
        if isinstance(node, Call):
            if node.fn in _DECLARING:
                raise DslError(
                    "%s declares variables, so it must be the whole"
                    " right-hand side of a let" % node.fn
                )
            if node.fn not in _BUILTINS:
                raise DslError("unknown function %r" % node.fn)
            kinds = _arg_kinds(node.fn, len(node.args))
            args = [self._as(k, self.eval(a)) for k, a in zip(kinds, node.args)]
            return _BUILTINS[node.fn][1](*args)
        raise DslError("cannot evaluate %r" % (node,))

    def _declare(self, names, bundle):
        """The value of a declaration, over the variables pass 1 made."""
        if bundle is None:
            return chern.Bundle(
                len(names), [self.table.one()] + [self.table.var(n) for n in names]
            )
        E = self._as("bundle", self.eval(bundle))
        return TowerLevel(self.table, E, len(names), names)

    def _as(self, kind, value):
        """`value` as an argument of the given kind, or a DslError."""
        if kind == "class" and isinstance(value, int):
            return self.table.const(value)
        if kind == "class" and isinstance(value, Poly):
            return value.convert(self.table)
        if kind == "int" and isinstance(value, Poly) and value.degree() <= 0:
            return value.constant()
        if isinstance(value, _KINDS[kind][0]):
            return value
        raise DslError("expected %s, found %s" % (_KINDS[kind][1], _kind(value)))


@contextmanager
def _at(line):
    """Raise every error inside as one DslError that names `line`."""
    try:
        yield
    except (ChowError, RecursionError) as exc:
        raise DslError(str(exc), line, 1) from exc


def _kind(value):
    for kind, (cls, noun) in _KINDS.items():
        if kind != "int" and isinstance(value, cls):
            return noun
    return type(value).__name__


def _show(value):
    if isinstance(value, chern.Bundle):
        return "bundle(rank %d, c = %s)" % (value.rank, value.total())
    if isinstance(value, TowerLevel):
        return "G(%d, rank-%d bundle) with %s" % (
            value.k,
            value.n,
            ", ".join(value.subvars),
        )
    if isinstance(value, GradedIdeal):
        return "ideal(%s)" % ", ".join(str(g) for g in value.generators)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _loose_eq(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        def as_bool(v):
            if isinstance(v, bool):
                return v
            if isinstance(v, Poly) and v.degree() <= 0:
                return bool(v.constant())
            if isinstance(v, int):
                return bool(v)
            return None

        return as_bool(a) == as_bool(b)
    if isinstance(a, Poly) and isinstance(b, Poly):
        if a.table != b.table:
            try:
                b = b.convert(a.table)
            except PolyError:
                return False
        return a == b
    return a == b


def run_script(text, degree_bound=DEFAULT_DEGREE_BOUND):
    """Parse and evaluate; returns (events, all_checks_passed)."""
    stmts = parse(text)
    session = Session(degree_bound=degree_bound)
    events = session.run(stmts)
    ok = all(e["ok"] for e in events if e["kind"] == "check")
    return events, ok
