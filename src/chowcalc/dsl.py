"""A small script language for bundle and tower computations.

Scripts are sequences of `let NAME = expr;` bindings and
`check expr == expr;` assertions.  Expressions combine ring arithmetic
(+, -, *, ^) with builtin constructors for bundles (bundle, line, dual, det,
wedge2, tensor_line, quotient, porteous, c, sub, quot), towers (grass, schur,
gysin, nf, rel) and ideals (ideal, member, contains, structure).

Evaluation is two-pass: a first pass collects the `bundle` and `grass`
declarations to assemble the session's variable table, a second pass
evaluates every statement over that table.  Names bind once per script.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import chern
from .grasstower import GradedRing, TowerError, TowerLevel
from .polyring import Poly, PolyError, VarTable
from .zgraded import GradedError, GradedIdeal


class DslError(Exception):
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


@dataclass
class Token:
    kind: str  # NAME, INT, punctuation/operator literal
    value: str
    line: int
    col: int


_PUNCT = ("==", "+", "-", "*", "^", "(", ")", ",", ";", "=")


def tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token(p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# -- syntax tree -------------------------------------------------------------


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-", "*"
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


@dataclass(frozen=True)
class Let:
    name: str
    expr: object
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class CheckStmt:
    lhs: object
    rhs: object
    line: int = field(compare=False, default=0)


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
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                "expected %r, found %r" % (kind, tok.value or tok.kind),
                tok.line,
                tok.col,
            )
        return self.next()

    def script(self):
        stmts = []
        while self.peek().kind != "EOF":
            stmts.append(self.statement())
        return stmts

    def statement(self):
        tok = self.peek()
        if tok.kind != "NAME" or tok.value not in ("let", "check"):
            raise ParseError(
                "expected 'let' or 'check'", tok.line, tok.col
            )
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
            tok = self.expect("INT")
            node = Pow(node, int(tok.value))
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return IntLit(int(tok.value))
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
        raise ParseError(
            "expected an expression, found %r" % (tok.value or tok.kind),
            tok.line,
            tok.col,
        )


def parse(text):
    """Parse a script into a list of statements."""
    return _Parser(tokenize(text)).script()


def parse_expr(text):
    """Parse a single expression (no trailing tokens allowed)."""
    parser = _Parser(tokenize(text))
    node = parser.expr()
    parser.expect("EOF")
    return node


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
        return (
            "%s(%s)" % (node.fn, ", ".join(pretty(a) for a in node.args)),
            _PREC["atom"],
        )
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


def pretty_script(stmts):
    out = []
    for s in stmts:
        if isinstance(s, Let):
            out.append("let %s = %s;" % (s.name, pretty(s.expr)))
        else:
            out.append("check %s == %s;" % (pretty(s.lhs), pretty(s.rhs)))
    return "\n".join(out) + ("\n" if out else "")


# -- evaluation --------------------------------------------------------------


# builtins that declare fresh variables; handled in the first pass
_DECLARING = ("bundle", "grass")


class Session:
    """Evaluates a parsed script; holds the environment and the table."""

    def __init__(self, degree_bound=10):
        self.degree_bound = degree_bound
        self.env = {}
        self.table = None

    # -- pass 1: variable collection --------------------------------------

    def _collect(self, stmts):
        variables = []
        seen = set()
        for s in stmts:
            if not isinstance(s, Let):
                continue
            e = s.expr
            if isinstance(e, Call) and e.fn in _DECLARING:
                if e.fn == "bundle":
                    if (
                        len(e.args) != 2
                        or not isinstance(e.args[0], Ref)
                        or not isinstance(e.args[1], IntLit)
                    ):
                        raise DslError(
                            "bundle(prefix, rank) takes a name and an integer",
                            s.line,
                            1,
                        )
                    prefix, rank = e.args[0].name, e.args[1].value
                elif e.fn == "grass":
                    if len(e.args) != 3 or not isinstance(e.args[2], Ref):
                        raise DslError(
                            "grass(E, k, prefix) takes a bundle, an integer "
                            "and a name",
                            s.line,
                            1,
                        )
                    if not isinstance(e.args[1], IntLit):
                        raise DslError("grass rank must be a literal", s.line, 1)
                    prefix, rank = e.args[2].name, e.args[1].value
                for i in range(1, rank + 1):
                    name = "%s%d" % (prefix, i)
                    if name in seen:
                        raise DslError(
                            "variable %r declared twice" % name, s.line, 1
                        )
                    seen.add(name)
                    variables.append((name, i))
        return variables

    # -- pass 2 ------------------------------------------------------------

    def run(self, stmts):
        """Evaluate all statements; returns a list of transcript events.

        Events are dicts: {"kind": "let", "name", "value"} or
        {"kind": "check", "text", "ok"}.
        """
        variables = self._collect(stmts)
        self.table = VarTable(variables, self.degree_bound)
        events = []
        for s in stmts:
            if isinstance(s, Let):
                if s.name in self.env or (
                    self.table and s.name in self.table.index
                ):
                    raise DslError("name %r bound twice" % s.name, s.line, 1)
                value = self.eval(s.expr, s.line)
                self.env[s.name] = value
                events.append(
                    {"kind": "let", "name": s.name, "value": _show(value)}
                )
            else:
                lhs = self.eval(s.lhs, s.line)
                rhs = self.eval(s.rhs, s.line)
                ok = _loose_eq(lhs, rhs)
                events.append(
                    {
                        "kind": "check",
                        "text": "%s == %s" % (pretty(s.lhs), pretty(s.rhs)),
                        "ok": ok,
                        "lhs": _show(lhs),
                        "rhs": _show(rhs),
                    }
                )
        return events

    def eval(self, node, line=None):
        try:
            return self._eval(node)
        except (PolyError, TowerError, GradedError, chern.BundleError) as exc:
            raise DslError(str(exc), line, 1)

    def _eval(self, node):
        if isinstance(node, IntLit):
            return self.table.const(node.value)
        if isinstance(node, Ref):
            if node.name in self.table.index:
                return self.table.var(node.name)
            if node.name in self.env:
                return self.env[node.name]
            raise DslError("unknown name %r" % node.name)
        if isinstance(node, Neg):
            return -self._as_poly(self._eval(node.operand))
        if isinstance(node, BinOp):
            left = self._eval(node.left)
            right = self._eval(node.right)
            if node.op in ("+", "-") or isinstance(left, Poly) or isinstance(
                right, Poly
            ):
                left = self._as_poly(left)
                right = self._as_poly(right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            return left * right
        if isinstance(node, Pow):
            return self._as_poly(self._eval(node.base)) ** node.exponent
        if isinstance(node, Call):
            return self._call(node)
        raise DslError("cannot evaluate %r" % (node,))

    def _as_poly(self, value):
        if isinstance(value, Poly):
            if value.table != self.table:
                return value.convert(self.table)
            return value
        if isinstance(value, int):
            return self.table.const(value)
        raise DslError("expected a class, found %s" % _kind(value))

    def _as_bundle(self, value):
        if not isinstance(value, chern.Bundle):
            raise DslError("expected a bundle, found %s" % _kind(value))
        return value

    def _as_tower(self, value):
        if not isinstance(value, TowerLevel):
            raise DslError("expected a tower level, found %s" % _kind(value))
        return value

    def _as_ideal(self, value):
        if not isinstance(value, GradedIdeal):
            raise DslError("expected an ideal, found %s" % _kind(value))
        return value

    def _as_int(self, value):
        if isinstance(value, Poly):
            if value.is_zero():
                return 0
            if value.degree() == 0:
                return value.constant()
        if isinstance(value, int):
            return value
        raise DslError("expected an integer, found %s" % _kind(value))

    def _call(self, node):
        fn = node.fn
        args = node.args

        def arity(n):
            if len(args) != n:
                raise DslError("%s takes %d argument(s)" % (fn, n))

        if fn == "bundle":
            arity(2)
            prefix = args[0].name
            rank = args[1].value
            chern_vars = [self.table.one()] + [
                self.table.var("%s%d" % (prefix, i)) for i in range(1, rank + 1)
            ]
            return chern.Bundle(rank, chern_vars)
        if fn == "grass":
            arity(3)
            E = self._as_bundle(self._eval(args[0]))
            k = args[1].value
            subvars = ["%s%d" % (args[2].name, i) for i in range(1, k + 1)]
            return TowerLevel(GradedRing(self.table), self.table, E, k, subvars)
        if fn == "line":
            arity(1)
            return chern.line(self._as_poly(self._eval(args[0])))
        if fn == "dual":
            arity(1)
            return chern.dual(self._as_bundle(self._eval(args[0])))
        if fn == "det":
            arity(1)
            return chern.determinant(self._as_bundle(self._eval(args[0])))
        if fn == "wedge2":
            arity(1)
            return chern.exterior_square(self._as_bundle(self._eval(args[0])))
        if fn == "tensor_line":
            arity(2)
            return chern.tensor_line(
                self._as_bundle(self._eval(args[0])),
                self._as_poly(self._eval(args[1])),
            )
        if fn == "quotient":
            arity(2)
            return chern.formal_quotient(
                self._as_bundle(self._eval(args[0])),
                self._as_bundle(self._eval(args[1])),
            )
        if fn == "porteous":
            arity(3)
            return chern.porteous(
                self._as_bundle(self._eval(args[0])),
                self._as_bundle(self._eval(args[1])),
                self._as_int(self._eval(args[2])),
            )
        if fn == "c":
            arity(2)
            return self._as_bundle(self._eval(args[0])).c(
                self._as_int(self._eval(args[1]))
            )
        if fn == "sub":
            arity(1)
            return self._as_tower(self._eval(args[0])).taut_sub
        if fn == "quot":
            arity(1)
            return self._as_tower(self._eval(args[0])).taut_quot
        if fn == "schur":
            if len(args) < 1:
                raise DslError("schur takes a tower level and partition parts")
            level = self._as_tower(self._eval(args[0]))
            return level.schur([self._as_int(self._eval(a)) for a in args[1:]])
        if fn == "gysin":
            arity(2)
            level = self._as_tower(self._eval(args[0]))
            p = self._as_poly(self._eval(args[1]))
            return level.gysin(p).convert(self.table)
        if fn == "nf":
            arity(2)
            level = self._as_tower(self._eval(args[0]))
            return level.normal_form(self._as_poly(self._eval(args[1])))
        if fn == "rel":
            arity(2)
            level = self._as_tower(self._eval(args[0]))
            degree = self._as_int(self._eval(args[1]))
            for r in level.new_relations:
                if r.degree() == degree:
                    return r
            raise DslError("no relation of degree %d on this level" % degree)
        if fn == "ideal":
            if not args:
                raise DslError("ideal needs at least one generator")
            return GradedIdeal(
                [self._as_poly(self._eval(a)) for a in args]
            )
        if fn == "member":
            arity(2)
            ideal = self._as_ideal(self._eval(args[1]))
            ok, cert = ideal.member(self._as_poly(self._eval(args[0])))
            return ok
        if fn == "contains":
            arity(3)
            a = self._as_ideal(self._eval(args[0]))
            b = self._as_ideal(self._eval(args[1]))
            ok, _ = a.contains(b, self._as_int(self._eval(args[2])))
            return ok
        if fn == "structure":
            arity(2)
            ideal = self._as_ideal(self._eval(args[0]))
            return ideal.quotient_structure(self._as_int(self._eval(args[1])))
        raise DslError("unknown function %r" % fn)


def _kind(value):
    if isinstance(value, Poly):
        return "a class"
    if isinstance(value, chern.Bundle):
        return "a bundle"
    if isinstance(value, TowerLevel):
        return "a tower level"
    if isinstance(value, GradedIdeal):
        return "an ideal"
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


def run_script(text, degree_bound=10):
    """Parse and evaluate; returns (events, all_checks_passed)."""
    stmts = parse(text)
    session = Session(degree_bound=degree_bound)
    events = session.run(stmts)
    ok = all(e["ok"] for e in events if e["kind"] == "check")
    return events, ok
