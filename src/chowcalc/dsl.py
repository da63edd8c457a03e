"""A small script language for bundle and tower computations.

Scripts are sequences of `let NAME = expr;` bindings and
`check expr == expr;` assertions.  Expressions combine ring arithmetic
(+, -, *, ^) with builtin constructors for bundles (bundle, line, dual, det,
wedge2, sym2, tensor, tensor_line, quotient, porteous, c, sub, quot), towers
(grass, schur, gysin, nf, rel) and ideals (ideal, nf, member, contains, structure).

Evaluation is two-pass: a first pass collects the `bundle` and `grass`
declarations to assemble the session's variable table, a second pass
evaluates every statement over that table.  A declaration is the whole
right-hand side of a `let`; a `bundle` or `grass` call anywhere else is an
error.  Names bind once per script.
"""

from __future__ import annotations

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
                col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
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


_set = object.__setattr__  # fills in the fields of an immutable node


class _Node(Record):
    """A syntax-tree node: immutable, and hashed by its class and fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a syntax-tree node" % name)

    def __hash__(self):
        return hash((self.__class__, self._values()))


class Ref(_Node):
    __slots__ = ("name",)

    def __init__(self, name):
        _set(self, "name", name)


class IntLit(_Node):
    __slots__ = ("value",)

    def __init__(self, value):
        _set(self, "value", value)


class Neg(_Node):
    __slots__ = ("operand",)

    def __init__(self, operand):
        _set(self, "operand", operand)


class BinOp(_Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        _set(self, "op", op)  # "+", "-", "*"
        _set(self, "left", left)
        _set(self, "right", right)


class Pow(_Node):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        _set(self, "base", base)
        _set(self, "exponent", exponent)


class Call(_Node):
    __slots__ = ("fn", "args")

    def __init__(self, fn, args):
        _set(self, "fn", fn)
        _set(self, "args", args)


class Let(_Node):
    __slots__ = ("name", "expr", "line")

    def __init__(self, name, expr, line=0):
        _set(self, "name", name)
        _set(self, "expr", expr)
        _set(self, "line", line)

    def _values(self):
        return (self.name, self.expr)  # equality leaves the line out


class CheckStmt(_Node):
    __slots__ = ("lhs", "rhs", "line")

    def __init__(self, lhs, rhs, line=0):
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "line", line)

    def _values(self):
        return (self.lhs, self.rhs)  # equality leaves the line out


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
        raise ParseError(
            "expected an expression, found %r" % (tok.value or tok.kind),
            tok.line,
            tok.col,
        )


def _int(tok):
    try:
        return int(tok.value)
    except ValueError:  # past the interpreter's int/str digit limit
        raise ParseError("integer literal too long", tok.line, tok.col) from None


def parse(text):
    """Parse a script into a list of statements."""
    try:
        return _Parser(tokenize(text)).script()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None


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


# -- evaluation --------------------------------------------------------------


_DECLARING = ("bundle", "grass")


def _declaration(node):
    """(names, bundle expression) of a `bundle` or `grass` call, else None.

    `bundle(c, r)` declares c1..cr and has no bundle expression;
    `grass(E, k, b)` declares b1..bk of the sub-bundle of E.
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
                decl = _declaration(s.expr) if isinstance(s, Let) else None
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
            decl = _declaration(s.expr)
            value = self._declare(*decl) if decl else self.eval(s.expr)
            self.env[s.name] = value
            return {"kind": "let", "name": s.name, "value": _show(value)}
        lhs = self.eval(s.lhs)
        rhs = self.eval(s.rhs)
        return {
            "kind": "check",
            "text": "%s == %s" % (pretty(s.lhs), pretty(s.rhs)),
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
