"""A small script language for bundle and tower computations.

Scripts are sequences of `let NAME = expr;` bindings and
`check expr == expr;` assertions.  Expressions combine ring arithmetic
(+, -, *, ^) with builtin constructors for bundles (bundle, line, dual, det,
wedge2, sym2, tensor, tensor_line, quotient, porteous, c, sub, quot), towers
(grass, schur, gysin, nf, rel) and ideals (ideal, nf, member, contains,
structure); the lattice code, `zgraded`, loads with the first ideal built.

`tokenize` scans a script line by line: it splits the text at `\n` only,
cuts each line at `#`, takes the line's NAMEs (a letter or `_`, then
letters, digits and `_`), INTs (decimal digits) and operators with one
regular expression, and finds each one's column from the end of the one
before; blanks separate them.  It returns (kind, value, line, col) tuples,
which `parse` reads by index into plain syntax-tree records, a statement's
line among their fields.  `Session.eval` dispatches on the node's type.
Evaluation and printing walk a chain of binary operators by a list, not by
recursion, so a flat sum of any length evaluates.

Evaluation is two-pass: a first pass collects the `bundle` and `grass`
declarations to assemble the session's variable table, a second pass
evaluates every statement over that table.  A declaration is the whole
right-hand side of a `let`; a `bundle` or `grass` call anywhere else is an
error, and so is a rank above the degree bound, which the first pass
refuses.  Names bind once per script.  A check is named by its printed
text, `check_text`: the `text` of its transcript event.
"""

import re
import sys

from . import DEFAULT_DEGREE_BOUND, chern
from .grasstower import TowerLevel
from .polyring import ChowError, Poly, PolyError, Record, VarTable, sum_text

_PACKAGE = sys.modules[__package__]  # its GradedIdeal loads zgraded on first use


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

# One line's tokens: an INT, a word, `==` or any other character but a blank.
# A word is a NAME when it starts with a letter or `_`; `\w` also takes
# digits such as `²` that are not decimal, and `tokenize` refuses a word
# that starts with one, as it refuses any other character not an operator.
_WORDS = re.compile(r"\d+|\w+|==|[^ \t\r]").findall
_OPERATORS = frozenset(("==", "-", "+", "*", "^", "(", ")", ",", ";", "="))


def tokenize(text):
    """The (kind, value, line, col) tuples of `text`'s tokens, ending with
    EOF; lines and columns count from 1.  The kind is NAME, INT or the
    operator itself."""
    tokens = []
    append = tokens.append
    for number, line in enumerate(text.split("\n"), 1):
        body = line.partition("#")[0]
        end = 0
        for value in _WORDS(body):
            col = body.find(value, end)
            end = col + len(value)
            if value in _OPERATORS:
                kind = value
            elif value[0].isdecimal():
                kind = "INT"
            elif value[0].isalpha() or value[0] == "_":
                kind = "NAME"
            else:
                raise ParseError("unexpected character %r" % value[0], number, col + 1)
            append((kind, value, number, col + 1))
    append(("EOF", "", number, len(line) + 1))
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
    """Recursive descent over the token tuples of `tokenize`; `pos` is the
    index of the next token."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def expect(self, kind):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            self.fail(repr(kind))
        self.pos += 1
        return tok[1]

    def fail(self, expected):
        kind, value, line, col = self.tokens[self.pos]
        raise ParseError("expected %s, found %r" % (expected, value or kind), line, col)

    def script(self):
        tokens = self.tokens
        stmts = []
        while tokens[self.pos][0] != "EOF":
            stmts.append(self.statement())
        return stmts

    def statement(self):
        kind, value, line, col = self.tokens[self.pos]
        if kind != "NAME" or value not in ("let", "check"):
            raise ParseError("expected 'let' or 'check'", line, col)
        self.pos += 1
        if value == "let":
            name = self.expect("NAME")
            self.expect("=")
            expr = self.expr()
            self.expect(";")
            return Let(name, expr, line)
        lhs = self.expr()
        self.expect("==")
        rhs = self.expr()
        self.expect(";")
        return CheckStmt(lhs, rhs, line)

    def expr(self):
        tokens = self.tokens
        if tokens[self.pos][0] == "-":
            self.pos += 1
            node = Neg(self.term())
        else:
            node = self.term()
        op = tokens[self.pos][0]
        while op == "+" or op == "-":
            self.pos += 1
            node = BinOp(op, node, self.term())
            op = tokens[self.pos][0]
        return node

    def term(self):
        tokens = self.tokens
        node = self.factor()
        while tokens[self.pos][0] == "*":
            self.pos += 1
            node = BinOp("*", node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.tokens[self.pos][0] == "^":
            self.pos += 1
            node = Pow(node, self.integer())
        return node

    def atom(self):
        kind, value, _, _ = self.tokens[self.pos]
        if kind == "INT":
            return IntLit(self.integer())
        if kind == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        if kind == "NAME":
            self.pos += 1
            tokens = self.tokens
            if tokens[self.pos][0] != "(":
                return Ref(value)
            self.pos += 1
            args = []
            if tokens[self.pos][0] != ")":
                args.append(self.expr())
                while tokens[self.pos][0] == ",":
                    self.pos += 1
                    args.append(self.expr())
            self.expect(")")
            return Call(value, tuple(args))
        self.fail("an expression")

    def integer(self):
        """The value of the INT token that must come next."""
        _, _, line, col = self.tokens[self.pos]
        value = self.expect("INT")
        try:
            return int(value)
        except ValueError:  # past the interpreter's int/str digit limit
            raise ParseError("integer literal too long", line, col) from None


def parse(text):
    """Parse a script into a list of statements.

    An expression nested past the interpreter's recursion limit is a
    ParseError at the token the parser had reached.
    """
    parser = _Parser(tokenize(text))
    try:
        return parser.script()
    except RecursionError:
        _, _, line, col = parser.tokens[parser.pos]
        raise ParseError("expression nested too deeply", line, col) from None


def check_text(stmt):
    """The `text` of a check's transcript event: its two sides printed by
    `pretty`.  It names the check, as `eval` prints it."""
    return "%s == %s" % (pretty(stmt.lhs), pretty(stmt.rhs))


def _chain(node):
    """The leftmost operand of the BinOp `node` and the BinOps on its left
    spine, innermost first.  `a - b + c` parses as ((a - b) + c), so a chain
    of n operators is n deep; printing and evaluation walk it by this list,
    not by recursion, so its length costs no stack."""
    spine = []
    while isinstance(node, BinOp):
        spine.append(node)
        node = node.left
    return node, reversed(spine)


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
        # A parenthesis added around the text so far always opens at its
        # start, so the openings are counted and prepended once.
        first, chain = _chain(node)
        left, prec = _pp(first)
        parts = [left]
        opened = 0
        for node in chain:
            lp = _PREC[node.op]
            if prec < lp:
                opened += 1
                parts.append(")")
            right, rprec = _pp(node.right)
            # the grammar is left-associative and a bare '-' cannot start a
            # right operand, so equal precedence on the right needs parens too
            if rprec <= lp:
                right = "(%s)" % right
            parts.append(" %s %s" % (node.op, right))
            prec = lp
        return "(" * opened + "".join(parts), prec
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


def _is_ideal(value):
    zgraded = sys.modules.get(__package__ + ".zgraded")
    return zgraded is not None and isinstance(value, zgraded.GradedIdeal)


def _member(p, I):
    """Membership, true only when the certificate multiplies back to p."""
    ok, cert = I.member(p)
    return ok and I.certificate_product(cert) == p


# argument kind -> (accepted type(s), the noun an error names it by)
_KINDS = {
    "class": (Poly, "a class"),
    "bundle": (chern.Bundle, "a bundle"),
    "tower": (TowerLevel, "a tower level"),
    "ideal": ((), "an ideal"),  # a GradedIdeal, here and below: `_is_ideal`
    "reducer": (TowerLevel, "a tower level or an ideal"),
    "int": (int, "an integer"),
}

# builtin -> (argument kinds, function); `_REPEATED` names the kind of any
# further arguments.  `bundle` and `grass` declare variables and are read
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
    "schur": (("tower",), lambda G, *lam: G.schur(list(lam))),
    "gysin": (("tower", "class"), lambda G, p: G.gysin(p)),
    "nf": (("reducer", "class"), lambda G, p: G.normal_form(p)),
    "rel": (("tower", "int"), _relation),
    "ideal": (("class",), lambda *gens: _PACKAGE.GradedIdeal(list(gens))),
    "member": (("class", "ideal"), _member),
    "contains": (("ideal", "ideal", "int"), lambda I, J, d: I.contains(J, d)[0]),
    "structure": (("ideal", "int"), lambda I, d: I.quotient_structure(d)),
}
_REPEATED = {"schur": "int", "ideal": "class"}


def _arg_kinds(fn, n):
    """The kind of each of the n arguments of builtin `fn`."""
    fixed = _BUILTINS[fn][0]
    if n == len(fixed):
        return fixed
    many = _REPEATED.get(fn)
    if n < len(fixed) or many is None:
        at_least = "at least " if many else ""
        raise DslError("%s takes %s%d argument(s)" % (fn, at_least, len(fixed)))
    return fixed + (many,) * (n - len(fixed))


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
        # one message at every bound below 1, before a declaration would
        # name the class it cannot hold
        if self.degree_bound < 1:
            raise DslError("degree bound must be positive")
        degrees = {}
        for s in stmts:
            if not isinstance(s, Let):
                continue
            try:
                decl = _declaration(s.expr, self.degree_bound)
                for degree, name in enumerate(decl[0] if decl else (), start=1):
                    if name in degrees:
                        raise DslError("variable %r declared twice" % name)
                    degrees[name] = degree
            except DslError as exc:
                raise DslError(str(exc), s.line, 1) from exc
        try:
            self.table = VarTable(list(degrees.items()), self.degree_bound)
        except PolyError as exc:
            raise DslError(str(exc)) from exc

    def execute(self, s):
        """Pass 2, one statement: evaluate it over the table; returns its
        transcript event.  Every error is raised as a DslError that names
        the statement's line."""
        return _at_line(s, self._event)

    def bind(self, s):
        """`execute` for a `let`, returning its value unprinted."""
        return _at_line(s, self._bind)

    def _bind(self, s):
        if s.name in self.env or s.name in self.table.index:
            raise DslError("name %r bound twice" % s.name)
        decl = _declaration(s.expr, self.degree_bound)
        value = self._declare(*decl) if decl else self.eval(s.expr)
        self.env[s.name] = value
        return value

    def _event(self, s):
        if isinstance(s, Let):
            return {"kind": "let", "name": s.name, "value": _show(self._bind(s))}
        lhs = self.eval(s.lhs)
        rhs = self.eval(s.rhs)
        # equal sides of one type print alike: print them once
        same = type(lhs) is type(rhs) and lhs == rhs
        lhs_text = _show(lhs)
        return {
            "kind": "check",
            "text": check_text(s),
            "ok": same or _loose_eq(lhs, rhs),
            "lhs": lhs_text,
            "rhs": lhs_text if same else _show(rhs),
        }

    def eval(self, node):
        t = type(node)
        if t is Call:
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
        if t is Ref:
            if node.name in self.table.index:
                return self.table.var(node.name)
            if node.name in self.env:
                return self.env[node.name]
            raise DslError("unknown name %r" % node.name)
        if t is BinOp:
            first, chain = _chain(node)
            value = self._as("class", self.eval(first))
            for node in chain:
                right = self._as("class", self.eval(node.right))
                if node.op == "+":
                    value = value + right
                elif node.op == "-":
                    value = value - right
                else:
                    value = value * right
            return value
        if t is IntLit:
            return self.table.const(node.value)
        if t is Pow:
            return self._as("class", self.eval(node.base)) ** node.exponent
        if t is Neg:
            return -self._as("class", self.eval(node.operand))
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
        if isinstance(value, _KINDS[kind][0]):
            return value
        if kind == "class" and isinstance(value, int):
            return self.table.const(value)
        if kind == "int" and isinstance(value, Poly) and value.degree() <= 0:
            return value.constant()
        if kind in ("ideal", "reducer") and _is_ideal(value):
            return value
        raise DslError("expected %s, found %s" % (_KINDS[kind][1], _kind(value)))


def _at_line(s, work):
    """work(s), any error raised as a DslError that names s's line."""
    try:
        return work(s)
    except (ChowError, RecursionError) as exc:
        raise DslError(str(exc), s.line, 1) from exc


def _kind(value):
    for kind, (cls, noun) in _KINDS.items():
        if kind != "int" and isinstance(value, cls):
            return noun
    return "an ideal" if _is_ideal(value) else type(value).__name__


def _show(value):
    if isinstance(value, chern.Bundle):
        # c_i is homogeneous of degree i: c_rank, ..., c_0 descend
        c = sum_text(value.table, reversed(value.chern))
        return "bundle(rank %d, c = %s)" % (value.rank, c)
    if isinstance(value, TowerLevel):
        return "G(%d, rank-%d bundle) with %s" % (
            value.k,
            value.n,
            ", ".join(value.subvars),
        )
    if _is_ideal(value):
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
    return a == b


def run_script(text, degree_bound=DEFAULT_DEGREE_BOUND):
    """Parse and evaluate; returns (events, all_checks_passed)."""
    stmts = parse(text)
    session = Session(degree_bound=degree_bound)
    events = session.run(stmts)
    ok = all(e["ok"] for e in events if e["kind"] == "check")
    return events, ok
