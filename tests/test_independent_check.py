"""verify-so4's membership certificates, checked again by
tests/independent_check.py, an arithmetic that shares no code with chowcalc."""

import ast
import os
import sys

import pytest

import independent_check
from chowcalc import cli, zgraded
from chowcalc.polyring import Poly

CHECKER = os.path.join(os.path.dirname(__file__), "independent_check.py")


def verify_so4_certificates(monkeypatch, capsys, bound):
    """(p, certificate, generators) of each positive verdict that
    `GradedIdeal.member` returns during verify-so4 at this bound."""
    seen = []
    member = zgraded.GradedIdeal.member

    def recording(ideal, p):
        ok, cert = member(ideal, p)
        if ok:
            seen.append((p, cert, ideal.generators))
        return ok, cert

    monkeypatch.setattr(zgraded.GradedIdeal, "member", recording)
    cli.main(["verify-so4", "--degree-bound", str(bound)])
    capsys.readouterr()
    return seen


def printed(p, cert, generators):
    return str(p), [(i, str(a)) for i, a in cert], [str(g) for g in generators]


def test_checker_imports_nothing_from_chowcalc():
    with open(CHECKER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "a relative import"
            imported.add(node.module.split(".")[0])
    assert "chowcalc" not in imported
    assert imported <= set(sys.stdlib_module_names)


def test_parse_reads_the_printed_form():
    x = independent_check.parse("-2*c1^2*f1 + c2 - 3 + f2_1^10*b1")
    assert x == {
        (("c1", 2), ("f1", 1)): -2,
        (("c2", 1),): 1,
        (): -3,
        (("b1", 1), ("f2_1", 10)): 1,
    }
    assert independent_check.parse("0") == {}


@pytest.mark.parametrize("bound", range(9, 15))
def test_every_verify_so4_certificate_checks_independently(monkeypatch, capsys, bound):
    seen = verify_so4_certificates(monkeypatch, capsys, bound)
    assert len(seen) >= 9
    for p, cert, generators in seen:
        assert independent_check.check(*printed(p, cert, generators)), str(p)


def test_one_changed_coefficient_fails_the_check(monkeypatch, capsys):
    seen = verify_so4_certificates(monkeypatch, capsys, 9)
    p, cert, generators = next(s for s in seen if s[1])
    i, a = cert[0]
    key = next(iter(a.terms))
    changed = [(i, a + Poly(a.table, {key: 1}))] + cert[1:]
    assert independent_check.check(*printed(p, cert, generators))
    assert not independent_check.check(*printed(p, changed, generators))
