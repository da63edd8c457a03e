"""An arithmetic of its own for membership certificates.

A certificate says that a class p lies in the ideal (g_0, ..., g_n): it
lists pairs (i, a_i) with sum a_i * g_i == p.  `check` decides that equation
from the printed form of each class alone, as `str(Poly)` writes it, such as
"-2*c1^2*f1 + c2 - 3".  A class is a dict from monomial to integer
coefficient, and a monomial is a sorted tuple of (variable name, exponent)
pairs.  Products are formed in full, with no packed keys and no truncation at
a degree bound, and this module imports nothing from chowcalc: a fault in the
library's own arithmetic cannot vouch for itself here.
"""


def parse(text):
    """{monomial: coefficient} of a class printed as `str(Poly)` prints it:
    terms joined by " + " and " - ", each an optional magnitude and the
    factors name or name^e, joined by "*"."""
    poly = {}
    if text.strip() == "0":
        return poly
    for term in text.strip().replace(" - ", " + -").split(" + "):
        coeff = -1 if term.startswith("-") else 1
        mono = {}
        for factor in term.lstrip("-").split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            name, _, e = factor.partition("^")
            if not name or not (e or "1").isdigit():
                raise ValueError("cannot read the factor %r of %r" % (factor, text))
            mono[name] = mono.get(name, 0) + int(e or 1)
        key = tuple(sorted(mono.items()))
        poly[key] = poly.get(key, 0) + coeff
    return {m: c for m, c in poly.items() if c}


def multiply(a, b):
    """The product of two parsed classes."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = dict(ma)
            for name, e in mb:
                mono[name] = mono.get(name, 0) + e
            key = tuple(sorted(mono.items()))
            out[key] = out.get(key, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def check(target, certificate, generators):
    """True when sum a_i * g_i over the pairs (i, a_i) of the certificate
    is the target, every class (the cofactors a_i, the generators g_i and
    the target) given as printed text."""
    total = {}
    for i, cofactor in certificate:
        for m, c in multiply(parse(cofactor), parse(generators[i])).items():
            total[m] = total.get(m, 0) + c
    return {m: c for m, c in total.items() if c} == parse(target)
