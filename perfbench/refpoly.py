"""Reference polynomial arithmetic for the benchmark's planted answers.

A polynomial is a plain dict mapping exponent tuples to nonzero Fraction
coefficients.  Nothing here imports higgspec: the expected answers the
checker compares against are computed with this code alone.
"""

from __future__ import annotations

import math
from fractions import Fraction


def const(n, c):
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def var(n, i):
    return {tuple(1 if j == i else 0 for j in range(n)): Fraction(1)}


def add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def scale(a, c):
    c = Fraction(c)
    return {e: v * c for e, v in a.items()} if c else {}


def sub(a, b):
    return add(a, scale(b, -1))


def mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def power(a, k, n):
    out = const(n, 1)
    for _ in range(k):
        out = mul(out, a)
    return out


def product(polys, n):
    out = const(n, 1)
    for p in polys:
        out = mul(out, p)
    return out


def grlex_desc(p):
    """Terms in descending graded-lex order, the canonical order on output."""
    return sorted(p.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)


def leading_coeff(p):
    return grlex_desc(p)[0][1]


def content(p):
    """Nonnegative gcd of all coefficients over Q (every term is read)."""
    return content_of(p.values())


def content_of(coeffs):
    """Nonnegative gcd over Q of an iterable of Fractions."""
    num = 0
    den = 1
    for c in coeffs:
        num = math.gcd(num, c.numerator)
        den = den * c.denominator // math.gcd(den, c.denominator)
    return Fraction(num, den)


def primitive(p):
    """(c, q) with p = c * q, q of content one and positive leading coefficient."""
    c = content(p)
    if leading_coeff(p) < 0:
        c = -c
    return c, scale(p, 1 / c)


def to_text(p):
    """Canonical text, the format the program's front door parses."""
    if not p:
        return "0"
    parts = []
    for e, c in grlex_desc(p):
        factors = [str(c)]
        for i, k in enumerate(e):
            if k == 1:
                factors.append(f"x{i + 1}")
            elif k > 1:
                factors.append(f"x{i + 1}^{k}")
        parts.append(" * ".join(factors))
    return " + ".join(parts)


def from_tree(tree, n):
    """Read a serialized polynomial tree, insisting on its canonical form.

    Returns None when the tree is not canonical: wrong nvars, unsorted or
    repeated exponents, a zero coefficient, or a fraction not in lowest terms.
    """
    if not isinstance(tree, dict) or tree.get("nvars") != n:
        return None
    out = {}
    prev = None
    for t in tree.get("terms", ()):
        e = tuple(t["exps"])
        num, den = t["num"], t["den"]
        if len(e) != n or not num or den <= 0 or math.gcd(num, den) != 1:
            return None
        key = (sum(e), e)
        if prev is not None and key >= prev:
            return None
        prev = key
        out[e] = Fraction(num, den)
    return out


def to_tree(p, n):
    return {
        "nvars": n,
        "terms": [
            {"exps": list(e), "num": c.numerator, "den": c.denominator}
            for e, c in grlex_desc(p)
        ],
    }


def minor2(S, i, j, k, l):
    return sub(mul(S[i][k], S[j][l]), mul(S[i][l], S[j][k]))


def first_nonzero_minor(S):
    """First nonvanishing 2x2 minor in (i < j, k < l) loop order, or None."""
    n = len(S)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for l in range(k + 1, n):
                    m = minor2(S, i, j, k, l)
                    if m:
                        return (i, j, k, l), m
    return None
