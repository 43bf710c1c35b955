"""Term-dictionary kernels.

All functions operate on plain dicts mapping exponent tuples to nonzero
Fraction coefficients and never mutate their arguments.
"""

from fractions import Fraction
from math import lcm
from operator import add


def add_terms(a, b):
    out = dict(a)
    for e, c in b.items():
        prev = out.get(e)
        if prev is None:
            out[e] = c
        else:
            s = prev + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def sub_terms(a, b):
    out = dict(a)
    for e, c in b.items():
        prev = out.get(e)
        if prev is None:
            out[e] = -c
        else:
            s = prev - c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def scale_terms(a, c):
    if not c:
        return {}
    return {e: k * c for e, k in a.items()}


def _packed(t, d, w):
    """(key, numerator) pairs: exponents packed w bits per variable, coefficients times d."""
    out = []
    for e, c in t.items():
        k = 0
        for x in e:
            k = (k << w) | x
        out.append((k, c.numerator * (d // c.denominator)))
    return out


def mul_terms(a, b):
    """Product of two term dicts.

    When the shorter operand has at most two terms, each term pair is formed
    directly: packing both operands would cost more than it saves.  Otherwise
    each operand is cleared of denominators and every exponent vector is
    packed into one int, w bits per variable, with w wide enough for any
    exponent of the product; a monomial product is then one int add, and the
    inner loop touches ints only (Monagan & Pearce, CASC 2007).  Keys are
    unpacked and coefficients turned back into Fractions once, at the end.
    """
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= 2:
        out = {}
        for ea, ca in a.items():
            p, q = ca.numerator, ca.denominator
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                c = Fraction(p * cb.numerator, q * cb.denominator)
                prev = out.get(e)
                if prev is not None:
                    c += prev
                    if not c:
                        del out[e]
                        continue
                out[e] = c
        return out
    da = lcm(*[c.denominator for c in a.values()])
    db = lcm(*[c.denominator for c in b.values()])
    w = (max(map(sum, a)) + max(map(sum, b))).bit_length()
    acc = {}
    get = acc.get
    pb = _packed(b, db, w)
    for ka, ca in _packed(a, da, w):
        for kb, cb in pb:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    d = da * db
    mask = (1 << w) - 1
    shifts = range(w * (len(next(iter(a))) - 1), -1, -w)
    return {
        tuple([(k >> s) & mask for s in shifts]): Fraction(v, d) if d > 1 else Fraction(v)
        for k, v in acc.items()
        if v
    }


def submul_terms(r, c, e, b):
    """r - c * x^e * b, the inner step of division and remainder loops."""
    out = dict(r)
    for eb, cb in b.items():
        k = tuple(x + y for x, y in zip(e, eb))
        prev = out.get(k)
        if prev is None:
            out[k] = -c * cb
        else:
            s = prev - c * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def eval_terms(a, point):
    total = Fraction(0)
    for e, c in a.items():
        v = c
        for x, k in zip(point, e):
            if k:
                v *= x**k
        total += v
    return total
