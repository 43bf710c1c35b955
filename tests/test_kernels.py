"""Poly arithmetic against a naive dict-of-Fraction reference.

The reference below shares no code with ``higgspec.poly``: it sums every
term (pair) into a zero-initialised dict and drops zeros at the end.  The
operands go through ``Poly`` (content times primitive integer part) and the
results are read back through the ``terms`` view, so every kernel behind
``+``, ``-``, scalar and polynomial ``*`` and ``evaluate`` is compared, and
every result is checked to be in canonical form.
"""

import math
import random
from collections import defaultdict
from fractions import Fraction

import pytest

from higgspec import poly as K
from higgspec.poly import Poly

BIG = 2**20


def ref_combine(*scaled):
    out = defaultdict(Fraction)
    for k, t in scaled:
        for e, c in t.items():
            out[e] += k * c
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b):
    out = defaultdict(Fraction)
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[tuple(x + y for x, y in zip(ea, eb))] += ca * cb
    return {e: c for e, c in out.items() if c}


def ref_eval(a, point):
    total = Fraction(0)
    for e, c in a.items():
        for x, k in zip(point, e):
            c *= x**k
        total += c
    return total


def rand_coeff(rng):
    num = rng.choice([rng.randint(-9, 9) or 1, rng.randint(-(10**30), 10**30) or 1])
    den = rng.choice([1, 1, rng.randint(1, 12), rng.randint(1, 10**20)])
    return Fraction(num, den)


def rand_exps(rng, nvars, big):
    pool = [0, 0, 1, 2, 3, 7] + ([BIG, BIG + 5, 2**40] if big else [])
    return tuple(rng.choice(pool) for _ in range(nvars))


def rand_terms(rng, nvars, nterms, big=False):
    out = {}
    for _ in range(nterms):
        out[rand_exps(rng, nvars, big)] = rand_coeff(rng)
    return out


def cases(seed, count=60):
    """Seeded operand pairs: nvars 0..4, sizes 0..12 with one-term operands
    common, exponents >= 2^20 in a third of the cases, mixed denominators."""
    rng = random.Random(seed)
    for i in range(count):
        nvars = i % 5
        big = i % 3 == 0
        na = rng.choice([0, 1, 1, 2, 3, 5, 12])
        nb = rng.choice([1, 1, 2, 4, 12])
        yield rng, nvars, rand_terms(rng, nvars, na, big), rand_terms(rng, nvars, nb, big)


def canonical(p, nvars):
    """Primitive int part with no zero, positive content in lowest terms, Fraction views."""
    ints, num, den = p._ints, p._num, p._den
    if not ints:
        return (num, den) == (1, 1)
    return (
        all(v and type(v) is int and len(e) == nvars for e, v in ints.items())
        and math.gcd(*ints.values()) == 1
        and num > 0 and den > 0 and math.gcd(num, den) == 1
        and all(type(c) is Fraction for c in p.terms.values())
    )


@pytest.mark.parametrize("seed", range(8))
def test_kernels_match_reference(seed):
    for rng, nvars, a, b in cases(seed):
        snap_a, snap_b = dict(a), dict(b)
        c = rand_coeff(rng) if rng.random() < 0.8 else Fraction(0)
        point = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(nvars))
        pa, pb = Poly(nvars, a), Poly(nvars, b)
        results = {
            "add": (pa + pb, ref_combine((1, a), (1, b))),
            "sub": (pa - pb, ref_combine((1, a), (-1, b))),
            "scale": (pa * c, ref_combine((c, a))),
            "mul": (pa * pb, ref_mul(a, b)),
            "mul_swapped": (pb * pa, ref_mul(a, b)),
        }
        for name, (got, want) in results.items():
            assert got.terms == want, name
            assert canonical(got, nvars), name
        if not any(k >= BIG for ex in a for k in ex):
            assert pa.evaluate(point) == ref_eval(a, point)
        if a:
            w = max(k for ex in a for k in (0, *ex)).bit_length() + 1
            assert K._unpack(K._pack(pa._ints, w), nvars, w) == pa._ints
        assert a == snap_a and b == snap_b


def mul(nvars, a, b):
    return (Poly(nvars, a) * Poly(nvars, b)).terms


def test_mul_cancellation():
    x, y = (1, 0), (0, 1)
    plus = {x: Fraction(1), y: Fraction(1)}
    minus = {x: Fraction(1), y: Fraction(-1)}
    assert mul(2, plus, minus) == {(2, 0): 1, (0, 2): -1}
    # c (1 + t^s + ... + t^((k-1)s)) * (1 - t^s) / c = 1 - t^(ks): every middle term cancels
    for k in range(1, 13):
        for s in (1, 3, BIG):
            for c in (Fraction(1), Fraction(-2, 9)):
                geo = {(0, i * s, 0): c for i in range(k)}
                step = {(0, 0, 0): 1 / c, (0, s, 0): -1 / c}
                assert mul(3, geo, step) == {(0, 0, 0): 1, (0, k * s, 0): -1}
    # (P + Q)(P - Q) = P^2 - Q^2 with every cross term cancelling, on operands
    # long enough for the packed path
    rng = random.Random(7)
    for nvars in (1, 2, 4):
        for _ in range(20):
            big = rng.random() < 0.5
            P, Q = rand_terms(rng, nvars, rng.randint(1, 6), big), rand_terms(rng, nvars, 3, big)
            Q = {e: c for e, c in Q.items() if e not in P}
            p, q = Poly(nvars, P), Poly(nvars, Q)
            got = (p + q) * (p - q)
            assert got.terms == ref_combine((1, ref_mul(P, P)), (-1, ref_mul(Q, Q)))
            assert canonical(got, nvars)
    big = {(k * BIG, 1): Fraction(1, 2 + k) for k in range(4)}
    for k in (1, 2):
        f = ref_mul(big, {(k, 0): Fraction(1, 7)})
        assert (Poly(2, f) - Poly(2, big) * Poly(2, {(k, 0): Fraction(1, 7)})).is_zero()
    assert mul(2, big, {}) == {} == mul(2, {}, {})


def test_mul_field_width_boundary():
    # degree sums land on a power of two, and single exponents past 2^20
    for da, db in ((3, 5), (1, 1), (7, 1), (BIG, BIG), (BIG - 1, BIG + 1)):
        a = {(da, 0, 0): Fraction(2), (0, 1, 0): Fraction(-1, 3), (0, 0, 0): Fraction(5)}
        b = {(0, 0, db): Fraction(1, 4), (db, 0, 0): Fraction(3), (0, 2, 1): Fraction(-7)}
        assert mul(3, a, b) == ref_mul(a, b)


def test_mul_constants_and_nvars_zero():
    assert mul(0, {(): Fraction(2, 3)}, {(): Fraction(9, 4)}) == {(): Fraction(3, 2)}
    assert mul(0, {(): Fraction(1)}, {}) == {}
