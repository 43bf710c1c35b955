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
from hypothesis import given, settings, strategies as st

from higgspec import poly as K
from higgspec.errors import DegreeCapExceeded
from higgspec.poly import Poly

# Large exponents, well inside one key field; the largest product of two
# random operands (4 variables of exponent 2^12 - 1) has total degree 32,760,
# just under the layout limit MAX_DEGREE = 32,767.
BIG = 2**11


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
    pool = [0, 0, 1, 2, 3, 7] + ([BIG, BIG + 5, 2**12 - 1] if big else [])
    return tuple(rng.choice(pool) for _ in range(nvars))


def rand_terms(rng, nvars, nterms, big=False):
    out = {}
    for _ in range(nterms):
        out[rand_exps(rng, nvars, big)] = rand_coeff(rng)
    return out


def cases(seed, count=60):
    """Seeded operand pairs: nvars 0..4, sizes 0..12 with one-term operands
    common, exponents of BIG and more in a third of the cases, mixed denominators."""
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
        all(v and type(v) is int for v in ints.values())
        and all(len(e) == nvars for e in p.terms)
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
    # degree sums land on a power of two, and on MAX_DEGREE, every low bit of the first field
    for da, db in ((3, 5), (1, 1), (7, 1), (BIG, BIG), (BIG - 1, BIG + 1), (2**14, 2**14 - 1)):
        a = {(da, 0, 0): Fraction(2), (0, 1, 0): Fraction(-1, 3), (0, 0, 0): Fraction(5)}
        b = {(0, 0, db): Fraction(1, 4), (db, 0, 0): Fraction(3), (0, 2, 1): Fraction(-7)}
        assert mul(3, a, b) == ref_mul(a, b)


def test_mul_constants_and_nvars_zero():
    assert mul(0, {(): Fraction(2, 3)}, {(): Fraction(9, 4)}) == {(): Fraction(3, 2)}
    assert mul(0, {(): Fraction(1)}, {}) == {}


def rand_square_operand(rng, nvars, nterms):
    """Distinct exponent vectors with negative and rational coefficients; exponents of BIG and more when nvars <= 2."""
    pool = [0, 1, 2, 3, 7] + ([BIG, BIG + 5] if nvars <= 2 else [])
    out = {}
    while len(out) < nterms:
        out[tuple(rng.choice(pool) for _ in range(nvars))] = Fraction(
            rng.choice([-1, 1]) * rng.randint(1, 10**12), rng.choice([1, 3, rng.randint(1, 10**9)])
        )
    return out


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
def test_square_matches_reference(nvars):
    # a * a, a * (equal dict in a distinct Poly) and a * (c a) take the squaring
    # path (n = 5 unpacks through the generic loop); a * (a + one term) does not
    rng = random.Random(nvars)
    for nterms in (1, 2, 3, 4, 7, 12, 25):
        a = rand_square_operand(rng, nvars, min(nterms, 5**nvars))
        pa, twin = Poly(nvars, a), Poly(nvars, dict(a))
        assert pa is not twin and pa._ints == twin._ints and pa._ints is not twin._ints
        want = ref_mul(a, a)
        c = Fraction(-7, 3)
        for got, scale in ((pa * pa, 1), (pa * twin, 1), (twin * pa, 1), (pa * (twin * c), c), (pa**2, 1)):
            assert got.terms == {e: v * scale for e, v in want.items()}
            assert canonical(got, nvars)
        near = dict(a)
        e0 = next(iter(near))
        near[e0] += 1
        assert (pa * Poly(nvars, near)).terms == ref_mul(a, near)


def test_square_whose_middle_terms_cancel():
    # the truncated series of sqrt(1 + t) squares to 1 + t + O(t^5): the
    # t^2, t^3 and t^4 terms cancel; likewise (1 + x - x^2/2)^2 loses its x^2
    series = {(0,): Fraction(1), (1,): Fraction(1, 2), (2,): Fraction(-1, 8), (3,): Fraction(1, 16),
              (4,): Fraction(-5, 128)}
    got = Poly(1, series) * Poly(1, series)
    assert got.terms == ref_mul(series, series)
    assert set(got.terms) == {(0,), (1,), (5,), (6,), (7,), (8,)}
    for nvars in (2, 3, 5):
        x = (1,) + (0,) * (nvars - 1)
        x2 = (2,) + (0,) * (nvars - 1)
        p = {(0,) * nvars: Fraction(3), x: Fraction(3), x2: Fraction(-3, 2)}
        got = Poly(nvars, p) * Poly(nvars, p)
        assert got.terms == ref_mul(p, p) and x2 not in got.terms
        assert canonical(got, nvars)


def test_layout_limit(monkeypatch):
    # every polynomial formed has total degree <= MAX_DEGREE = 2^15 - 1, checked
    # before a key is packed: past it, x2^65536 would alias x1 in 2 variables
    top = K.MAX_DEGREE
    assert top == 2**15 - 1
    z = Poly.variable(3, 2)  # the lowest field, next to no other
    assert (z ** 2**14 * z ** (2**14 - 1)).terms == {(0, 0, top): 1}
    assert Poly(2, {(0, top): 1}).total_degree() == top
    assert (Poly.variable(1, 0) ** top).terms == {(top,): 1}

    def boom(*args):
        raise AssertionError("a key was packed past the limit")

    with pytest.raises(DegreeCapExceeded, match=f"product of total degree {top + 1} exceeds cap {top}"):
        Poly.variable(1, 0) ** 40000  # at the squaring to x1^32768
    half = z ** 2**14 + 1
    monkeypatch.setattr(K, "_mul_ints", boom)
    with pytest.raises(DegreeCapExceeded, match=f"product of total degree {top + 1} exceeds cap {top}"):
        half * half
    monkeypatch.setattr(K, "_key", boom)
    with pytest.raises(DegreeCapExceeded, match=f"total degree 65536 exceeds cap {top}"):
        Poly(2, {(0, 65536): 1})
    with pytest.raises(DegreeCapExceeded, match=f"total degree {top + 1} exceeds cap {top}"):
        Poly(3, {(0, top, 1): Fraction(1, 2), (1, 0, 0): 1})
    monkeypatch.undo()
    # text and trees keep the parse cap's message, D the largest term degree
    monkeypatch.setattr(Poly, "_make", classmethod(boom))
    with pytest.raises(DegreeCapExceeded, match="total degree 65536 exceeds cap 1024"):
        Poly.from_text("1 * x2^65536 + -1 * x1", 2)
    with pytest.raises(DegreeCapExceeded, match="total degree 40000 exceeds cap 1024"):
        Poly.from_text("1 * x1^40000 + 1 * x1^30000 * x2^5000 + -1 * x1^40000", 2)
    tree = {"nvars": 2, "terms": [{"exps": [1, 0], "num": 1, "den": 1}, {"exps": [0, 65536], "num": -1, "den": 1}]}
    with pytest.raises(DegreeCapExceeded, match="total degree 65536 exceeds cap 1024"):
        Poly.from_tree(tree)
    monkeypatch.undo()
    assert Poly.from_text("1 * x1^2000 + -1 * x1^2000", 1).is_zero()


@st.composite
def spread_terms(draw):
    """(nvars, exponent vector -> nonzero Fraction) in 0..5 variables, small and large exponents mixed."""
    n = draw(st.integers(0, 5))
    exps = st.tuples(*[st.one_of(st.integers(0, 4), st.integers(0, K.MAX_DEGREE // 5))] * n)
    coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool)
    return n, draw(st.dictionaries(exps, coeffs, max_size=8))


@given(spread_terms(), st.data())
@settings(max_examples=120, deadline=None)
def test_keys_against_exponent_tuples(nt, data):
    # the writers' order, the terms view and evaluate, on the stored keys, against
    # the exponent tuples the polynomial was built from
    n, terms = nt
    p = Poly(n, terms)
    assert dict(p.terms) == terms
    tree = p.to_tree()
    got = [tuple(t["exps"]) for t in tree["terms"]]
    assert got == sorted(terms, key=lambda e: (sum(e), e), reverse=True)
    assert {e: Fraction(t["num"], t["den"]) for e, t in zip(got, tree["terms"])} == terms
    point = data.draw(st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=5)] * n))
    assert p.evaluate(point) == ref_eval(terms, point)


def _det2_quadruples(rng, nvars, a, b):
    """(a, b, c, d) term dicts: general, zero operands, equal operands, scaled contents, cancellation."""
    c, d = rand_terms(rng, nvars, rng.choice([1, 2, 5])), rand_terms(rng, nvars, rng.choice([1, 3, 6]))
    k = rand_coeff(rng)
    scaled = {e: v * k for e, v in a.items()}
    inverse = {e: v / k for e, v in b.items()}
    return [
        (a, b, c, d),
        ({}, b, c, d), (a, b, c, {}), (a, {}, {}, d), ({}, {}, {}, {}),
        (a, a, c, c), (c, c, a, b), (a, b, d, d),
        (a, b, b, a), (a, b, scaled, inverse), (scaled, b, a, b),
        (ref_combine((1, a), (1, c)), ref_combine((1, a), (-1, c)), a, a),
    ]


@pytest.mark.parametrize("seed", range(4))
def test_det2_matches_reference(seed):
    # a * b - c * d against the dict reference: equal operands take the
    # squaring path (as one object and as two), contents are rational, and
    # the products may cancel in part or down to zero
    for rng, nvars, a, b in cases(100 + seed, count=40):
        for quad in _det2_quadruples(rng, nvars, a, b):
            want = ref_combine((1, ref_mul(quad[0], quad[1])), (-1, ref_mul(quad[2], quad[3])))
            polys = [Poly(nvars, t) for t in quad]
            shared = {}
            one_object_each = [shared.setdefault(frozenset(t.items()), p) for t, p in zip(quad, polys)]
            snap = [dict(p._ints) for p in polys]
            for ops in (polys, one_object_each):
                got = K.det2(*ops)
                assert got.terms == want, quad
                assert canonical(got, nvars)
                assert got.total_degree() == max(map(sum, want), default=-1)
            assert [p._ints for p in polys] == snap  # no operand mutated


def test_det2_caps_match_the_product(monkeypatch):
    # both products are checked before either forms a term pair, with the messages of Poly.__mul__
    three, four = Poly(2, {(2, 0): 1, (0, 1): 2, (0, 0): 3}), Poly(2, {(1, 0): 1, (0, 1): 1, (1, 1): 1, (0, 0): 5})
    zero = Poly.zero(2)
    want = ref_combine((1, ref_mul(dict(three.terms), dict(four.terms))), (-1, ref_mul(dict(three.terms), dict(three.terms))))
    monkeypatch.setattr(K, "MAX_TERM_PAIRS", 12)
    assert K.det2(three, four, three, three).terms == want

    def message(x, y):
        with pytest.raises(DegreeCapExceeded) as err:
            x * y
        return str(err.value)

    def boom(*args):
        raise AssertionError("a term pair was formed past the cap")

    monkeypatch.setattr(K, "_mul_into", boom)
    for quad, product in [((three, four, four, four), (four, four)), ((four, four, three, four), (four, four)),
                          ((zero, three, four, four), (four, four))]:
        with pytest.raises(DegreeCapExceeded) as err:
            K.det2(*quad)
        assert str(err.value) == message(*product) == "product of 4 x 4 terms exceeds cap 12 term pairs"
    monkeypatch.undo()
    z = Poly.variable(3, 2) ** 2**14
    one = Poly.one(3)
    with pytest.raises(DegreeCapExceeded) as err:
        K.det2(one, one, z, z)
    assert str(err.value) == message(z, z) == f"product of total degree {2**15} exceeds cap {K.MAX_DEGREE}"
    with pytest.raises(ValueError, match="nvars mismatch"):
        K.det2(one, one, Poly.one(2), Poly.one(2))
