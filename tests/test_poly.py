import json
import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from higgspec import poly
from higgspec._core_py import _packed
from higgspec.errors import DegreeCapExceeded, DivisionFailure, ZeroPolynomial
from higgspec.poly import (
    MAX_PARSED_DEGREE,
    Poly,
    exact_div,
    frac_gcd,
    is_squarefree,
    poly_gcd,
    poly_gcd_many,
    squarefree_decompose,
)

P = Poly.from_text


# -- strategies ------------------------------------------------------------


@st.composite
def polys(draw, nvars=None, max_deg=3, max_terms=4):
    n = nvars if nvars is not None else draw(st.integers(1, 3))
    nterms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(nterms):
        exps = tuple(draw(st.integers(0, max_deg)) for _ in range(n))
        num = draw(st.integers(-6, 6))
        den = draw(st.integers(1, 4))
        terms[exps] = terms.get(exps, Fraction(0)) + Fraction(num, den)
    return Poly(n, terms)


@st.composite
def poly_triples(draw):
    n = draw(st.integers(1, 3))
    return tuple(draw(polys(nvars=n)) for _ in range(3))


# -- construction and canonical form ----------------------------------------


def test_zero_coefficients_dropped():
    p = Poly(2, {(1, 0): 3, (0, 1): 0})
    assert list(p.terms) == [(1, 0)]


def test_structural_equality_is_mathematical():
    a = P("1 * x1 + 2 * x2", 2)
    b = P("2 * x2 + 1 * x1", 2)
    assert a == b and hash(a) == hash(b)


def test_float_rejected():
    with pytest.raises(TypeError):
        Poly(1, {(1,): 0.5})


def test_nvars_mismatch_rejected():
    with pytest.raises(ValueError):
        Poly(2, {(1,): 1})
    with pytest.raises(ValueError):
        P("1 * x1", 1) + P("1 * x1", 2)


@given(poly_triples())
@settings(max_examples=80, deadline=None)
def test_ring_axioms(abc):
    a, b, c = abc
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a - a == Poly.zero(a.nvars)


@given(polys())
@settings(max_examples=80, deadline=None)
def test_canonical_idempotence(p):
    assert Poly(p.nvars, p.terms) == p


# -- arithmetic examples ------------------------------------------------------


def test_difference_of_squares():
    assert P("1 * x1 + 1", 1) * P("1 * x1 + -1", 1) == P("1 * x1^2 + -1", 1)


def test_exact_div_monomial():
    assert exact_div(P("1 * x1^2 * x2", 2), P("1 * x1", 2)) == P("1 * x1 * x2", 2)


def test_exact_div_failure_carries_remainder():
    with pytest.raises(DivisionFailure) as err:
        exact_div(P("1 * x1^2 + 1", 1), P("1 * x1", 1))
    assert err.value.remainder == Poly.one(1)


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_div(P("1 * x1", 1), Poly.zero(1))


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_exact_div_inverts_multiplication(a, b):
    if a.nvars != b.nvars or b.is_zero():
        return
    assert exact_div(a * b, b) == a


# -- gcd -----------------------------------------------------------------------


def test_gcd_univariate():
    # Euclid over Q[x]: x^2-1 and (x-1)^2 share exactly x-1
    assert poly_gcd(P("1 * x1^2 + -1", 1), P("1 * x1^2 + -2 * x1 + 1", 1)) == P("1 * x1 + -1", 1)


def test_gcd_includes_content():
    # integer content gcd(6, 4) = 2 times the primitive gcd x
    g = poly_gcd(P("6 * x1", 1), P("4 * x1^2", 1))
    assert g == P("2 * x1", 1)
    assert exact_div(P("6 * x1", 1), g) == Poly.constant(1, 3)
    assert exact_div(P("4 * x1^2", 1), g) == P("2 * x1", 1)


def test_gcd_of_zeros():
    assert poly_gcd(Poly.zero(2), Poly.zero(2)) == Poly.zero(2)
    assert poly_gcd(Poly.zero(1), P("-2 * x1", 1)) == P("2 * x1", 1)


def test_gcd_disjoint_variables():
    assert poly_gcd(P("2 * x1", 2), P("4 * x2", 2)) == Poly.constant(2, 2)


def test_gcd_multivariate():
    a = P("1 * x1^2 + -1 * x2^2", 2)
    b = P("1 * x1^2 + 2 * x1 * x2 + 1 * x2^2", 2)
    assert poly_gcd(a, b) == P("1 * x1 + 1 * x2", 2)


@given(poly_triples())
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both(gab):
    g, a, b = gab
    if g.is_zero() or a.is_zero() or b.is_zero():
        return
    x, y = g * a, g * b
    d = poly_gcd(x, y)
    assert d.leading_coefficient() > 0
    exact_div(x, d)
    exact_div(y, d)
    exact_div(d, g)  # d contains the constructed common factor


# -- heuristic gcd and its PRS fallback -----------------------------------------


@contextmanager
def prs_only():
    """GCDHEU gets no evaluation point, so every gcd is the primitive PRS's."""
    with mock.patch.object(poly, "_HEU_ATTEMPTS", 0):
        yield


def _count_prs(monkeypatch):
    calls = []
    prs = poly._prs_gcd

    def counted(a, b, common):
        calls.append((a, b))
        return prs(a, b, common)

    monkeypatch.setattr(poly, "_prs_gcd", counted)
    return calls


GCD_EXAMPLES = [
    # (a, b, gcd) with contents, signs and variables absent from one side
    ("-6 * x1^2 + 6", "4 * x1^2 + -8 * x1 + 4", 1, "2 * x1 + -2"),
    ("1/2 * x1^2 + -1/2 * x2^2", "-3 * x1^2 + -6 * x1 * x2 + -3 * x2^2", 2, "1/2 * x1 + 1/2 * x2"),
    ("1 * x1^2 * x3 + -1 * x2^2 * x3", "1 * x1 * x3 + 1 * x2 * x3 + 2 * x1 + 2 * x2", 3, "1 * x1 + 1 * x2"),
    ("2 * x1^3 * x2 + 4 * x1 * x2", "3 * x1^2 + 6", 2, "1 * x1^2 + 2"),
    ("1 * x1^4 + 1", "1 * x1^2 + 1", 1, "1"),
]


@pytest.mark.parametrize("a, b, n, want", GCD_EXAMPLES)
def test_gcd_examples_without_fallback(a, b, n, want, monkeypatch):
    calls = _count_prs(monkeypatch)
    assert poly_gcd(P(a, n), P(b, n)) == P(want, n)
    assert calls == []


@pytest.mark.parametrize("knob, value", [("_HEU_ATTEMPTS", 0), ("_HEU_MAX_BITS", 1)])
@pytest.mark.parametrize("a, b, n, want", GCD_EXAMPLES)
def test_gcd_falls_back_to_prs(a, b, n, want, knob, value, monkeypatch):
    # no evaluation point, or every evaluation image too large: GCDHEU gives up
    calls = _count_prs(monkeypatch)
    monkeypatch.setattr(poly, knob, value)
    assert poly_gcd(P(a, n), P(b, n)) == P(want, n)
    assert calls


def test_gcd_unlucky_point_then_fallback(monkeypatch):
    # (x+8)(x+4) and (x+3)(x+4): at the first point, xi = 2*12 + 3 = 27, the
    # images 35*31 and 30*31 share 5*31, one factor 5 too many, and the
    # interpolated candidate 6*x1 - 7 divides neither.  The next point
    # succeeds; with one point allowed, the PRS answers instead.
    a = P("1 * x1^2 + 12 * x1 + 32", 1)
    b = P("1 * x1^2 + 7 * x1 + 12", 1)
    calls = _count_prs(monkeypatch)
    assert poly_gcd(a, b) == P("1 * x1 + 4", 1)
    assert calls == []
    monkeypatch.setattr(poly, "_HEU_ATTEMPTS", 1)
    assert poly_gcd(a, b) == P("1 * x1 + 4", 1)
    assert len(calls) == 1


def _divides_in_z(b, a):
    try:
        q = exact_div(a, b)
    except DivisionFailure:
        return False
    return all(c.denominator == 1 for c in q.terms.values())


def test_gcd_trial_division_matches_exact_division():
    # the trial division on packed ints that accepts a GCDHEU candidate,
    # against exact_div over Q with an integral quotient
    rng = random.Random(11)

    def rand_poly(n, deg):
        return Poly(n, {tuple(rng.randint(0, deg) for _ in range(n)): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))})

    # a quotient term would run past deg_x1 a - deg_x1 b: not a divisor
    cases = [(P("3 * x1^2 * x2^3 + -3 * x2", 2), P("-1 * x1 + 1 * x2", 2))]
    while len(cases) < 3000:
        n = rng.randint(1, 3)
        a, b = rand_poly(n, rng.randint(1, 5)), rand_poly(n, rng.randint(1, 3))
        if rng.random() < 0.5:
            a = a * b
        if a and b:
            cases.append((a, b))
    for a, b in cases:
        w = max(map(max, (*a.terms, *b.terms))).bit_length() + 1
        guard = sum(1 << (w * i + w - 1) for i in range(a.nvars))
        pa, pb = (dict(_packed(p.terms, 1, w)) for p in (a, b))
        assert poly._heu_divides(pa, pb, a.nvars, w, guard) == _divides_in_z(b, a), (a, b)


@st.composite
def gcd_triples(draw):
    n = draw(st.integers(1, 3))
    deg = 2 if n == 3 else 3
    return tuple(draw(polys(nvars=n, max_deg=deg, max_terms=3)) for _ in range(3))


@given(gcd_triples())
@settings(max_examples=80, deadline=None)
def test_gcd_properties_and_prs_normalisation(gab):
    g, a, b = gab
    x, y = g * a, g * b * b
    if x.is_zero() or y.is_zero():
        return
    d = poly_gcd(x, y)
    # divides both, coprime cofactors
    cx, cy = exact_div(x, d), exact_div(y, d)
    assert poly_gcd(cx, cy).is_constant()
    # normalisation: rational content of both, positive grlex-leading coefficient
    assert d.content() == frac_gcd(x.content(), y.content())
    assert d.leading_coefficient() > 0
    with prs_only():
        assert poly_gcd(x, y) == d


def test_frac_gcd():
    assert frac_gcd(Fraction(3, 2), Fraction(2)) == Fraction(1, 2)
    assert frac_gcd(Fraction(0), Fraction(-4)) == 4


# -- squarefree decomposition -----------------------------------------------------


def test_squarefree_monomial_classes():
    d = squarefree_decompose(P("1 * x1^2 * x2^3", 2))
    assert d.content == 1
    assert d.factors == ((P("1 * x1", 2), 2), (P("1 * x2", 2), 3))


def test_squarefree_already_squarefree():
    d = squarefree_decompose(P("1 * x1^2 + -1", 1))
    assert d.content == 1
    assert d.factors == ((P("1 * x1^2 + -1", 1), 1),)


def test_squarefree_content_and_square():
    d = squarefree_decompose(P("4 * x1^2 + 8 * x1 + 4", 1))
    assert d.content == 4
    assert d.factors == ((P("1 * x1 + 1", 1), 2),)


def test_squarefree_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        squarefree_decompose(Poly.zero(2))


def test_squarefree_merges_equal_multiplicities():
    f = P("1 * x1", 2) ** 2 * P("1 * x2", 2) ** 2
    d = squarefree_decompose(f)
    assert d.factors == ((P("1 * x1 * x2", 2), 2),)
    assert d.reconstruct() == f


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_squarefree_reconstruction(data):
    n = data.draw(st.integers(1, 2))
    xs = [Poly.variable(n, i) for i in range(n)]
    pool = xs + [xs[0] + 1, xs[0] + 3]
    if n == 2:
        pool += [xs[1] - 2, xs[0] + xs[1]]
    k = data.draw(st.integers(1, min(3, len(pool))))
    idxs = data.draw(st.permutations(range(len(pool))))[:k]
    mults = [data.draw(st.integers(1, 3)) for _ in range(k)]
    content = data.draw(st.sampled_from([1, -1, 2, Fraction(3, 2)]))
    f = Poly.constant(n, content)
    for i, m in zip(idxs, mults):
        f = f * pool[i] ** m
    d = squarefree_decompose(f)
    assert d.reconstruct(n) == f
    for fac, _ in d.factors:
        assert is_squarefree(fac)
        assert fac.content() == 1 and fac.leading_coefficient() > 0
    ms = d.multiplicities()
    assert len(set(ms)) == len(ms)


# -- serialization ------------------------------------------------------------------


def test_text_roundtrip_examples():
    for text, n in [("0", 2), ("3/2 * x1^2 * x3 + -1 * x2", 3), ("7", 1)]:
        p = P(text, n)
        assert p.to_text() == text
        assert P(p.to_text(), n) == p


def test_tree_roundtrip_bit_exact():
    p = P("1/3 * x1^4 + -2 * x1 * x2 + 5", 2)
    tree = p.to_tree()
    assert Poly.from_tree(tree) == p
    assert json.dumps(Poly.from_tree(tree).to_tree()) == json.dumps(tree)


def test_from_text_rejects_bad_input():
    with pytest.raises(ValueError):
        P("1 * x5", 2)
    with pytest.raises(ValueError):
        P("", 2)
    with pytest.raises(ValueError):
        P("1 * y1", 2)


@given(polys())
@settings(max_examples=80, deadline=None)
def test_serialization_roundtrips(p):
    assert P(p.to_text(), p.nvars) == p
    assert Poly.from_tree(p.to_tree()) == p


# -- misc --------------------------------------------------------------------------


def test_partial_derivative():
    assert P("1 * x1^3 * x2", 2).partial(0) == P("3 * x1^2 * x2", 2)
    assert P("1 * x1^3 * x2", 2).partial(1) == P("1 * x1^3", 2)
    assert Poly.constant(2, 5).partial(0).is_zero()


def test_evaluate():
    p = P("1 * x1^2 + -1 * x2", 2)
    assert p.evaluate((Fraction(3), Fraction(4))) == 5


def test_primitive_split():
    c, prim = P("-6 * x1 + -9", 1).primitive()
    assert c == -3 and prim == P("2 * x1 + 3", 1)
    assert Poly.constant(1, c) * prim == P("-6 * x1 + -9", 1)


def test_content_reads_every_coefficient():
    # the running gcd reaches 1 after the first term here, yet the content is 1/3
    a = P("1 * x1 + 1/3 * x2 + -2/3", 2)
    b = P("1/3 * x2 + 1 * x1 + -2/3", 2)
    assert list(a.terms) != list(b.terms)
    assert a.content() == b.content() == Fraction(1, 3)
    assert a.primitive() == (Fraction(1, 3), P("3 * x1 + 1 * x2 + -2", 2))
    assert Poly.zero(2).content() == 0
    assert P("-4/6 * x1 + 2/9", 1).content() == Fraction(2, 9)
    d = squarefree_decompose(a**2 * P("1 * x1", 2))
    assert all(f.content() == 1 for f, _ in d.factors)
    assert d.reconstruct() == a**2 * P("1 * x1", 2)


def test_parse_degree_cap():
    n = MAX_PARSED_DEGREE
    assert P(f"1 * x1^{n}", 2).total_degree() == n
    assert P(f"1 * x1^{n - 1} * x2 + 1 * x1^{n} * x2^0", 2).total_degree() == n
    with pytest.raises(DegreeCapExceeded):
        P(f"1 * x1^{n} * x2", 2)
    with pytest.raises(DegreeCapExceeded):
        P(f"1 * x1^{n + 1} + 1", 1)
    tree = {"nvars": 2, "terms": [{"exps": [n, 1], "num": 1, "den": 1}]}
    with pytest.raises(DegreeCapExceeded):
        Poly.from_tree(tree)
    tree["terms"][0]["exps"] = [n, 0]
    assert Poly.from_tree(tree).total_degree() == n


def test_gcd_many():
    assert poly_gcd_many([P("2 * x1 * x2", 2), P("4 * x1", 2), P("6 * x1^2", 2)]) == P(
        "2 * x1", 2
    )
