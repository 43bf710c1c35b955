import itertools
import json
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from higgspec import poly
from higgspec.errors import DegreeCapExceeded, DivisionFailure, ZeroPolynomial
from higgspec.poly import (
    MAX_PARSED_DEGREE,
    Poly,
    SquarefreeDecomposition,
    exact_div,
    frac_gcd,
    is_squarefree,
    poly_gcd,
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
    assert poly_gcd(P("1 * x1^2 + -1", 1), P("1 * x1^2 + -2 * x1 + 1", 1))[0] == P("1 * x1 + -1", 1)


def test_gcd_includes_content():
    # integer content gcd(6, 4) = 2 times the primitive gcd x
    g = poly_gcd(P("6 * x1", 1), P("4 * x1^2", 1))[0]
    assert g == P("2 * x1", 1)
    assert exact_div(P("6 * x1", 1), g) == Poly.constant(1, 3)
    assert exact_div(P("4 * x1^2", 1), g) == P("2 * x1", 1)


def test_gcd_of_zeros():
    assert poly_gcd(Poly.zero(2), Poly.zero(2)) == (Poly.zero(2),) * 3
    assert poly_gcd(Poly.zero(1), Poly.zero(1), Poly.zero(1)) == (Poly.zero(1),) * 4
    assert poly_gcd(Poly.zero(1), P("-2 * x1", 1)) == (P("2 * x1", 1), Poly.zero(1), Poly.constant(1, -1))
    assert poly_gcd(P("-2 * x1", 1), Poly.zero(1)) == (P("2 * x1", 1), Poly.constant(1, -1), Poly.zero(1))
    b = P("3/2 * x1^2 + 3 * x1 + 3/2", 1)
    assert poly_gcd(Poly.zero(1), b, Poly.zero(1)) == (b, Poly.zero(1), Poly.one(1), Poly.zero(1))


def test_gcd_disjoint_variables():
    assert poly_gcd(P("2 * x1", 2), P("4 * x2", 2))[0] == Poly.constant(2, 2)


def test_gcd_multivariate():
    a = P("1 * x1^2 + -1 * x2^2", 2)
    b = P("1 * x1^2 + 2 * x1 * x2 + 1 * x2^2", 2)
    assert poly_gcd(a, b)[0] == P("1 * x1 + 1 * x2", 2)


@given(poly_triples())
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both(gab):
    g, a, b = gab
    if g.is_zero() or a.is_zero() or b.is_zero():
        return
    x, y = g * a, g * b
    d, cx, cy = poly_gcd(x, y)
    assert d.leading_coefficient() > 0
    assert exact_div(x, d) == cx
    assert exact_div(y, d) == cy
    exact_div(d, g)  # d contains the constructed common factor


# -- heuristic gcd and its image cap ---------------------------------------------


def _count_points(monkeypatch):
    """The evaluation points GCDHEU tries, at every level: one interpolation each."""
    calls = []
    interpolate = poly._heu_interpolate

    def counted(h, xi, shift, cap):
        calls.append(xi)
        return interpolate(h, xi, shift, cap)

    monkeypatch.setattr(poly, "_heu_interpolate", counted)
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
    # GCDHEU answers, not one of the shortcuts for constants and monomials
    points = _count_points(monkeypatch)
    assert poly_gcd(P(a, n), P(b, n))[0] == P(want, n)
    assert points


@pytest.mark.parametrize("a, b, n, want", GCD_EXAMPLES)
def test_gcd_past_image_cap_raises(a, b, n, want, monkeypatch):
    # every evaluation image too large: GCDHEU gives up, and so does the gcd
    monkeypatch.setattr(poly, "_HEU_MAX_BITS", 1)
    with pytest.raises(DegreeCapExceeded, match="evaluation image"):
        poly_gcd(P(a, n), P(b, n))


def test_gcd_unlucky_point_then_fallback(monkeypatch):
    # (x+8)(x+4) and (x+3)(x+4): at the first point, xi = 2*12 + 3 = 27, the
    # images 35*31 and 30*31 share 5*31, one factor 5 too many, and the
    # interpolated candidate 6*x1 - 7 divides neither.  GCDHEU falls back to
    # its next point, xi = 147, which answers; a cap that admits the first
    # image (5 bits times degree 2) but not the second (8 bits) refuses.
    a = P("1 * x1^2 + 12 * x1 + 32", 1)
    b = P("1 * x1^2 + 7 * x1 + 12", 1)
    points = _count_points(monkeypatch)
    assert poly_gcd(a, b)[0] == P("1 * x1 + 4", 1)
    assert points == [27, 147]
    monkeypatch.setattr(poly, "_HEU_MAX_BITS", 10)
    with pytest.raises(DegreeCapExceeded):
        poly_gcd(a, b)
    assert points == [27, 147, 27]


def test_gcd_past_image_cap_refuses_quickly():
    # tau alpha0^2 and tau alpha0 alpha1, alpha_i dense in 4 variables of
    # degree 7: the innermost images pass the 2^20-bit cap, and GCDHEU stops
    rng = random.Random(1)

    def dense(deg):
        exps = (e for e in itertools.product(range(deg + 1), repeat=4) if sum(e) <= deg)
        return Poly(4, {e: rng.randint(1, 9) for e in exps})

    alpha0, alpha1, tau = dense(7), dense(7), dense(2)
    a, b = tau * alpha0 * alpha0, tau * alpha0 * alpha1
    t0 = time.process_time()
    with pytest.raises(DegreeCapExceeded):
        poly_gcd(a, b)
    assert time.process_time() - t0 < 5


# -- exact division against a reference --------------------------------------------


def _ref_lead(t):
    return max(t, key=lambda e: (sum(e), e))


def _ref_sub_mul(r, c, e, b):
    """r - c * x^e * b on term dicts of Fractions."""
    out = dict(r)
    for eb, cb in b.items():
        k = tuple(x + y for x, y in zip(e, eb))
        out[k] = out.get(k, Fraction(0)) - c * cb
    return {k: v for k, v in out.items() if v}


def _ref_exact_div(a, b):
    """Naive grlex long division over Fraction: the quotient, or None if b does not divide a."""
    eb = _ref_lead(b)
    q, r = {}, dict(a)
    while r:
        er = _ref_lead(r)
        d = tuple(x - y for x, y in zip(er, eb))
        if min(d) < 0:
            return None
        c = r[er] / b[eb]
        q[d] = c
        r = _ref_sub_mul(r, c, d, b)
    return q


def _ref_mul(a, b):
    out = {}
    for e, c in a.items():
        out = _ref_sub_mul(out, -c, e, b)
    return out


def _division_cases(seed, count=400):
    """Seeded (a, b) pairs: nvars 1-4, rational contents, constant divisors,
    exponents of 2^11 and more (dividends up to total degree 16,408, half of
    MAX_DEGREE), divisors of larger degree than the dividend, and
    non-divisible pairs next to divisible ones."""
    rng = random.Random(seed)
    big = 2**11

    def exps(n, wide):
        pool = [0, 0, 1, 2, 3] + ([big, big + 3] if wide else [])
        return tuple(rng.choice(pool) for _ in range(n))

    def coeff():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.choice([1, 1, 2, 3, 10**9 + 7]))

    def terms(n, k, wide):
        return {exps(n, wide): coeff() for _ in range(k)}

    for i in range(count):
        n = 1 + i % 4
        wide = i % 5 == 0
        kind = i % 6
        if kind == 0:
            b = {(0,) * n: coeff()}
        else:
            b = terms(n, rng.randint(1, 4), wide)
        q = terms(n, rng.randint(1, 4), wide)
        a = _ref_mul(q, b)
        if kind == 1:
            # a stray term: usually not divisible any more
            a = {**a, exps(n, wide): coeff()}
        elif kind == 2:
            # b has an exponent above every exponent of a
            top = 1 + max(x for e in a for x in (0, *e))
            b = {**b, (top,) + (0,) * (n - 1): coeff()}
        a = {e: c for e, c in a.items() if c}
        if a:
            yield Poly(n, a), Poly(n, b)


@pytest.mark.parametrize("seed", range(4))
def test_exact_div_matches_reference_division(seed):
    failures = 0
    for a, b in _division_cases(seed):
        want = _ref_exact_div(a.terms, b.terms)
        if want is not None:
            assert exact_div(a, b).terms == want, (a, b)
            continue
        failures += 1
        with pytest.raises(DivisionFailure) as err:
            exact_div(a, b)
        witness = err.value.remainder
        assert isinstance(witness, Poly) and witness, (a, b)
        rest = _ref_sub_mul(a.terms, Fraction(1), (0,) * a.nvars, witness.terms)
        assert _ref_exact_div(rest, b.terms) is not None, (a, b, witness)
    assert failures > 50


def test_packed_division_is_over_the_integers():
    # the trial division of GCDHEU: x divides 2x over Z, 2x does not divide x
    assert poly._div_packed({1: 2}, {1: 1}, 1) == ({0: 2}, True)
    assert poly._div_packed({1: 1}, {1: 2}, 1) == ({}, False)
    # a quotient term would run past deg_x1 a - deg_x1 b: not a divisor
    a, b = P("3 * x1^2 * x2^3 + -3 * x2", 2), P("-1 * x1 + 1 * x2", 2)
    assert not poly._div_packed(a._ints, b._ints, 2)[1]
    with pytest.raises(DivisionFailure):
        exact_div(a, b)


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
    d, cx, cy = poly_gcd(x, y)
    # divides both, coprime cofactors
    assert (exact_div(x, d), exact_div(y, d)) == (cx, cy)
    assert poly_gcd(cx, cy)[0].is_constant()
    # normalisation: rational content of both, positive grlex-leading coefficient
    assert d.content() == frac_gcd(x.content(), y.content())
    assert d.leading_coefficient() > 0


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


def test_is_squarefree_sees_factors_free_of_the_first_variable():
    # Yun runs in x1; a square free of x1 sits in the content in x1
    assert not is_squarefree(P("1 * x1 * x2^2", 2))
    assert not is_squarefree(P("1 * x2 + 1", 2) ** 2 * P("1 * x1 + 1 * x2", 2))
    assert is_squarefree(P("1 * x1 * x2", 2))
    assert is_squarefree(P("1 * x2 + 1", 2) * P("1 * x1 + 1 * x2", 2))
    assert is_squarefree(P("-3/2", 2))


def test_squarefree_quotients_are_gcd_cofactors(monkeypatch):
    # with tau's content in x1 constant, every quotient of Yun's algorithm is
    # a gcd cofactor and no exact division is made; a repeated factor free of
    # x1 is found by dividing it out of the first gcd
    calls = []
    div = poly.exact_div
    monkeypatch.setattr(poly, "exact_div", lambda a, b: calls.append((a, b)) or div(a, b))
    x1, x2, x3 = (Poly.variable(3, i) for i in range(3))
    tau = 3 * (x1 + x2) ** 3 * (x1 * x3 - 2) ** 2 * (x1**2 + x2 * x3 + 1)
    d = squarefree_decompose(tau)
    assert d.multiplicities() == (1, 2, 3) and d.reconstruct() == tau
    assert not calls
    tau = tau * (x2 - x3) ** 2
    d = squarefree_decompose(tau)
    assert d.multiplicities() == (1, 2, 3) and d.reconstruct() == tau
    assert calls


def _assert_cofactors(polys, want):
    g, *cofactors = poly_gcd(*polys)
    assert g == want and len(cofactors) == len(polys)
    for p, q in zip(polys, cofactors):
        assert g * q == p
    return cofactors


def test_gcd_cofactors():
    a, b = P("2 * x1^2 + -2", 1), P("3/2 * x1^2 + 3 * x1 + 3/2", 1)
    assert poly_gcd(a, b) == (P("1/2 * x1 + 1/2", 1), P("4 * x1 + -4", 1), P("3 * x1 + 3", 1))
    assert poly_gcd(b) == (b, Poly.one(1))
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    f = x1 + x2
    # three and four operands: the gcd shrinks at every step, so earlier
    # cofactors are rescaled by a polynomial, and then by a constant
    polys = [f**3 * x1 * 2, f**2 * x1 * x2 * 6, f * x2 * 4]
    _assert_cofactors(polys, f * 2)
    _assert_cofactors(polys + [x1 * Fraction(2, 3)], Poly.constant(2, Fraction(2, 3)))
    # zero operands and negative leading coefficients: g is positive, and
    # the cofactors carry the signs
    got = _assert_cofactors([Poly.zero(2), -f * x1, -f * x2 * 3, Poly.zero(2)], f)
    assert got == [Poly.zero(2), -x1, -3 * x2, Poly.zero(2)]


def test_gcd_operand_errors():
    with pytest.raises(ValueError, match="no polynomials"):
        poly_gcd()
    with pytest.raises(ValueError, match="nvars mismatch"):
        poly_gcd(P("1 * x1", 1), P("1 * x1", 2))
    with pytest.raises(ValueError, match="nvars mismatch"):
        poly_gcd(P("1 * x1", 2), P("1 * x1", 2), P("1 * x1", 1))


def test_squarefree_decomposition_types():
    # a content is an int or a Fraction, a multiplicity an int: "3/2" and
    # 2.9 were read as 3/2 and 2
    x1 = P("1 * x1", 1)
    assert SquarefreeDecomposition(Fraction(3, 2), [(x1, 2)]).reconstruct() == P("3/2 * x1^2", 1)
    with pytest.raises(TypeError, match="content must be int or Fraction"):
        SquarefreeDecomposition("3/2", [(x1, 2)])
    with pytest.raises(TypeError, match="multiplicity must be int"):
        SquarefreeDecomposition(Fraction(3, 2), [(x1, 2.9)])


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
    for text, n, message in [
        ("1 * x5", 2, "out of range"),
        ("1 * x0", 2, "out of range"),
        ("", 2, "empty polynomial"),
        ("1 + ", 1, "empty term"),
        ("1 * y1", 2, "bad rational"),
        ("1.5", 1, "bad rational"),
        ("1/0 * x1", 1, "zero denominator"),
    ]:
        with pytest.raises(ValueError, match=message):
            P(text, n)


@pytest.mark.parametrize(
    "text, piece",
    [
        ("1 * x١", "x١"),
        ("1 * x1^٣", "x1^٣"),
        ("1 * x١^٣", "x١^٣"),
        ("1 * x²", "x²"),
        ("x1^² + 1", "x1^²"),
        ("1 * x1^", "x1^"),
        ("1 * x^2", "x^2"),
        ("1 * x1^2^3", "x1^2^3"),
    ],
)
def test_variable_digits_are_ascii(text, piece):
    # a variable's index and exponent are ASCII digits, as a rational's are;
    # any other piece is read as a rational and refused as one
    with pytest.raises(ValueError) as exc:
        P(text, 2)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"bad rational {piece!r}: expected p or p/q"


def _ref_parse(text, nvars):
    """Term-by-term reference parser: {exponents: Fraction}, zeros dropped, or None if malformed."""
    if not text.strip():
        return None
    terms = {}
    for term in text.split("+"):
        if not term.strip():
            return None
        coeff, exps = Fraction(1), [0] * nvars
        for factor in (f.strip() for f in term.split("*")):
            var = re.fullmatch(r"x([0-9]+)(\^([0-9]+))?", factor)
            num = re.fullmatch(r"([+-]?[0-9]+)(/([0-9]+))?", factor)
            if var:
                v = int(var.group(1))
                if not 1 <= v <= nvars:
                    return None
                exps[v - 1] += int(var.group(3) or 1)
            elif num and int(num.group(3) or 1):
                coeff *= Fraction(int(num.group(1)), int(num.group(3) or 1))
            else:
                return None
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + coeff
    return {e: c for e, c in terms.items() if c}


def _parse_cases(seed, count=400):
    """Seeded polynomial texts: several coefficient pieces, repeated variables,
    repeated monomials that cancel, odd whitespace, and malformed pieces."""
    rng = random.Random(seed)
    space = lambda: rng.choice(["", " ", "  ", "\t"])
    bad = ["", "1.5", "1/0", "x0", "x9", "y1", "x1^", "^2", "2x1", "--1", "1/-2", "x1^-1", "x 1"]

    def piece(n):
        r = rng.random()
        if r < 0.4:
            return f"x{rng.randint(1, n)}" + rng.choice(["", f"^{rng.randint(0, 4)}"])
        if r < 0.97:
            return rng.choice(["", "+", "-"]) + str(rng.randint(0, 12)) + rng.choice(["", f"/{rng.randint(1, 6)}"])
        return rng.choice(bad)

    for i in range(count):
        n = 1 + i % 3
        terms = []
        for _ in range(rng.randint(1, 5)):
            t = (space() + "*" + space()).join(piece(n) for _ in range(rng.randint(1, 4)))
            terms.append(t)
            if rng.random() < 0.3:
                # the same monomial again with the opposite coefficient: cancels to zero
                terms.append(f"-1 * {t}")
        yield space() + (space() + "+" + space()).join(terms) + space(), n


@pytest.mark.parametrize("seed", range(3))
def test_from_text_matches_reference_parser(seed):
    outcomes = set()
    for text, n in _parse_cases(seed):
        want = _ref_parse(text, n)
        if want is None:
            with pytest.raises(ValueError):
                P(text, n)
        else:
            assert P(text, n).terms == want, text
        outcomes.add("error" if want is None else "zero" if not want else "poly")
    assert outcomes == {"error", "zero", "poly"}


def test_shared_piece_memo_parses_as_from_text():
    # one memo per nvars across all texts, as a config shares it: the same
    # polynomials and the same error messages as a fresh memo per text
    memos = {}
    for seed in range(3):
        for text, n in _parse_cases(seed):
            products = memos.setdefault(n, {})
            try:
                want = P(text, n)
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    P(text, n, products=products)
                assert str(err.value) == str(exc)
            else:
                assert P(text, n, products=products) == want
    assert all(len(m) > 20 for m in memos.values())


# The regex parser Poly.from_text used before it read a term at a time: its
# rational grammar, its piece parser and its piece loop, copied verbatim as
# the reference of the differential tests below.

_OLD_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")
_OLD_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def _old_rational_parts(text: str):
    """(p, q) of the one rational grammar of configs: [+-]?digits(/digits)?, q != 0."""
    m = _OLD_RATIONAL_RE.match(text)
    if m is None:
        raise ValueError(f"bad rational {text!r}: expected p or p/q")
    num, den = m.groups()
    den = int(den or 1)
    if not den:
        raise ValueError(f"bad rational {text!r}: zero denominator")
    return int(num), den


def _old_parse_piece(piece, nvars):
    """One `*`-piece of a term: (key step, exponent, None) for a power of a variable, (None, p, q) for p / q."""
    piece = piece.strip()
    # only a piece starting with "x" can be a variable
    m = _OLD_VAR_RE.match(piece) if piece[:1] == "x" else None
    if m is None:
        return (None, *_old_rational_parts(piece))
    idx = int(m.group(1)) - 1
    if not 0 <= idx < nvars:
        raise ValueError(f"variable x{idx + 1} out of range for nvars={nvars}")
    p = int(m.group(2) or 1)
    return p << poly._W * (nvars - 1 - idx), p, None


def _old_from_text(text, nvars, pieces=None):
    if pieces is None:
        pieces = {}
    parsed = []
    top = 0
    body = text.strip()
    if not body:
        raise ValueError("empty polynomial text")
    raw_terms = body.split("+")
    poly._terms_capped(len(raw_terms))
    for raw_term in raw_terms:
        if not raw_term.strip():
            raise ValueError(f"empty term in {text!r}")
        num = den = 1
        k = d = 0
        for piece in raw_term.split("*"):
            got = pieces.get(piece)
            if got is None:
                got = pieces[piece] = _old_parse_piece(piece, nvars)
            step, p, q = got
            if step is None:
                num *= p
                den *= q
            else:
                k += step
                d += p
        if d > top:
            top = d
        parsed.append((k, num, den))
    poly._degree_capped(top, poly.MAX_DEGREE)
    # over the common denominator every coefficient is an int, and
    # repeated monomials merge by integer addition
    den = math.lcm(*[q for _, _, q in parsed])
    ints = {}
    for k, p, q in parsed:
        ints[k] = ints.get(k, 0) + p * (den // q)
    p = Poly._make(nvars, {k: c for k, c in ints.items() if c}, 1, den)
    if top > MAX_PARSED_DEGREE:
        # the terms past the cap may cancel
        poly._degree_capped(p.total_degree(), MAX_PARSED_DEGREE)
    return p


def _outcome(parse, *args, **kwargs):
    """A parse's Poly as canonical JSON, or its exception's type and whole message."""
    try:
        return parse(*args, **kwargs).to_json()
    except (ValueError, DegreeCapExceeded) as exc:
        return type(exc), str(exc)


# rationals at the edges of the grammar: signs, spaces, slashes, zero
# denominators, underscores, non-ASCII digits and a superscript
EDGE_RATIONALS = ["+3", "--3", "3 /4", "3/ 4", "3/+4", "3/0", "3/00", "1/2/3", "1_0", "١٢", "²", "1/١"]
EDGE_TEXTS = [
    "\xa03/4\xa0 * x1 + 1",  # a no-break space around a coefficient
    "1 + \x1c-2\x1c * x2",  # an information separator, which str.strip drops too
    "1 +  + x1",  # a blank term
    " * x1",
    "x1 * 3/4",
    "3 * x1 * 1/2",
    "x1 + -1 * x1",
    "0",
    "1" * 4301 + " * x1",  # one digit past int()'s string limit
    "1/" + "1" * 4301,
    "3/4 * x3",  # a variable out of range after a valid coefficient
    "1 * x1^1000 * x2^24",  # total degree 1024
    "1 * x1^1000 * x2^25",  # and 1025
    "2 * x1^1025 + -2 * x1^1025 + 1",
    "x1^2 * 5 * x2 + 1/3 * x1 * x1 * x2 * 3",
    "",
    "3 *",
    "x1 * ",
]


def _edge_cases():
    for r in EDGE_RATIONALS:
        yield from ((r, 2), (f"{r} * x1", 2), (f"1 * x2 + {r} * x1^2", 2), (f"x1 * {r}", 2), (f"x2 * x1 * {r} + 1", 2))
    yield from ((t, 2) for t in EDGE_TEXTS)


def test_from_text_matches_the_regex_parser():
    # the same Poly, or the same exception type and whole message, with a
    # memo shared across all texts of one nvars and with none
    memos = {}
    cases = list(_edge_cases()) + [c for seed in range(3) for c in _parse_cases(seed)]
    outcomes = set()
    for text, n in cases:
        want = _outcome(_old_from_text, text, n)
        assert _outcome(P, text, n) == want, text
        assert _outcome(P, text, n, products=memos.setdefault(n, {})) == want, text
        outcomes.add(want[0] if type(want) is tuple else "poly")
    assert outcomes == {"poly", ValueError, DegreeCapExceeded}
    assert all(len(m) > 20 for m in memos.values())


@pytest.mark.parametrize(
    "text, want",
    [
        ("5", (5, 1)),
        ("-5/10", (-5, 10)),
        ("+0/7", (0, 7)),
        ("007", (7, 1)),
        (" 5", "bad rational ' 5': expected p or p/q"),
        ("5 ", "bad rational '5 ': expected p or p/q"),
        ("5\n", "bad rational '5\\n': expected p or p/q"),
        ("", "bad rational '': expected p or p/q"),
        ("-", "bad rational '-': expected p or p/q"),
        ("+-5", "bad rational '+-5': expected p or p/q"),
        ("5/", "bad rational '5/': expected p or p/q"),
        ("5/-2", "bad rational '5/-2': expected p or p/q"),
        ("1e3", "bad rational '1e3': expected p or p/q"),
        ("1_000", "bad rational '1_000': expected p or p/q"),
        ("٥", "bad rational '٥': expected p or p/q"),
        ("³", "bad rational '³': expected p or p/q"),
        ("2/٣", "bad rational '2/٣': expected p or p/q"),
        ("5/0", "bad rational '5/0': zero denominator"),
        ("-5/000", "bad rational '-5/000': zero denominator"),
    ],
)
def test_rational_parts_reads_only_the_grammar(text, want):
    # the CLI reads NS-class coordinates and rationals through this one
    # grammar, unstripped, so surrounding whitespace is refused there
    if isinstance(want, tuple):
        assert poly._rational_parts(text) == _old_rational_parts(text) == want
    else:
        for parse in (poly._rational_parts, _old_rational_parts):
            with pytest.raises(ValueError) as exc:
                parse(text)
            assert type(exc.value) is ValueError and str(exc.value) == want


def test_from_text_examples():
    assert P("2 * 3/4 * x1", 1) == Poly(1, {(1,): Fraction(3, 2)})
    assert P("x1 * x1^2 * -1/2 * x2 * 4", 2) == Poly(2, {(3, 1): Fraction(-2)})
    assert P("  1*x1\t+x1*  -1 + 3  ", 2) == Poly.constant(2, 3)
    assert P("1 * x1^2000 + -1 * x1^2000", 1).is_zero()
    assert P("0 * x1 + 0", 1).is_zero()
    assert P("6/4 * x1 + 1/2 * x1", 1).terms == {(1,): Fraction(2)}


@given(polys())
@settings(max_examples=80, deadline=None)
def test_serialization_roundtrips(p):
    assert P(p.to_text(), p.nvars) == p
    assert Poly.from_tree(p.to_tree()) == p
    assert p.to_json() == json.dumps(p.to_tree(), sort_keys=True, separators=(",", ":"))


# -- misc --------------------------------------------------------------------------


def test_partial_derivative():
    assert P("1 * x1^3 * x2", 2).partial(0) == P("3 * x1^2 * x2", 2)
    assert P("1 * x1^3 * x2", 2).partial(1) == P("1 * x1^3", 2)
    assert Poly.constant(2, 5).partial(0).is_zero()


def test_evaluate():
    p = P("1 * x1^2 + -1 * x2", 2)
    assert p.evaluate((Fraction(3), Fraction(4))) == 5
    assert p.evaluate((3, Fraction(1, 2))) == Fraction(17, 2)
    # floating point is rejected, and so are strings and bools
    for bad in (0.1, "1/3", True):
        with pytest.raises(TypeError, match="point coordinate"):
            p.evaluate((1, bad))


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


@pytest.mark.parametrize(
    "text, nvars",
    [("1 * x1^1024 + 1 * x1^1025", 1), ("1 * x1^1000 * x2^24 + 1 * x1^1001 * x2^24", 2)],
)
def test_parse_degree_cap_one_above_an_earlier_term(text, nvars):
    # the term past the cap is one degree above the largest term before it
    with pytest.raises(DegreeCapExceeded) as exc:
        P(text, nvars)
    assert str(exc.value) == "total degree 1025 exceeds cap 1024"


def test_parse_term_cap(monkeypatch):
    # counted before the terms are parsed; at the cap a text or tree parses
    monkeypatch.setattr(poly, "MAX_PARSED_TERMS", 6)
    at, past = " + ".join(f"{k} * x1^{k}" for k in range(6)), " + ".join(f"{k} * x1^{k}" for k in range(7))
    assert len(P(at, 1).terms) == 5
    with pytest.raises(DegreeCapExceeded, match="7 terms exceed cap 6"):
        P(past, 1)
    tree = {"nvars": 1, "terms": [{"exps": [k], "num": 1, "den": 1} for k in range(6)]}
    assert len(Poly.from_tree(tree).terms) == 6
    tree["terms"].append({"exps": [6], "num": 1, "den": 1})
    with pytest.raises(DegreeCapExceeded, match="7 terms exceed cap 6"):
        Poly.from_tree(tree)
    monkeypatch.undo()
    # one past the real cap, refused before any term is parsed
    t0 = time.process_time()
    with pytest.raises(DegreeCapExceeded, match=f"{poly.MAX_PARSED_TERMS + 1} terms exceed cap"):
        P(" + ".join(["1"] * (poly.MAX_PARSED_TERMS + 1)), 1)
    assert time.process_time() - t0 < 2


def test_term_pair_cap(monkeypatch):
    # len(a) * len(b) is checked before a product forms any term pair, on both paths
    three, four = P("1 * x1^2 + 2 * x2 + 3", 2), P("1 * x1 + 1 * x2 + 1 * x1 * x2 + 5", 2)
    want, square = three * four, three * three
    monkeypatch.setattr(poly, "MAX_TERM_PAIRS", 12)
    assert three * four == four * three == want
    assert three**2 == square
    with pytest.raises(DegreeCapExceeded, match="product of 4 x 4 terms exceeds cap 12 term pairs"):
        four * four
    thirteen = Poly(1, {(k,): k + 1 for k in range(13)})
    with pytest.raises(DegreeCapExceeded, match="product of 1 x 13 terms exceeds cap 12 term pairs"):
        Poly.variable(1, 0) * thirteen
    assert thirteen * 3 == Poly(1, {(k,): 3 * k + 3 for k in range(13)})  # a scalar forms no pair
    monkeypatch.undo()
    # one past the real cap: 4097^2 > 2^24 pairs, refused at once
    big = Poly(2, {(i, j): 1 for i in range(64) for j in range(64)} | {(64, 0): 1})
    assert len(big.terms) ** 2 == poly.MAX_TERM_PAIRS + 2 * 4096 + 1
    t0 = time.process_time()
    with pytest.raises(DegreeCapExceeded, match="product of 4097 x 4097 terms exceeds cap 16777216 term pairs"):
        big * big
    assert time.process_time() - t0 < 1


def test_division_term_pair_cap(monkeypatch):
    # each quotient term forms a pair with every term of b; the term that
    # would take len(q) * len(b) past the cap is refused before it forms one
    b = P("1 * x1 + 1 * x2 + 1", 2)
    q = P("1 * x1^2 + 1 * x1 * x2 + 1 * x2^2 + 1 * x1 + 2", 2)
    a, c = q * b, P("1 * x1 + 2", 2) * b
    monkeypatch.setattr(poly, "MAX_TERM_PAIRS", 15)
    assert exact_div(a, b) == q  # 5 x 3 pairs, exactly at the cap
    monkeypatch.setattr(poly, "MAX_TERM_PAIRS", 14)
    with pytest.raises(DegreeCapExceeded, match="quotient of more than 4 x 3 terms exceeds cap 14 term pairs"):
        exact_div(a, b)
    # the gcd's trial divisions share the cap
    with pytest.raises(DegreeCapExceeded, match="quotient of more than"):
        poly_gcd(a, c)


def test_division_term_pair_cap_at_full_size():
    # u = (sum_{i<65} x1^i)(sum_{j<64} x2^j) has 4,160 terms, and u^2 / u
    # would form 4,160^2 > 2^24 term pairs: the 4,033rd quotient term is refused
    s1 = Poly(2, {(i, 0): 1 for i in range(65)})
    s2 = Poly(2, {(0, j): 1 for j in range(64)})
    u, u2 = s1 * s2, (s1 * s1) * (s2 * s2)
    assert len(u.terms) == 4160
    with pytest.raises(DegreeCapExceeded, match="quotient of more than 4032 x 4160 terms exceeds cap 16777216 term pairs"):
        exact_div(u2, u)


def test_gcd_many():
    assert poly_gcd(P("2 * x1 * x2", 2), P("4 * x1", 2), P("6 * x1^2", 2))[0] == P("2 * x1", 2)
    # the chain does not stop at a gcd of one: the later contents still count
    polys = [Poly.one(3), P("1 * x1 + 1", 3), P("1/2 * x3", 3)]
    assert poly_gcd(*polys)[0] == poly_gcd(*polys[::-1])[0] == Poly.constant(3, Fraction(1, 2))
