"""Differential oracle: polynomial and matrix arithmetic against sympy.

sympy is an optional test dependency; without it this module is skipped.
``+``, ``-``, ``*``, ``exact_div``, ``mat_det`` and ``charpoly_cofactor``
must agree with sympy term for term.  ``poly_gcd`` and
``squarefree_decompose`` are compared up to a rational factor, and
higgspec's normalisation (rational content of the operands, positive
grlex-leading coefficient) is checked on its own.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from higgspec.errors import DivisionFailure
from higgspec.matrix import charpoly_cofactor, mat_det
from higgspec.poly import Poly, exact_div, poly_gcd, squarefree_decompose

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

GENS = sympy.symbols("x1:5")


def to_sympy(p: Poly):
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *GENS[: p.nvars], domain="QQ")


def from_sympy(q) -> dict:
    return {e: Fraction(int(c.p), int(c.q)) for e, c in q.terms() if c}


def grlex_lead(terms):
    return max(terms, key=lambda e: (sum(e), e))


def assert_associates(mine: Poly, theirs: dict):
    assert set(mine.terms) == set(theirs)
    lead = grlex_lead(theirs)
    ratio = mine.terms[lead] / theirs[lead]
    assert all(mine.terms[e] == ratio * c for e, c in theirs.items())


@st.composite
def rational_polys(draw, n, max_deg, max_terms):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        e = tuple(draw(st.integers(0, max_deg)) for _ in range(n))
        terms[e] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
    return Poly(n, terms)


@st.composite
def poly_pairs(draw):
    n = draw(st.integers(1, 4))
    deg = 3 if n <= 2 else 2
    return draw(rational_polys(n, deg, 5)), draw(rational_polys(n, deg, 5))


@given(poly_pairs())
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_sympy(ab):
    a, b = ab
    sa, sb = to_sympy(a), to_sympy(b)
    assert (a + b).terms == from_sympy(sa + sb)
    assert (a - b).terms == from_sympy(sa - sb)
    assert (a * b).terms == from_sympy(sa * sb)
    if b.is_zero():
        return
    assert exact_div(a * b, b).terms == from_sympy((sa * sb).exquo(sb))
    try:
        want = from_sympy(sa.exquo(sb))
    except sympy.polys.polyerrors.ExactQuotientFailed:
        with pytest.raises(DivisionFailure):
            exact_div(a, b)
    else:
        assert exact_div(a, b).terms == want


@st.composite
def poly_matrices(draw):
    n = draw(st.integers(1, 3))
    r = draw(st.integers(2, 4))
    return n, tuple(tuple(draw(rational_polys(n, 2, 3)) for _ in range(r)) for _ in range(r))


@given(poly_matrices())
@settings(max_examples=40, deadline=None)
def test_det_and_charpoly_match_sympy(nm):
    n, rows = nm
    ring = sympy.QQ[GENS[:n]]
    entries = [[ring.from_sympy(to_sympy(p).as_expr()) for p in row] for row in rows]
    m = DomainMatrix(entries, (len(rows),) * 2, ring)
    assert mat_det(rows).terms == from_sympy(sympy.Poly(ring.to_sympy(m.det()), *GENS[:n], domain="QQ"))
    # det(tI - M) = sum c_k t^(r-k) for sympy's coefficients [1, c_1, ..., c_r]
    t = sympy.Symbol("t")
    coeffs = m.charpoly()
    char = sum(ring.to_sympy(c) * t ** (len(coeffs) - 1 - k) for k, c in enumerate(coeffs))
    assert charpoly_cofactor(rows).terms == from_sympy(sympy.Poly(char, *GENS[:n], t, domain="QQ"))


@st.composite
def gcd_cases(draw):
    n = draw(st.integers(1, 4))
    deg = 3 if n <= 2 else 2
    g, a, b = (draw(rational_polys(n, deg, 3)) for _ in range(3))
    return g * a, g * g * b


def rational_content(*polys) -> Fraction:
    """gcd over Q of every coefficient, from sympy's integer gcd and lcm."""
    cs = [c for p in polys for c in p.terms.values()]
    num = sympy.gcd_list([sympy.Integer(c.numerator) for c in cs])
    den = sympy.lcm_list([sympy.Integer(c.denominator) for c in cs])
    return Fraction(int(num), int(den))


@given(gcd_cases())
@settings(max_examples=150, deadline=None)
def test_gcd_matches_sympy(xy):
    x, y = xy
    if x.is_zero() or y.is_zero():
        return
    d = assert_cofactors(x, y)
    assert_associates(d, from_sympy(sympy.gcd(to_sympy(x), to_sympy(y))))
    assert d.terms[grlex_lead(d.terms)] > 0
    assert rational_content(d) == rational_content(x, y)


def assert_cofactors(*polys):
    """The gcd of polys, after checking g * (p/g) == p for every cofactor."""
    g, *cofactors = poly_gcd(*polys)
    assert len(cofactors) == len(polys)
    assert all(g * q == p for p, q in zip(polys, cofactors))
    return g


@st.composite
def gcd_triples(draw):
    # x and y share g h, z only g: the gcd shrinks at the third operand
    n = draw(st.integers(1, 3))
    g, h, a, b, c = (draw(rational_polys(n, 2, 3)) for _ in range(5))
    return g * h * a, g * h * b, g * c


@given(gcd_triples())
@settings(max_examples=60, deadline=None)
def test_gcd_of_three_matches_sympy(xyz):
    x, y, z = xyz
    if x.is_zero() or y.is_zero() or z.is_zero():
        return
    d = assert_cofactors(x, y, z)
    assert_associates(d, from_sympy(sympy.gcd(sympy.gcd(to_sympy(x), to_sympy(y)), to_sympy(z))))
    assert rational_content(d) == rational_content(x, y, z)


@st.composite
def dense_polys(draw, n, deg):
    """Every exponent vector of total degree <= deg, nonzero integer coefficients in -9..9."""
    exps = [e for e in itertools.product(range(deg + 1), repeat=n) if sum(e) <= deg]
    return Poly(n, {e: draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1))) for e in exps})


@st.composite
def dense_gcd_cases(draw):
    n = draw(st.integers(2, 4))
    deg = {2: 4, 3: 3, 4: 2}[n]
    g, a, b = (draw(dense_polys(n, deg)) for _ in range(3))
    return g * a, g * b


@given(dense_gcd_cases())
@settings(max_examples=40, deadline=None)
def test_gcd_matches_sympy_on_dense_pairs(xy):
    # a planted common factor of 15-20 terms, cofactors as dense
    x, y = xy
    d = assert_cofactors(x, y)
    assert_associates(d, from_sympy(sympy.gcd(to_sympy(x), to_sympy(y))))
    assert rational_content(d) == rational_content(x, y)


@st.composite
def squarefree_cases(draw):
    n = draw(st.integers(1, 4))
    deg, top = (2, 4) if n <= 3 else (1, 3)
    f = Poly.constant(n, Fraction(draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 4))))
    for _ in range(draw(st.integers(1, 3))):
        base = draw(rational_polys(n, deg, 3))
        f = f * base ** draw(st.integers(1, top))
    return f


@given(squarefree_cases())
@settings(max_examples=100, deadline=None)
def test_squarefree_matches_sympy(f):
    if f.is_zero():
        return
    assert_sqf_list(f)


def _seeded_free_of_x1(seed):
    # repeated factors in x2..xn only, next to factors in x1: the classes
    # free of x1 lie in the content in x1, which Yun's algorithm in x1 splits
    # off and decomposes in the other variables
    rng = random.Random(seed)
    n = rng.randint(2, 4)

    def factor(lo):
        # x_(lo+1) and three more terms in x_(lo+1)..x_n
        exps = [tuple(rng.randint(0, 1) if i >= lo else 0 for i in range(n)) for _ in range(3)]
        terms = {e: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for e in exps}
        terms[tuple(int(i == lo) for i in range(n))] = Fraction(rng.randint(1, 4))
        return Poly(n, terms)

    f = Poly.constant(n, Fraction(rng.choice((-3, 2, 5)), rng.randint(1, 3)))
    for lo, m in [(1, rng.randint(2, 3)), (1, rng.randint(1, 3)), (0, rng.randint(1, 3)), (0, 1)]:
        f = f * factor(lo) ** m
    return f


@pytest.mark.parametrize("seed", range(12))
def test_squarefree_of_factors_free_of_x1_matches_sympy(seed):
    assert_sqf_list(_seeded_free_of_x1(seed))


def assert_sqf_list(f):
    d = squarefree_decompose(f)
    _, factors = sympy.sqf_list(to_sympy(f))
    want = {m: from_sympy(q) for q, m in factors if q.total_degree() > 0}
    assert sorted(d.multiplicities()) == sorted(want)
    for fac, m in d.factors:
        assert_associates(fac, want[m])
        assert rational_content(fac) == 1 and fac.terms[grlex_lead(fac.terms)] > 0
    assert d.reconstruct(f.nvars) == f
