import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from higgspec.errors import DimensionMismatch
from higgspec.geometry import (
    CoverMap,
    NSClass,
    ProductOfCurves,
    SurfaceModel,
    bx_decomposition,
    discriminant,
    h0_curve,
    pushforward_c1,
    pushforward_c2,
)


@pytest.fixture
def g22():
    return ProductOfCurves(2, 2)


@pytest.fixture
def etale_cover(g22):
    # C1~ x C2 -> C1 x C2 with C1~ -> C1 an unramified double cover
    return CoverMap(
        P=((1, 0), (0, 2)),
        cover_Q=((0, 1), (1, 0)),
        pullback=((2, 0), (0, 1)),
        L_class=NSClass((0, 0)),
        base=g22.model,
    )


# -- degrees --------------------------------------------------------------------


def test_degree_examples(g22):
    m = g22.model
    assert m.pair(m.K, g22.F1 + g22.F2) == 4
    assert m.pair(g22.F1, g22.F1) == 0
    assert m.pair(NSClass.zero(2), g22.F2) == 0


def test_degree_dimension_mismatch(g22):
    with pytest.raises(DimensionMismatch):
        g22.model.pair(NSClass((1, 2, 3)), g22.F1)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_degree_bilinear_symmetric(data):
    m = ProductOfCurves(2, 3).model
    draw = lambda: NSClass((data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5))))
    x, y, z = draw(), draw(), draw()
    c = data.draw(st.integers(-3, 3))
    assert m.pair(x, y) == m.pair(y, x)
    assert m.pair(x + z, y) == m.pair(x, y) + m.pair(z, y)
    assert m.pair(x * c, y) == c * m.pair(x, y)


def test_polarization_must_be_positive():
    with pytest.raises(ValueError):
        SurfaceModel(
            generators=("a",),
            Q=((-1,),),
            K=NSClass((0,)),
            omega=NSClass((1,)),
        )


@pytest.mark.parametrize("bad", [1.7, "1", True])
def test_integer_matrices_refuse_other_entries(g22, bad):
    # no entry is coerced: 1.7, "1" and True would all read as the int 1
    with pytest.raises(ValueError, match=re.escape("Q[0][1]")):
        SurfaceModel(("F1", "F2"), ((0, bad), (1, 0)), NSClass((0, 0)), NSClass((1, 1)))
    good = {"P": ((1, 0), (0, 2)), "cover_Q": ((0, 1), (1, 0)), "pullback": ((2, 0), (0, 1))}
    for name in good:
        rows = [list(r) for r in good[name]]
        rows[1][0] = bad
        with pytest.raises(ValueError, match=re.escape(f"{name}[1][0]")):
            CoverMap(**{**good, name: rows}, L_class=NSClass((0, 0)), base=g22.model)


# -- products and the component table ----------------------------------------------


EXPECTED_BX = {
    (0, 0): [],
    (1, 0): [("O", "both", 1)],
    (2, 0): [("L1", "L", 3)],
    (3, 0): [("L1", "L", 6)],
    (1, 1): [("O", "V", 2)],
    (2, 1): [("O", "V", 3), ("L1", "L", 3)],
    (3, 1): [("O", "V", 4), ("L1", "L", 6)],
    (2, 2): [("O", "V", 4), ("L1", "L", 3), ("L2", "L", 3)],
    (3, 2): [("O", "V", 5), ("L1", "L", 6), ("L2", "L", 3)],
    (3, 3): [("O", "V", 6), ("L1", "L", 6), ("L2", "L", 6)],
}


@pytest.mark.parametrize("g1,g2", [(a, b) for a in range(4) for b in range(4)])
def test_bx_dimension_table(g1, g2):
    table = bx_decomposition(ProductOfCurves(g1, g2))
    got = [(c.label, c.kind, c.dim) for c in table.components]
    assert got == EXPECTED_BX[(max(g1, g2), min(g1, g2))]


def test_bx_intersections_genus_2_3():
    table = bx_decomposition(ProductOfCurves(2, 3))
    assert [c.dim for c in table.components] == [5, 6, 3]
    assert dict(table.intersections) == {("O", "L1"): 3, ("O", "L2"): 2, ("L1", "L2"): 0}


def test_bx_component_invariants():
    for g1 in range(4):
        for g2 in range(4):
            for c in bx_decomposition(ProductOfCurves(g1, g2)).components:
                if c.kind in ("V", "both"):
                    assert c.h0_Lsq == 1
                if c.kind in ("L", "both"):
                    assert c.h0_omega_twist == 1
                if c.kind == "both":
                    assert c.dim == 1


# -- h^0 -----------------------------------------------------------------------------


def test_h0_examples():
    assert h0_curve(2, 2) == 3
    assert h0_curve(3, 1) == 3
    assert h0_curve(5, 0) == 1
    assert h0_curve(1, 7) == 1
    assert h0_curve(0, 3) == 0
    with pytest.raises(ValueError):
        h0_curve(2, -1)
    with pytest.raises(ValueError):
        h0_curve(-1, 1)


# -- covers and Chern classes -----------------------------------------------------------


def test_projection_formula_validated(g22):
    # the first failing (x, y), x outermost, as the basis-class loop found it
    cases = [
        (((1, 0), (0, 2)), ((0, 1), (1, 0)), ((1, 0), (0, 1)), "cover basis 1, base basis 0"),
        (((1, 0), (0, 2)), ((0, 1), (1, 0)), ((2, 1), (0, 1)), "cover basis 1, base basis 1"),
        (((2, 0, 0), (0, 2, 0)), ((0, 2, 0), (2, 0, 0), (0, 0, -1)), ((1, 0), (0, 1), (0, 1)),
         "cover basis 2, base basis 1"),
    ]
    for P, cover_Q, pullback, where in cases:
        with pytest.raises(ValueError, match=f"^projection formula fails on {where}$"):
            CoverMap(P=P, cover_Q=cover_Q, pullback=pullback, L_class=NSClass((0, 0)), base=g22.model)


def test_pushforward_examples(etale_cover):
    assert pushforward_c1(NSClass((0, 1)), etale_cover) == NSClass((0, 2))
    # trivial module: c1 = -L, c2 = 0
    assert pushforward_c1(NSClass.zero(2), etale_cover) == NSClass((0, 0))
    assert pushforward_c2(NSClass.zero(2), etale_cover) == 0


def test_pushforward_with_nonzero_L(g22):
    cm = CoverMap(
        P=((1, 0), (0, 2)),
        cover_Q=((0, 1), (1, 0)),
        pullback=((2, 0), (0, 1)),
        L_class=NSClass((2, 0)),
        base=g22.model,
    )
    assert pushforward_c1(NSClass.zero(2), cm) == NSClass((-2, 0))
    assert pushforward_c2(NSClass.zero(2), cm) == 0
    # (P m)^2 - m.m - (P m).L over 2 with m = F2~
    m = NSClass((0, 1))
    assert pushforward_c2(m, cm) == Fraction(0 - 0 - 4, 2)


def test_identity_cover_c2_vanishes(g22):
    cm = CoverMap(
        P=((1, 0), (0, 1)),
        cover_Q=g22.model.Q,
        pullback=((1, 0), (0, 1)),
        L_class=NSClass((0, 0)),
        base=g22.model,
    )
    for coords in [(1, 2), (-3, 5), (0, 0)]:
        assert pushforward_c2(NSClass(coords), cm) == 0


# -- discriminant -------------------------------------------------------------------------


def test_discriminant_examples(g22):
    m = g22.model
    assert discriminant(NSClass((0, 0)), 0, m) == 0
    assert discriminant(g22.F1 + g22.F2, 1, m) == 2


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_discriminant_twist_invariance(data):
    n = data.draw(st.integers(2, 3))
    Q = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            Q[i][j] = Q[j][i] = data.draw(st.integers(-3, 3))
    Q[0][0] = abs(Q[0][0]) + 1
    model = SurfaceModel(
        generators=tuple(f"e{i}" for i in range(n)),
        Q=tuple(tuple(r) for r in Q),
        K=NSClass((0,) * n),
        omega=NSClass(tuple(1 if i == 0 else 0 for i in range(n))),
    )
    c1 = NSClass(tuple(data.draw(st.integers(-5, 5)) for _ in range(n)))
    ell = NSClass(tuple(data.draw(st.integers(-5, 5)) for _ in range(n)))
    c2 = Fraction(data.draw(st.integers(-9, 9)), data.draw(st.sampled_from([1, 2])))
    twisted = discriminant(
        c1 + 2 * ell, c2 + model.pair(c1, ell) + model.pair(ell, ell), model
    )
    assert twisted == discriminant(c1, c2, model)


def test_half_classes():
    c = NSClass((1, 3))
    assert not c.divisible_by_two()
    assert (c * 2).divisible_by_two()
    assert c.half() == NSClass((Fraction(1, 2), Fraction(3, 2)))
    h = c.half()
    assert (h.v, h.den) == ((1, 3), 2)
    assert not h.divisible_by_two() and not (h * 2).divisible_by_two()
    assert (h * 4).divisible_by_two() and (h * 4).half().half() == h
    assert NSClass((2, -4)).half() == NSClass((1, -2)) and NSClass((2, -4)).half().den == 1
    assert NSClass((Fraction(4, 2), 0)).divisible_by_two()


# -- the canonical form: an int vector over one denominator, in lowest terms ----------


def test_spellings_of_one_class_are_equal():
    a, b = NSClass((Fraction(2, 4), 1)), NSClass((Fraction(1, 2), 1))
    assert a == b and hash(a) == hash(b)
    assert (a.v, a.den) == ((1, 2), 2)
    assert NSClass((Fraction(4, 2), 6)) == NSClass((2, 6)) and NSClass((2, 6)).den == 1
    assert NSClass((1, 0)) != NSClass((Fraction(1, 2), 0))
    assert NSClass((0, 0)) == NSClass.zero(2) and NSClass.zero(2).den == 1


def test_to_json_reduces_each_coordinate():
    c = NSClass((Fraction(1, 2), Fraction(1, 3), 2))
    assert (c.v, c.den) == ((3, 2, 12), 6)
    assert c.to_json() == '[{"den":2,"num":1},{"den":3,"num":1},{"den":1,"num":2}]'
    assert NSClass((0, Fraction(-3, 4))).to_json() == '[{"den":1,"num":0},{"den":4,"num":-3}]'
    assert c.coords == (Fraction(1, 2), Fraction(1, 3), Fraction(2))
    # the CLI reads a class back from its (num, den) pairs
    assert NSClass.from_parts([(t["num"], t["den"]) for t in json.loads(c.to_json())]) == c
    # pairs in any terms, a negative denominator included, reach the same canonical form
    d = NSClass.from_parts([(2, 4), (-1, -3), (4, 2)])
    assert d == c and (d.v, d.den) == (c.v, c.den)


@pytest.mark.parametrize("bad", ["1.5", "2/4", True, 1.5, None])
def test_class_coordinates_and_factors_are_int_or_fraction(bad):
    with pytest.raises(TypeError):
        NSClass((bad, 2))
    with pytest.raises(TypeError):
        NSClass((1, 2)) * bad
    with pytest.raises(TypeError):
        bad * NSClass((1, 2))
    assert NSClass((1, 2)) * Fraction(1, 2) == 2 * NSClass((Fraction(1, 4), Fraction(1, 2)))


def test_arithmetic_keeps_lowest_terms():
    x, y = NSClass((Fraction(1, 2), Fraction(1, 3))), NSClass((Fraction(1, 6), Fraction(2, 3)))
    s, d = x + y, x - y
    assert s.coords == (Fraction(2, 3), Fraction(1)) and s.den == 3
    assert d.coords == (Fraction(1, 3), Fraction(-1, 3)) and d.den == 3
    assert x + (-x) == NSClass.zero(2) and (x + (-x)).den == 1
    t = x * Fraction(2, 3)
    assert t.coords == (Fraction(1, 3), Fraction(2, 9)) and t.den == 9
    assert Fraction(2, 3) * x == t and 3 * x == x * 3
    z = x * 0
    assert z == NSClass.zero(2) and (z.v, z.den) == ((0, 0), 1) and z.is_zero()
    with pytest.raises(TypeError):
        x * 0.5


def test_classes_are_immutable():
    c = NSClass((1, 2))
    for name, value in (("v", (3, 4)), ("den", 2), ("coords", (1,)), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(c, name, value)
    assert c == NSClass((1, 2))
