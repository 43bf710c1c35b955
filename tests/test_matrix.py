import pytest
from hypothesis import given, settings, strategies as st

from higgspec.errors import DegreeCapExceeded
from higgspec.matrix import (
    charpoly,
    charpoly_cofactor,
    charpoly_from_coeffs,
    commutator,
    identity_matrix,
    mat_det,
    mat_eq,
    mat_mul,
    mat_trace,
    zero_matrix,
)
from higgspec.poly import Poly

P = Poly.from_text


def consts(nvars, rows):
    return tuple(tuple(Poly.constant(nvars, c) for c in row) for row in rows)


def test_det_eta_action():
    tau = Poly.variable(1, 0)
    m = ((Poly.zero(1), -tau), (Poly.one(1), Poly.zero(1)))
    assert mat_det(m) == tau


def test_commutator_of_diagonals_vanishes():
    a = consts(1, [[2, 0], [0, 5]])
    b = consts(1, [[-1, 0], [0, 7]])
    assert mat_eq(commutator(a, b), zero_matrix(2, 1))


def test_charpoly_companion_2x2():
    c2 = Poly.variable(1, 0)
    comp = ((Poly.zero(1), c2), (Poly.one(1), Poly.zero(1)))
    assert charpoly(comp) == [Poly.one(1), Poly.zero(1), -c2]


def test_charpoly_routes_agree_3x3():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    m = (
        (x, y, Poly.one(2)),
        (Poly.zero(2), x * y, y),
        (Poly.one(2), Poly.zero(2), x + y),
    )
    assert charpoly_from_coeffs(charpoly(m), 2) == charpoly_cofactor(m)


@given(st.integers(2, 4), st.data())
@settings(max_examples=30, deadline=None)
def test_charpoly_routes_agree_random(r, data):
    rows = tuple(
        tuple(Poly.constant(1, data.draw(st.integers(-4, 4))) for _ in range(r))
        for _ in range(r)
    )
    x = Poly.variable(1, 0)
    rows = tuple(
        tuple(rows[i][j] + (x if (i + j) % 2 else Poly.zero(1)) for j in range(r))
        for i in range(r)
    )
    assert charpoly_from_coeffs(charpoly(rows), 1) == charpoly_cofactor(rows)


def test_det_multiplicative_on_constants():
    a = consts(1, [[1, 2], [3, 4]])
    b = consts(1, [[0, 1], [1, 1]])
    assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)


def test_trace_and_ops_bundle():
    m = consts(1, [[1, 2], [3, 4]])
    assert mat_trace(m) == Poly.constant(1, 5)
    assert mat_det(m) == Poly.constant(1, -2)
    assert charpoly(m) == [Poly.one(1), Poly.constant(1, -5), Poly.constant(1, -2)]


def test_size_cap():
    m = identity_matrix(6, 1)
    with pytest.raises(DegreeCapExceeded):
        mat_det(m)


def test_degree_cap():
    big = Poly.variable(1, 0) ** 13
    m = ((big, Poly.zero(1)), (Poly.zero(1), Poly.one(1)))
    with pytest.raises(DegreeCapExceeded):
        mat_det(m)
    with pytest.raises(DegreeCapExceeded):
        charpoly(m)
