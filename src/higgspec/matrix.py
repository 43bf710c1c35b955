"""Exact linear algebra over the polynomial ring.

Matrices are tuples of tuples of :class:`~higgspec.poly.Poly`, so two of
the same shape are equal exactly when tuple ``==`` says so.  Besides that
equality the library needs only products, scalings, traces and determinants:
integrability is B_i B_j == B_j B_i and the correspondence checks eta^2 ==
-tau * Id, both on mat_mul.  Determinants use cofactor expansion, every 2x2
one through poly.det2, so sizes are capped at five and entry degrees at
twelve; the characteristic polynomial has two independent routes, a
Faddeev-LeVerrier recursion and a cofactor expansion in an adjoined variable.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegreeCapExceeded, InvalidInput
from .poly import Poly, det2

MAX_SIZE = 5
MAX_ENTRY_DEGREE = 12


def as_matrix(rows):
    rows = tuple(tuple(r) for r in rows)
    r = len(rows)
    if r == 0 or any(len(row) != r for row in rows):
        raise InvalidInput("matrix must be square and nonempty")
    nvars = rows[0][0].nvars
    for row in rows:
        for p in row:
            if not isinstance(p, Poly) or p.nvars != nvars:
                raise InvalidInput("entries must be Poly with a common nvars")
    return rows


def _check_caps(rows, op):
    r = len(rows)
    if r > MAX_SIZE:
        raise DegreeCapExceeded(f"{op}: matrix size {r} exceeds cap {MAX_SIZE}")
    d = max(p.total_degree() for row in rows for p in row)
    if d > MAX_ENTRY_DEGREE:
        raise DegreeCapExceeded(
            f"{op}: entry degree {d} exceeds cap {MAX_ENTRY_DEGREE}"
        )


def mat_scale(a, c):
    return tuple(tuple(x * c for x in row) for row in a)


def mat_mul(a, b):
    a = as_matrix(a)
    b = as_matrix(b)
    r = len(a)
    nvars = a[0][0].nvars
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            acc = Poly.zero(nvars)
            for k in range(r):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_trace(a):
    a = as_matrix(a)
    acc = Poly.zero(a[0][0].nvars)
    for i in range(len(a)):
        acc = acc + a[i][i]
    return acc


def _det_cofactor(rows):
    r = len(rows)
    if r == 1:
        return rows[0][0]
    if r == 2:
        return det2(rows[0][0], rows[1][1], rows[0][1], rows[1][0])
    # expand along the row with the most zero entries
    best = max(range(r), key=lambda i: sum(1 for p in rows[i] if p.is_zero()))
    nvars = rows[0][0].nvars
    acc = Poly.zero(nvars)
    for j, entry in enumerate(rows[best]):
        if entry.is_zero():
            continue
        minor = tuple(
            tuple(row[k] for k in range(r) if k != j)
            for i, row in enumerate(rows)
            if i != best
        )
        term = entry * _det_cofactor(minor)
        acc = acc + term if (best + j) % 2 == 0 else acc - term
    return acc


def mat_det(rows):
    rows = as_matrix(rows)
    _check_caps(rows, "det")
    return _det_cofactor(rows)


def charpoly(rows):
    """Monic characteristic polynomial of det(tI - M) by Faddeev-LeVerrier.

    Returns the coefficient list [1, c1, ..., cr] of t^r + c1 t^{r-1} + ... + cr.
    """
    rows = as_matrix(rows)
    _check_caps(rows, "charpoly")
    r = len(rows)
    coeffs = [Poly.one(rows[0][0].nvars)]
    n = rows
    for k in range(1, r + 1):
        ck = mat_trace(n) * Fraction(-1, k)
        coeffs.append(ck)
        if k < r:
            n = mat_mul(rows, [[p + ck if i == j else p for j, p in enumerate(row)] for i, row in enumerate(n)])
    return coeffs


def charpoly_cofactor(rows):
    """det(tI - M) by cofactor expansion with t adjoined as a trailing variable.

    Independent of :func:`charpoly`; used as the oracle route for
    characteristic-coefficient checks.
    """
    rows = as_matrix(rows)
    _check_caps(rows, "charpoly")
    r = len(rows)
    nvars = rows[0][0].nvars
    t = Poly.variable(nvars + 1, nvars)
    lifted = tuple(
        tuple((t if i == j else Poly.zero(nvars + 1)) - rows[i][j].lift() for j in range(r))
        for i in range(r)
    )
    return _det_cofactor(lifted)


def charpoly_from_coeffs(coeffs, nvars):
    """Assemble the charpoly Poly in nvars+1 variables from a coefficient list."""
    r = len(coeffs) - 1
    t = Poly.variable(nvars + 1, nvars)
    acc = Poly.zero(nvars + 1)
    for k, c in enumerate(coeffs):
        acc = acc + c.lift() * t ** (r - k)
    return acc

