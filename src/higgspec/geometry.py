"""Divisor-class arithmetic on a declared Neron-Severi lattice.

A surface is presented by named generators, a symmetric integer intersection
matrix, a canonical class and a polarization.  A class is an int vector over
one positive common denominator, in lowest terms, so half-classes (square
roots of declared line bundles) are representable and every pairing and
push-forward runs on ints; a Fraction is built only where a caller reads a
coordinate or a pairing.  Honest divisibility by two is checked where a
square root is required.
Torsion is never modelled structurally: only the declared count of order-two
elements enters, as a multiplicity on enumeration results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import DimensionMismatch, _typed

# Largest genus of a factor curve of a product model.
MAX_GENUS = 1000


def _num_den(x):
    """(numerator, denominator) of an int or a Fraction; anything else, bool included, is a TypeError."""
    t = type(x)
    if t is int:
        return x, 1
    if t is Fraction:
        return x.numerator, x.denominator
    raise TypeError(f"a class coordinate or factor must be an int or a Fraction, got {x!r}")


def _int_matrix(name, rows):
    """rows as a tuple of int tuples; a ValueError names the matrix and any entry that is not an int."""
    rows = tuple(tuple(row) for row in rows)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if type(x) is not int:
                raise ValueError(f"{name}[{i}][{j}] must be an int, got {x!r}")
    return rows


class NSClass:
    """A divisor class: a coordinate vector over the lattice generators.

    Stored as an int vector `v` over one positive denominator `den`, in lowest
    terms (gcd(den, *v) == 1).  That is the one canonical form, so equality
    and hashing compare (v, den); `coords` builds the Fractions on demand.
    Instances are immutable.
    """

    __slots__ = ("v", "den")

    def __init__(self, coords):
        pairs = [_num_den(c) for c in coords]
        den = math.lcm(*(d for _, d in pairs))
        # over the lcm of reduced denominators the vector is already in lowest terms
        object.__setattr__(self, "v", tuple(n * (den // d) for n, d in pairs))
        object.__setattr__(self, "den", den)

    @classmethod
    def from_parts(cls, pairs):
        """The class with coordinates p / q, from int pairs (p, q) in any terms, q != 0."""
        den = math.lcm(*[q for _, q in pairs])
        return cls._raw(tuple(p * (den // q) for p, q in pairs), den)

    @classmethod
    def _raw(cls, v, den):
        """The class v / den from an int tuple and a positive int, reduced here."""
        if den != 1:
            g = math.gcd(den, *v)
            if g != 1:
                v = tuple(x // g for x in v)
                den //= g
        obj = object.__new__(cls)
        object.__setattr__(obj, "v", v)
        object.__setattr__(obj, "den", den)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("NSClass is immutable")

    def __eq__(self, other):
        if type(other) is not NSClass:
            return NotImplemented
        return self.den == other.den and self.v == other.v

    def __hash__(self):
        return hash((self.v, self.den))

    def __repr__(self):
        return f"NSClass(coords={self.coords!r})"

    @property
    def coords(self):
        den = self.den
        return tuple(Fraction(x, den) for x in self.v)

    @classmethod
    def zero(cls, n):
        return cls._raw((0,) * n, 1)

    @property
    def dim(self):
        return len(self.v)

    def is_zero(self):
        return not any(self.v)

    def divisible_by_two(self):
        return self.den == 1 and not any(x & 1 for x in self.v)

    def __add__(self, other):
        self._check(other)
        d = math.lcm(self.den, other.den)
        s, t = d // self.den, d // other.den
        return NSClass._raw(tuple(a * s + b * t for a, b in zip(self.v, other.v)), d)

    def __sub__(self, other):
        self._check(other)
        d = math.lcm(self.den, other.den)
        s, t = d // self.den, d // other.den
        return NSClass._raw(tuple(a * s - b * t for a, b in zip(self.v, other.v)), d)

    def __mul__(self, c):
        n, d = _num_den(c)
        return NSClass._raw(tuple(a * n for a in self.v), self.den * d)

    __rmul__ = __mul__

    def __neg__(self):
        return NSClass._raw(tuple(-a for a in self.v), self.den)

    def half(self):
        return NSClass._raw(self.v, 2 * self.den)

    def _check(self, other):
        if not isinstance(other, NSClass) or other.dim != self.dim:
            raise DimensionMismatch(f"class dimensions disagree: {self} vs {other}")

    def to_json(self) -> str:
        """The coordinates as canonical JSON text: [{"den": q, "num": p}, ...], p / q in lowest terms."""
        den = self.den
        parts = []
        for x in self.v:
            g = math.gcd(x, den)
            parts.append(f'{{"den":{den // g},"num":{x // g}}}')
        return "[" + ",".join(parts) + "]"


@dataclass(frozen=True)
class SurfaceModel:
    """A projective surface presented by its declared intersection lattice."""

    generators: tuple
    Q: tuple
    K: NSClass
    omega: NSClass
    b1: int = 0
    torsion2_count: int = 1

    def __post_init__(self):
        n = len(self.generators)
        Q = _int_matrix("Q", self.Q)
        if len(Q) != n or any(len(r) != n for r in Q):
            raise DimensionMismatch("intersection matrix must match generator count")
        for i in range(n):
            for j in range(n):
                if Q[i][j] != Q[j][i]:
                    raise ValueError("intersection matrix must be symmetric")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.K.dim != n or self.omega.dim != n:
            raise DimensionMismatch("K and omega must live in the declared lattice")
        _typed("b1", self.b1, int)
        _typed("torsion2_count", self.torsion2_count, int)
        if self.b1 < 0 or self.torsion2_count < 0:
            raise ValueError("b1 and torsion2_count must be nonnegative")
        if self.pair(self.omega, self.omega) <= 0:
            raise ValueError("declared polarization must have positive self-intersection")

    @property
    def rank(self):
        return len(self.generators)

    def pair(self, x: NSClass, y: NSClass) -> Fraction:
        if x.dim != self.rank or y.dim != self.rank:
            raise DimensionMismatch("classes do not live in this lattice")
        return Fraction(_bilinear(self.Q, x.v, y.v), x.den * y.den)


def _bilinear(Q, xv, yv) -> int:
    """x^T Q y on int vectors."""
    total = 0
    for xi, row in zip(xv, Q):
        if xi:
            total += xi * sum(map(mul, row, yv))
    return total


# -- products of curves -------------------------------------------------------


@dataclass(frozen=True)
class ProductOfCurves:
    """C1 x C2 with fiber classes F1, F2: F1.F2 = 1, F1^2 = F2^2 = 0.

    Genera are capped at MAX_GENUS, so that the 2-torsion count
    2^(2 g1 + 2 g2), an exact integer in every report, stays printable.
    """

    g1: int
    g2: int

    def __post_init__(self):
        if not (0 <= self.g1 <= MAX_GENUS and 0 <= self.g2 <= MAX_GENUS):
            raise ValueError(f"genera must be 0..{MAX_GENUS}")

    @property
    def model(self) -> SurfaceModel:
        return SurfaceModel(
            generators=("F1", "F2"),
            Q=((0, 1), (1, 0)),
            K=NSClass((2 * self.g1 - 2, 2 * self.g2 - 2)),
            omega=NSClass((1, 1)),
            b1=2 * self.g1 + 2 * self.g2,
            torsion2_count=2 ** (2 * self.g1 + 2 * self.g2),
        )

    @property
    def F1(self):
        return NSClass((1, 0))

    @property
    def F2(self):
        return NSClass((0, 1))


# -- h^0 on curves -------------------------------------------------------------


def h0_curve(g: int, m: int) -> int:
    """h^0 of the canonical power omega_C^m on a genus-g curve."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if m < 0:
        raise ValueError("canonical powers need m >= 0")
    if m == 0:
        return 1
    if g == 0:
        return 0
    if g == 1:
        return 1
    return g if m == 1 else (2 * m - 1) * (g - 1)


# -- structure of the rank-one locus over a product of curves -------------------


@dataclass(frozen=True)
class BxComponent:
    """One component of the rank-one locus: a Veronese cone or a linear space."""

    label: str
    line_class: NSClass
    kind: str  # "V", "L" or "both"
    dim: int
    h0_omega_twist: int
    h0_Lsq: int


@dataclass(frozen=True)
class BxTable:
    components: tuple
    intersections: tuple  # ((label_i, label_j), dim)
    swapped: bool = False


def bx_decomposition(X: ProductOfCurves) -> BxTable:
    """Component table of the rank-one locus on a product of two curves.

    Components are indexed by the trivial bundle and the two pulled-back
    canonical bundles.  With the genera ordered g1 >= g2, O is a Veronese
    component (type V) of dimension g1 + g2 when g2 >= 1, each L_i = K_{C_i}
    is a linear component (type L) of dimension 3 g_i - 3 when g_i >= 2, O
    meets L_i in h0_curve(g_i, 1) dimensions and L1 meets L2 in 0.  The one
    exception is (1, 0): a single component O, both Veronese and linear.
    """
    g1, g2 = X.g1, X.g2
    swapped = g1 < g2
    if swapped:
        g1, g2 = g2, g1
    O = NSClass((0, 0))
    if (g1, g2) == (1, 0):
        return BxTable((BxComponent("O", O, "both", 1, 1, 1),), (), swapped)
    # line classes in the (swapped) convention: L_i = (2 g_i - 2) F_i
    lines = [("L1", g1, NSClass((2 * g1 - 2, 0))), ("L2", g2, NSClass((0, 2 * g2 - 2)))]
    lines = [line for line in lines if line[1] >= 2]
    comps = [BxComponent(label, L, "L", 3 * g - 3, 1, 3 * g - 3) for label, g, L in lines]
    inters = []
    if g2 >= 1:
        comps.insert(0, BxComponent("O", O, "V", g1 + g2, g1 + g2, 1))
        inters = [(("O", label), h0_curve(g, 1)) for label, g, _ in lines]
    if len(lines) == 2:
        inters.append((("L1", "L2"), 0))
    return BxTable(tuple(comps), tuple(inters), swapped)


# -- double-cover push-forward ---------------------------------------------------


@dataclass(frozen=True)
class CoverMap:
    """Declared numerical data of a double covering pi: X' -> X.

    P pushes cover classes to the base, `pullback` pulls base classes up;
    the projection formula (P x) . y = x .' (pullback y) is validated on the
    generator basis at construction.  L_class is the covering datum (half the
    branch class).
    """

    P: tuple
    cover_Q: tuple
    pullback: tuple
    L_class: NSClass
    base: SurfaceModel

    def __post_init__(self):
        nb = self.base.rank
        P = _int_matrix("P", self.P)
        nc = len(P[0]) if P else 0
        if len(P) != nb or any(len(r) != nc for r in P):
            raise DimensionMismatch("P must be (base rank) x (cover rank)")
        cQ = _int_matrix("cover_Q", self.cover_Q)
        if len(cQ) != nc or any(len(r) != nc for r in cQ):
            raise DimensionMismatch("cover intersection matrix has the wrong size")
        for i in range(nc):
            for j in range(nc):
                if cQ[i][j] != cQ[j][i]:
                    raise ValueError("cover intersection matrix must be symmetric")
        pb = _int_matrix("pullback", self.pullback)
        if len(pb) != nc or any(len(r) != nb for r in pb):
            raise DimensionMismatch("pullback must be (cover rank) x (base rank)")
        if self.L_class.dim != nb:
            raise DimensionMismatch("L_class must live in the base lattice")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "cover_Q", cQ)
        object.__setattr__(self, "pullback", pb)
        # (P x) . y = x .' (pullback y) on basis classes: (Q_base P)^T = cover_Q pullback
        base_Q = self.base.Q
        pb_cols = tuple(zip(*pb))
        for x, P_col in enumerate(zip(*P)):
            for y in range(nb):
                if sum(map(mul, base_Q[y], P_col)) != sum(map(mul, cQ[x], pb_cols[y])):
                    raise ValueError(
                        f"projection formula fails on cover basis {x}, base basis {y}"
                    )

    @property
    def cover_rank(self):
        return len(self.cover_Q)

    def push(self, x: NSClass) -> NSClass:
        if x.dim != self.cover_rank:
            raise DimensionMismatch("pushforward expects a cover class")
        return NSClass._raw(tuple(sum(map(mul, row, x.v)) for row in self.P), x.den)

    def cover_pair(self, x: NSClass, y: NSClass) -> Fraction:
        if x.dim != self.cover_rank or y.dim != self.cover_rank:
            raise DimensionMismatch("classes do not live on the cover")
        return Fraction(_bilinear(self.cover_Q, x.v, y.v), x.den * y.den)


def pushforward_c1(M_c1: NSClass, cover: CoverMap) -> NSClass:
    """c1 of the pushed-forward rank-two bundle: P . m - L."""
    return cover.push(M_c1) - cover.L_class


def pushforward_c2(M_c1: NSClass, cover: CoverMap) -> Fraction:
    """c2 of the push-forward: ((P m)^2 - m.m - (P m).L) / 2 on a surface."""
    pm = cover.push(M_c1)
    base = cover.base
    return (
        base.pair(pm, pm) - cover.cover_pair(M_c1, M_c1) - base.pair(pm, cover.L_class)
    ) / 2


def discriminant(c1: NSClass, c2: Fraction, model: SurfaceModel) -> Fraction:
    """4 c2 - c1^2; invariant under twisting by line bundles."""
    return 4 * Fraction(c2) - model.pair(c1, c1)
