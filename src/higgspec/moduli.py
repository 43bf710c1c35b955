"""Stability verdicts, the Hitchin section, real enumeration and rigidity.

Stability is decided only for the split shapes whose case analyses are
complete at this level of description; arbitrary bundles are out of scope.
The Hitchin section has a chart backend (emits an honest Higgs field and
re-applies the spectral morphism to it) and a lattice backend (emits divisor
classes and numerical verdicts).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub
from typing import Optional

from .errors import (
    DegreeCapExceeded,
    DegreeOrderViolation,
    InconsistentBranchData,
    NilpotentDatum,
    NotApplicable,
    RankCap,
    VerificationFailure,
    ZeroHiggsUnsupported,
    _typed,
)
from .geometry import NSClass, SurfaceModel
from .matrix import identity_matrix, mat_scale
from .poly import Poly
from .spectral import (
    HiggsField,
    OneForm,
    RankOneFactorization,
    SpectralDatum,
    factor_rank_one,
    hitchin_map,
)


class Stability(enum.Enum):
    STABLE = "stable"
    POLYSTABLE = "polystable"
    NOT_STABLE = "not_stable"


# -- fixed points of the scaling action -----------------------------------------


def hodge_stability(d1: Fraction, d2: Fraction, alpha_nonzero: bool) -> Stability:
    """Stability of a Hodge bundle L1 + L2 with strictly triangular field."""
    if not alpha_nonzero:
        raise ZeroHiggsUnsupported("the fixed-point criterion assumes a nonzero field")
    return Stability.STABLE if Fraction(d1) > Fraction(d2) else Stability.NOT_STABLE


# -- real Higgs bundles -----------------------------------------------------------


@dataclass(frozen=True)
class SplitHiggsDescription:
    """A real rank-two shape L1 + L2 with field [[w, beta], [alpha, w]]."""

    L1: NSClass
    L2: NSClass
    model: SurfaceModel
    alpha_nonzero: bool
    beta_nonzero: bool
    alpha_beta_proportional: bool
    L1_iso_L2: bool

    def __post_init__(self):
        if self.L1_iso_L2:
            omega = self.model.omega
            if self.model.pair(self.L1, omega) != self.model.pair(self.L2, omega):
                raise ValueError("isomorphic summands must have equal degrees")
        if (not self.alpha_nonzero or not self.beta_nonzero) and not self.alpha_beta_proportional:
            raise ValueError("a vanishing entry is proportional to anything")


def real_stability(desc: SplitHiggsDescription) -> Stability:
    """Case analysis for real split shapes, ordered with deg L1 >= deg L2 against the polarization."""
    model = desc.model
    d1 = model.pair(desc.L1, model.omega)
    d2 = model.pair(desc.L2, model.omega)
    if d1 < d2:
        raise DegreeOrderViolation("order the summands so that deg L1 >= deg L2")
    if d1 > d2:
        return Stability.STABLE if desc.alpha_nonzero else Stability.NOT_STABLE
    if not desc.L1_iso_L2:
        return (
            Stability.STABLE
            if (desc.alpha_nonzero and desc.beta_nonzero)
            else Stability.NOT_STABLE
        )
    return Stability.POLYSTABLE if desc.alpha_beta_proportional else Stability.STABLE


# -- the Hitchin section -----------------------------------------------------------


@dataclass(frozen=True)
class LatticeSectionDatum:
    """Lattice-level input: the twisting class L and the branch class D = 2L."""

    L: NSClass
    D: NSClass
    model: SurfaceModel

    def __post_init__(self):
        if self.D != self.L * 2:
            raise InconsistentBranchData("the branch class must equal 2 L")


@dataclass(frozen=True)
class HitchinSectionOutput:
    stability: Stability
    real: bool
    field: Optional[HiggsField] = None
    factorization: Optional[RankOneFactorization] = None
    branch: Optional[str] = None  # "generic" | "unit_branch" | "nilpotent_diagonal"
    E_classes: Optional[tuple] = None
    psl2r_condition: Optional[bool] = None
    sl2r_condition: Optional[bool] = None
    identity_checked: bool = False


def _section_field(s1: OneForm, f: RankOneFactorization) -> HiggsField:
    """B_i = [[s1_i / 2, -alpha_i tau], [alpha_i, s1_i / 2]]."""
    n = s1.dim
    half = Fraction(1, 2)
    mats = []
    for i in range(n):
        w = s1[i] * half
        mats.append(((w, -f.alpha[i] * f.tau), (f.alpha[i], w)))
    return HiggsField(tuple(mats))


def hitchin_section(d) -> HitchinSectionOutput:
    """Right inverse of the spectral morphism, on either backend.

    Chart backend (SpectralDatum): factor Q = s2 - s1 s1^T / 4 as tau alpha^2,
    emit the section field and re-check the roundtrip identity exactly
    (VerificationFailure names the identity if it fails).  A
    datum with Q = 0 but s1 != 0 yields the diagonal field; the origin is
    rejected.  Lattice backend (LatticeSectionDatum): emit bundle classes and
    the stability / real-form verdicts.
    """
    if isinstance(d, SpectralDatum):
        return _hitchin_section_chart(d)
    if isinstance(d, LatticeSectionDatum):
        return _hitchin_section_lattice(d)
    raise TypeError("expected a SpectralDatum or a LatticeSectionDatum")


def _hitchin_section_chart(d: SpectralDatum) -> HitchinSectionOutput:
    q = d.quarter_defect()
    if q.is_zero():
        if d.s1.is_zero():
            raise NilpotentDatum("the section is undefined at (0, 0)")
        n = d.dim
        half = Fraction(1, 2)
        mats = tuple(
            mat_scale(identity_matrix(2, n), d.s1[i] * half) for i in range(n)
        )
        field = HiggsField(mats)
        if hitchin_map(field) != d:
            raise VerificationFailure("section identity sh(chi(s)) = s failed on the diagonal branch")
        return HitchinSectionOutput(
            stability=Stability.POLYSTABLE,
            real=True,
            field=field,
            branch="nilpotent_diagonal",
            identity_checked=True,
        )
    f = factor_rank_one(q)
    field = _section_field(d.s1, f)
    if hitchin_map(field) != d:
        raise VerificationFailure("section identity sh(chi(s)) = s failed")
    unit_branch = f.tau.is_constant()
    return HitchinSectionOutput(
        stability=Stability.POLYSTABLE if unit_branch else Stability.STABLE,
        real=True,
        field=field,
        factorization=f,
        branch="unit_branch" if unit_branch else "generic",
        identity_checked=True,
    )


def _hitchin_section_lattice(d: LatticeSectionDatum) -> HitchinSectionOutput:
    model = d.model
    zero = NSClass.zero(model.rank)
    psl2r = model.pair(d.D, d.D) == 0
    sl2r = psl2r and d.L.divisible_by_two()
    return HitchinSectionOutput(
        stability=Stability.STABLE if not d.D.is_zero() else Stability.POLYSTABLE,
        real=True,
        E_classes=(zero, -d.L),
        psl2r_condition=psl2r,
        sl2r_condition=sl2r,
    )


def cstar_scale(d: SpectralDatum, t) -> SpectralDatum:
    """Base weights of the scaling action: (s1, s2) -> (t s1, t^2 s2)."""
    t = Fraction(t)
    return SpectralDatum(d.s1.scale(t), d.s2.scale(t * t))


# -- SL2(R) enumeration -------------------------------------------------------------


@dataclass(frozen=True)
class SL2RDatum:
    """A branch splitting D = D1 + D2 with square-rootable twisting class."""

    D1: NSClass
    D2: NSClass
    N_class: NSClass
    torsion_multiplicity: int
    tuple_a: tuple


MAX_SL2R_TUPLES = 2**16


def sl2r_enumerate(components, L: NSClass, model: SurfaceModel):
    """All splittings of the branch divisor passing the two numerical tests.

    components is [(c_i, m_i), ...] with sum m_i c_i = 2 L.  A tuple (a_i),
    0 <= a_i <= m_i, gives D1 = sum a_i c_i and D2 = 2 L - D1; it is kept iff
    (D1 - D2)^2 = 0 and D1 - L is divisible by two in the lattice.  Torsion
    only multiplies the count.

    Both tests run on integers.  With G_ij = c_i . c_j the Gram matrix of the
    components and b_i = 2 a_i - m_i, (D1 - D2)^2 = b^T G b.  With d the
    common denominator of the c_i and L, x = d (D1 - L) = sum a_i d c_i - d L,
    and D1 - L is even iff every coordinate of x is 0 mod 2 d.  The
    prod(m_i + 1) tuples are walked in itertools.product order as an
    odometer, the last digit fastest, keeping x, G b and b^T G b as running
    values: stepping a_i by one adds d c_i to x, 2 G_i to G b and
    4 ((G b)_i + G_ii) to b^T G b; resetting a_i from m_i to 0 takes m_i
    times the same steps back (the square term then reads 4 m_i^2 G_ii).  So
    a step costs O(rank + k), not O(k rank).  D1, D2 and N are built from
    x, once per distinct x: kept tuples with equal x share them.  More than
    MAX_SL2R_TUPLES tuples raise DegreeCapExceeded before the first one.
    """
    components = [(c, _typed("multiplicity", m, int)) for c, m in components]
    total = NSClass.zero(model.rank)
    for c, m in components:
        if m < 0:
            raise InconsistentBranchData("multiplicities must be nonnegative")
        total = total + c * m
    if total != L * 2:
        raise InconsistentBranchData("component sum must equal 2 L")
    ms = [m for _, m in components]
    count = math.prod(m + 1 for m in ms)
    if count > MAX_SL2R_TUPLES:
        raise DegreeCapExceeded(f"sl2r enumeration of {count} tuples exceeds cap {MAX_SL2R_TUPLES}")
    classes = [c for c, _ in components]
    gram = [[model.pair(x, y) for y in classes] for x in classes]
    g = math.lcm(*(v.denominator for row in gram for v in row))
    G = [[int(v * g) for v in row] for row in gram]
    d = math.lcm(L.den, *(c.den for c in classes))
    C = [[x * (d // c.den) for x in c.v] for c in classes]
    dL = tuple(x * (d // L.den) for x in L.v)
    two_d = 2 * d
    torsion = model.torsion2_count
    k = len(ms)
    # per digit: the step of x and of G b, and m_i times each for the reset
    steps = [(C[i], [2 * v for v in G[i]], 4 * G[i][i]) for i in range(k)]
    resets = [([m * v for v in C[i]], [2 * m * v for v in G[i]], 4 * m * m * G[i][i], 4 * m)
              for i, m in enumerate(ms)]
    a = [0] * k
    x = [-v for v in dL]
    Gb = [-sum(map(mul, row, ms)) for row in G]
    q = -sum(map(mul, ms, Gb))
    out = []
    classes_at = {}  # x -> (D1, D2, N): tuples with the same x share one set of classes
    while True:
        if not q and not any(xj % two_d for xj in x):
            key = tuple(x)
            D = classes_at.get(key)
            if D is None:
                D = classes_at[key] = (
                    NSClass._raw(tuple(map(add, x, dL)), d),
                    NSClass._raw(tuple(map(sub, dL, x)), d),
                    NSClass._raw(tuple(xj // two_d for xj in x), 1),  # x is 0 mod 2 d
                )
            out.append(SL2RDatum(D1=D[0], D2=D[1], N_class=D[2], torsion_multiplicity=torsion, tuple_a=tuple(a)))
        i = k - 1
        while i >= 0 and a[i] == ms[i]:
            dx, dGb, sq, scale = resets[i]
            q += sq - scale * Gb[i]
            x = list(map(sub, x, dx))
            Gb = list(map(sub, Gb, dGb))
            a[i] = 0
            i -= 1
        if i < 0:
            return out
        dx, dGb, sq = steps[i]
        q += sq + 4 * Gb[i]
        x = list(map(add, x, dx))
        Gb = list(map(add, Gb, dGb))
        a[i] += 1


# -- Toledo / Milnor-Wood -------------------------------------------------------------


@dataclass(frozen=True)
class MilnorWoodReport:
    toledo: Fraction
    bound: Fraction
    holds: bool


def milnor_wood_check(
    W: NSClass, gamma: NSClass, model: SurfaceModel, K_pseff: bool
) -> MilnorWoodReport:
    """|deg_gamma W| <= deg_gamma(K)/2 for a declared non-uniruled model."""
    if not K_pseff:
        raise NotApplicable("the degree bound needs K pseudoeffective (non-uniruled)")
    toledo = model.pair(W, gamma)
    bound = model.pair(model.K, gamma) / 2
    return MilnorWoodReport(toledo, bound, abs(toledo) <= bound)


# -- rigidity ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopologicalData:
    picard_number_one: bool
    b1: int
    double_cover_b1s: tuple = ()

    def __post_init__(self):
        if self.b1 < 0 or any(b < 0 for b in self.double_cover_b1s):
            raise ValueError("Betti numbers are nonnegative")
        object.__setattr__(self, "double_cover_b1s", tuple(self.double_cover_b1s))


@dataclass(frozen=True)
class RigidityVerdict:
    status: str  # "rigid" | "not_rigid" | "undecided"
    reason: Optional[str] = None


def rigidity_verdict(t: TopologicalData) -> RigidityVerdict:
    """Rigidity of the rank-two character variety from declared topology.

    b1 != 0 obstructs rigidity unconditionally.  With b1 = 0 the full
    if-and-only-if needs Picard number one: rigid exactly when every declared
    unramified double cover also has b1 = 0; without that hypothesis the
    verdict is undecided.
    """
    if t.b1 != 0:
        return RigidityVerdict("not_rigid", f"b1 = {t.b1} != 0")
    if not t.picard_number_one:
        return RigidityVerdict("undecided", "criterion needs Picard number one when b1 = 0")
    bad = [i for i, b in enumerate(t.double_cover_b1s) if b != 0]
    if bad:
        return RigidityVerdict(
            "not_rigid", f"double cover {bad[0]} has b1 = {t.double_cover_b1s[bad[0]]}"
        )
    return RigidityVerdict("rigid", None)


# -- higher-rank companion fields ----------------------------------------------------


MAX_COMPANION_RANK = 5


def higher_rank_build(n: int, coeffs):
    """Companion-shaped field: first row (0, c2, ..., cn), ones on the subdiagonal."""
    if not 2 <= n <= MAX_COMPANION_RANK:
        raise RankCap(f"rank {n} outside 2..{MAX_COMPANION_RANK}")
    coeffs = tuple(coeffs)
    if len(coeffs) != n - 1:
        raise ValueError(f"expected {n - 1} coefficients c2..c{n}")
    nvars = coeffs[0].nvars
    if any(c.nvars != nvars for c in coeffs):
        raise ValueError("coefficients must share nvars")
    z = Poly.zero(nvars)
    one = Poly.one(nvars)
    rows = [tuple([z] + list(coeffs))]
    for i in range(1, n):
        rows.append(tuple(one if j == i - 1 else z for j in range(n)))
    return tuple(rows)


def companion_charpoly_expected(n: int, coeffs, nvars: int) -> Poly:
    """lambda^n - sum_i c_i lambda^(n-i), in nvars+1 variables (lambda last).

    The sign convention is frozen from the cofactor-expansion oracle at
    n = 2, 3 and recorded in data/charpoly_convention.json.
    """
    lam = Poly.variable(nvars + 1, nvars)
    acc = lam**n
    for i, c in enumerate(coeffs, start=2):
        acc = acc - c.lift() * lam ** (n - i)
    return acc


def higher_rank_charcheck(rows) -> bool:
    """Cofactor charpoly of a companion-shaped field reproduces its first row."""
    from .matrix import charpoly_cofactor

    n = len(rows)
    coeffs = rows[0][1:]
    nvars = rows[0][0].nvars
    return charpoly_cofactor(rows) == companion_charpoly_expected(n, coeffs, nvars)
