"""Stability verdicts, the Hitchin section, real enumeration and rigidity.

Stability is decided only for the split shapes whose case analyses are
complete at this level of description; arbitrary bundles are out of scope.
The Hitchin section has a chart backend (emits an honest Higgs field and
re-applies the spectral morphism to it) and a lattice backend (emits divisor
classes and numerical verdicts).  The package's other modules (geometry, and
the chart modules poly, matrix and spectral) are imported only inside the
functions that use them, so the lattice functions run without the chart
modules and the rigidity verdict without geometry.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import (
    DegreeCapExceeded,
    DegreeOrderViolation,
    InconsistentBranchData,
    InvalidInput,
    NilpotentDatum,
    NotApplicable,
    RankCap,
    VerificationFailure,
    ZeroHiggsUnsupported,
    _typed,
)

if TYPE_CHECKING:
    from .geometry import NSClass, SurfaceModel
    from .spectral import HiggsField, RankOneFactorization, SpectralDatum


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
                raise InvalidInput("isomorphic summands must have equal degrees")
        if (not self.alpha_nonzero or not self.beta_nonzero) and not self.alpha_beta_proportional:
            raise InvalidInput("a vanishing entry is proportional to anything")


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


def hitchin_section(d) -> HitchinSectionOutput:
    """Right inverse of the spectral morphism, on either backend.

    Chart backend (SpectralDatum): factor Q = s2 - s1 s1^T / 4 as tau alpha^2,
    emit the section field and re-check the roundtrip identity exactly
    (VerificationFailure names the identity if it fails).  A
    datum with Q = 0 but s1 != 0 yields the diagonal field; the origin is
    rejected.  Lattice backend (LatticeSectionDatum): emit bundle classes and
    the stability / real-form verdicts.
    """
    if isinstance(d, LatticeSectionDatum):
        return _hitchin_section_lattice(d)
    return _hitchin_section_chart(d)


def _hitchin_section_chart(d: SpectralDatum) -> HitchinSectionOutput:
    from . import poly, spectral  # the chart backend

    if not isinstance(d, spectral.SpectralDatum):
        raise TypeError("expected a SpectralDatum or a LatticeSectionDatum")
    q = d.quarter_defect()
    if q.is_zero():
        # the nilpotent diagonal: the section field with alpha = 0 and tau = 0
        if d.s1.is_zero():
            raise NilpotentDatum("the section is undefined at (0, 0)")
        f, tau = None, poly.Poly.zero(d.dim)
        alpha, branch = (tau,) * d.dim, "nilpotent_diagonal"
    else:
        f = spectral.factor_rank_one(q)
        alpha, tau = f.alpha, f.tau
        branch = "unit_branch" if tau.is_constant() else "generic"
    # the section field: B_i = [[s1_i / 2, -alpha_i tau], [alpha_i, s1_i / 2]]
    half = Fraction(1, 2)
    field = spectral.HiggsField(tuple(((w, -a * tau), (a, w)) for w, a in zip((p * half for p in d.s1), alpha)))
    if spectral.hitchin_map(field) != d:
        failed = "section identity sh(chi(s)) = s failed"
        raise VerificationFailure(failed if f is not None else failed + " on the diagonal branch")
    return HitchinSectionOutput(
        stability=Stability.STABLE if branch == "generic" else Stability.POLYSTABLE,
        real=True,
        field=field,
        factorization=f,
        branch=branch,
        identity_checked=True,
    )


def _hitchin_section_lattice(d: LatticeSectionDatum) -> HitchinSectionOutput:
    from .geometry import NSClass

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
    from .spectral import SpectralDatum

    t = Fraction(t)
    return SpectralDatum(d.s1.scale(t), d.s2.scale(t * t))


# -- SL2(R) enumeration -------------------------------------------------------------


class SL2RDatum(NamedTuple):
    """A branch splitting D = D1 + D2 with square-rootable twisting class."""

    D1: NSClass
    D2: NSClass
    N_class: NSClass
    torsion_multiplicity: int
    tuple_a: tuple


class SL2RData(Sequence):
    """The kept tuples of one enumeration, as a read-only sequence of SL2RDatum.

    groups is [(prefix, kept)], one entry per prefix in product order, and
    kept is [(suffix, D1, D2, N), ...] in product order, one list object
    shared by every prefix with the same partial sum.  Row i is the i-th
    SL2RDatum(D1, D2, N, torsion, prefix + suffix) over the groups in turn.
    The rows are built once, on the first index or iteration; len builds
    none.
    """

    __slots__ = ("groups", "_torsion", "_len", "_rows")

    def __init__(self, groups, torsion):
        self.groups = groups
        self._torsion = torsion
        self._len = sum(len(kept) for _, kept in groups)
        self._rows = None

    def _built(self):
        if self._rows is None:
            new, torsion = tuple.__new__, self._torsion  # builds an SL2RDatum without binding by name
            self._rows = [
                new(SL2RDatum, (D1, D2, N, torsion, a + sfx)) for a, kept in self.groups for sfx, D1, D2, N in kept
            ]
        return self._rows

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        return self._built()[i]

    def __iter__(self):
        return iter(self._built())


MAX_SL2R_TUPLES = 2**16


def _partial_sums(digits, zero):
    """[(a, sum a_i v_i)] over the digit tuples a in itertools.product order.

    digits is [(m_i, v_i)], v_i an int vector; a runs over 0 <= a_i <= m_i.
    """
    out = [((), zero)]
    for m, v in digits:
        jv = [tuple(j * c for c in v) for j in range(m + 1)]
        out = [(a + (j,), tuple(map(add, s, w))) for a, s in out for j, w in enumerate(jv)]
    return out


def sl2r_enumerate(components, L: NSClass, model: SurfaceModel):
    """All splittings of the branch divisor passing the two numerical tests.

    components is [(c_i, m_i), ...] with sum m_i c_i = 2 L.  A tuple (a_i),
    0 <= a_i <= m_i, gives D1 = sum a_i c_i and D2 = 2 L - D1; it is kept iff
    (D1 - D2)^2 = 0 and D1 - L is divisible by two in the lattice.  Torsion
    only multiplies the count.  The result is an SL2RData: the kept tuples
    as SL2RDatum rows in itertools.product order, held as the walk finds
    them, one kept-suffix list per prefix, and built as rows on first read.

    The verdict and the classes depend on a tuple only through the int
    vector x = d (D1 - L) = sum a_i d c_i - d L, d the common denominator of
    the c_i and L.  D1 - L is even iff x = 0 mod 2 d, and then N = x / (2 d)
    is an integral class with (D1 - D2)^2 = 16 N^2, so a tuple is kept iff
    x = 0 mod 2 d and N^2 = 0.  The walk splits the digits in two (Horowitz
    & Sahni, J. ACM 21, 1974): the prefixes a_0..a_{h-1}, h = k // 2, and the
    suffixes, each listed in product order with its partial sum of a_i d c_i.
    Suffixes with equal partial sums form a group, and the groups are
    bucketed by their partial sum mod 2 d.  For each distinct prefix sum p,
    only the bucket of residue d L - p mod 2 d can give an even D1 - L; each
    of its groups gives one full x, decided once across all prefixes, and
    the kept groups' suffixes, merged back into product order, are that
    prefix sum's kept list, shared by every prefix with that sum.  D1, D2
    and N are built once per kept x.  More
    than MAX_SL2R_TUPLES tuples raise DegreeCapExceeded before the first one.
    """
    from .geometry import NSClass

    components = [(c, _typed("multiplicity", m, int)) for c, m in components]
    total = NSClass.zero(model.rank)
    for c, m in components:
        if m < 0:
            raise InconsistentBranchData("multiplicities must be nonnegative")
        total = total + c * m
    if total != L * 2:
        raise InconsistentBranchData("component sum must equal 2 L")
    count = math.prod(m + 1 for _, m in components)
    if count > MAX_SL2R_TUPLES:
        raise DegreeCapExceeded(f"sl2r enumeration of {count} tuples exceeds cap {MAX_SL2R_TUPLES}")
    d = math.lcm(L.den, *(c.den for c, _ in components))
    digits = [(m, [x * (d // c.den) for x in c.v]) for c, m in components]
    dL = tuple(x * (d // L.den) for x in L.v)
    two_d = 2 * d
    zero = (0,) * model.rank
    h = len(digits) // 2
    buckets = {}  # suffix sum mod 2 d -> {suffix sum: [(index, suffix), ...]}
    for i, (a, s) in enumerate(_partial_sums(digits[h:], zero)):
        buckets.setdefault(tuple(v % two_d for v in s), {}).setdefault(s, []).append((i, a))
    classes_at = {}  # x -> (D1, D2, N) if kept, else ()
    kept_at = {}  # prefix sum -> [(suffix, D1, D2, N), ...] in product order
    groups = []
    for a, p in _partial_sums(digits[:h], zero):
        kept = kept_at.get(p)
        if kept is None:
            base = tuple(map(sub, p, dL))
            runs = []
            for s, suffixes in buckets.get(tuple(-v % two_d for v in base), {}).items():
                x = tuple(map(add, base, s))
                D = classes_at.get(x)
                if D is None:
                    N = NSClass._raw(tuple(v // two_d for v in x), 1)  # x is 0 mod 2 d
                    D = classes_at[x] = () if model.pair(N, N) else (
                        NSClass._raw(tuple(map(add, x, dL)), d), NSClass._raw(tuple(map(sub, dL, x)), d), N)
                if D:
                    runs.append([(i, sfx) + D for i, sfx in suffixes])
            kept = kept_at[p] = [e[1:] for e in sorted(e for run in runs for e in run)]
        groups.append((a, kept))
    return SL2RData(groups, model.torsion2_count)


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
            raise InvalidInput("Betti numbers are nonnegative")
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
    from .poly import Poly

    if not 2 <= n <= MAX_COMPANION_RANK:
        raise RankCap(f"rank {n} outside 2..{MAX_COMPANION_RANK}")
    coeffs = tuple(coeffs)
    if len(coeffs) != n - 1:
        raise InvalidInput(f"expected {n - 1} coefficients c2..c{n}")
    nvars = coeffs[0].nvars
    if any(c.nvars != nvars for c in coeffs):
        raise InvalidInput("coefficients must share nvars")
    z = Poly.zero(nvars)
    one = Poly.one(nvars)
    rows = [tuple([z] + list(coeffs))]
    for i in range(1, n):
        rows.append(tuple(one if j == i - 1 else z for j in range(n)))
    return tuple(rows)


def higher_rank_charcheck(rows) -> bool:
    """Cofactor charpoly of a companion-shaped field reproduces its first row.

    With first row (0, c2, ..., cn) the expected charpoly is
    lambda^n - sum_i c_i lambda^(n-i), in nvars+1 variables (lambda last).
    The sign convention is frozen from the cofactor-expansion oracle at
    n = 2, 3 and recorded in data/charpoly_convention.json.
    """
    from . import matrix, poly

    n, nvars = len(rows), rows[0][0].nvars
    lam = poly.Poly.variable(nvars + 1, nvars)
    expected = lam**n
    for i, c in enumerate(rows[0][1:], start=2):
        expected = expected - c.lift() * lam ** (n - i)
    return matrix.charpoly_cofactor(rows) == expected
