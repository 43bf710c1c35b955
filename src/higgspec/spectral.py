"""Rank-one symmetric differentials, spectral covers and the correspondence.

Everything is computed in a polynomial chart: a degree-two symmetric
differential is a symmetric matrix of polynomials, a Higgs field is a tuple
of coefficient matrices, and the double cover attached to a factorization
s = tau * alpha alpha^T is tracked through its branch decomposition.  The
global rank test agrees with the pointwise rank condition because the
coefficient field is infinite.  It evaluates S once, exactly, at one fixed
integer point, and the values only choose the route.  When every 2x2 minor
vanishes there, it builds tau * alpha alpha^T and proves it equal to S;
otherwise, or when that construction fails, the 2x2 minors are scanned for
the first nonzero one, the witness.  S is symmetric, so minor (k, l, i, j)
is minor (i, j, k, l), and the scan covers the distinct minors only, those
with (k, l) >= (i, j).  A minor nonzero at the point is nonzero as a
polynomial with no product compared, and the minors on a row pair proved
proportional once, on the cofactors of the gcd of the pair's pivot entries,
are skipped.  Every minor formed, and every entry of the Hitchin map, goes
through the one kernel poly.det2, a b - c d in one accumulator.

The to_tree of a value (OneForm, SymDiff, SpectralDatum,
RankOneFactorization, HiggsField, SpectralCover) is JSON data whose leaves
may be Poly and Fraction objects; cli.machine_block writes each leaf as its
tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product as _iproduct

from .errors import (
    CayleyHamiltonViolation,
    InconsistentBranchData,
    DegreeCapExceeded,
    DivisionFailure,
    FactorizationInconsistent,
    FactorizationMismatch,
    NotRankOne,
    RankUnsupported,
    ZeroInput,
    ZeroPolynomial,
    _typed,
)
from .matrix import (
    as_matrix,
    commutator,
    identity_matrix,
    mat_eq,
    mat_mul,
    mat_scale,
    mat_trace,
    zero_matrix,
)
from .poly import (
    Poly,
    SquarefreeDecomposition,
    det2,
    exact_div,
    is_squarefree,
    poly_gcd,
    squarefree_decompose,
)

MAX_CHART_DIM = 4
MAX_TOWER_COVERS = 4096
_ZERO_TAU = "tau must be nonzero to define a double cover"


def _check_chart_dim(n):
    if not 1 <= n <= MAX_CHART_DIM:
        raise DegreeCapExceeded(f"chart dimension {n} outside 1..{MAX_CHART_DIM}")


# -- chart types --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class OneForm:
    """A 1-form in chart coordinates: one Poly coefficient per dz_i."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        n = len(entries)
        _check_chart_dim(n)
        for p in entries:
            if not isinstance(p, Poly) or p.nvars != n:
                raise ValueError("OneForm entries must be Poly in n variables")
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self):
        return len(self.entries)

    def is_zero(self):
        return all(p.is_zero() for p in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def scale(self, c):
        return OneForm(tuple(p * c for p in self.entries))

    @classmethod
    def zero(cls, n):
        return cls(tuple(Poly.zero(n) for _ in range(n)))

    def to_tree(self):
        return list(self.entries)


@dataclass(frozen=True, slots=True)
class SymDiff:
    """A degree-two symmetric differential as q(z) = z^T S z."""

    S: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.S)
        n = len(rows)
        _check_chart_dim(n)
        for row in rows:
            if len(row) != n:
                raise ValueError("SymDiff matrix must be square")
            for p in row:
                if not isinstance(p, Poly) or p.nvars != n:
                    raise ValueError("SymDiff entries must be Poly in n variables")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"SymDiff not symmetric at ({i},{j})")
        object.__setattr__(self, "S", rows)

    @property
    def dim(self):
        return len(self.S)

    def is_zero(self):
        return all(p.is_zero() for row in self.S for p in row)

    def __getitem__(self, i):
        return self.S[i]

    def add(self, other):
        return SymDiff(tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.S, other.S)))

    def scale(self, c):
        return SymDiff(tuple(tuple(p * c for p in row) for row in self.S))

    @classmethod
    def zero(cls, n):
        z = Poly.zero(n)
        return cls(tuple((z,) * n for _ in range(n)))

    @classmethod
    def outer(cls, a: OneForm, b: OneForm):
        """Symmetrised outer product: entries (a_i b_j + a_j b_i) / 2."""
        n = a.dim
        half = Fraction(1, 2)
        rows = tuple(
            tuple((a[i] * b[j] + a[j] * b[i]) * half for j in range(n)) for i in range(n)
        )
        return cls(rows)

    def to_tree(self):
        return [list(row) for row in self.S]


@dataclass(frozen=True)
class SpectralDatum:
    """A point (s1, s2) of the Hitchin base in chart coordinates."""

    s1: OneForm
    s2: SymDiff

    def __post_init__(self):
        if self.s1.dim != self.s2.dim:
            raise ValueError("s1 and s2 must share the chart dimension")

    @property
    def dim(self):
        return self.s1.dim

    def quarter_defect(self) -> SymDiff:
        """s2 - (1/4) s1 s1^T, the symmetric differential tested for rank one."""
        s1, s2 = self.s1, self.s2.S
        n = len(s2)
        quarter = Fraction(1, 4)
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = s2[i][j] - s1[i] * s1[j] * quarter
        return SymDiff(rows)

    def to_tree(self):
        return {"s1": self.s1.to_tree(), "s2": self.s2.to_tree()}


@dataclass(frozen=True)
class RankOneFactorization:
    """s = tau * alpha alpha^T with alpha primitive.

    alpha has polynomial gcd one across its entries (no divisorial zeros),
    rational content one, and a positive leading coefficient in its first
    nonzero entry; tau absorbs all scalars.
    """

    alpha: OneForm
    tau: Poly

    def __post_init__(self):
        if self.alpha.is_zero():
            raise ZeroInput("alpha must be nonzero")
        if self.tau.nvars != self.alpha.dim:
            raise ValueError("tau must live in the chart ring of alpha")

    @property
    def dim(self):
        return self.alpha.dim

    def symdiff(self) -> SymDiff:
        """tau * alpha alpha^T: tau * alpha_i formed once, entries (i, j) for i <= j only."""
        n, alpha = self.dim, self.alpha
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            ta = self.tau * alpha[i]
            for j in range(i, n):
                rows[i][j] = rows[j][i] = ta * alpha[j]
        return SymDiff(rows)

    def to_tree(self):
        return {"alpha": self.alpha.to_tree(), "tau": self.tau}


@dataclass(frozen=True)
class HiggsField:
    """phi = sum_i B_i dz_i with r x r polynomial coefficient matrices."""

    matrices: tuple

    def __post_init__(self):
        mats = tuple(as_matrix(m) for m in self.matrices)
        n = len(mats)
        _check_chart_dim(n)
        r = len(mats[0])
        nvars = mats[0][0][0].nvars
        if nvars != n:
            raise ValueError("number of matrices must equal the chart dimension")
        for m in mats:
            if len(m) != r or m[0][0].nvars != nvars:
                raise ValueError("all coefficient matrices must share size and nvars")
        object.__setattr__(self, "matrices", mats)

    @property
    def dim(self):
        return len(self.matrices)

    @property
    def rank(self):
        return len(self.matrices[0])

    def to_tree(self):
        return {
            "rank": self.rank,
            "matrices": [[list(row) for row in m] for m in self.matrices],
        }


# -- the rank test --------------------------------------------------------------


# The one point at which the rank test evaluates S (an n-variable chart takes
# the first n coordinates).  The coordinates are large and far apart, so no
# linear form with coefficients in +-{1, 2, 3} and a constant term below 1009
# in size vanishes there (x1 - x2 + 1 vanishes at (2, 3)).  A luckless point
# costs time, never an answer.
ROUTE_POINT = (1009, 10007, 100003, 1000003)


# chart dimension -> (i, j, k, l) of the distinct 2x2 minors of a symmetric
# matrix, rows i < j and columns k < l with (k, l) >= (i, j), in grlex order
_MINORS = {
    n: [(*p, *q) for p, q in combinations_with_replacement(combinations(range(n), 2), 2)]
    for n in range(1, MAX_CHART_DIM + 1)
}


def first_nonzero_minor(S: SymDiff, outcome=None):
    """First (grlex-ordered indices) nonvanishing 2x2 minor, or None.

    S is symmetric, so minor (k, l, i, j) equals minor (i, j, k, l), and
    when (k, l) < (i, j) that copy comes earlier in grlex order; the scan
    covers the distinct minors only, those with (k, l) >= (i, j), and the
    first nonzero minor is the same.  The minors are first tested at
    ROUTE_POINT, exactly, in loop order; an entry of S is evaluated there
    when a minor first needs it, so a minor nonzero at the point is found
    after as few evaluations as it takes.
    When every 2x2 minor vanishes there and some diagonal entry is nonzero,
    tau * alpha alpha^T is built from the first nonzero diagonal entry's
    row and checked equal to S; that proves rank at most one, so the answer
    is None and no product of two S entries is formed.  Otherwise, or when
    the construction raises (FactorizationInconsistent, or a gcd's
    DegreeCapExceeded), the minors (i < j, k < l) are scanned in loop
    order until the first one that is nonzero at ROUTE_POINT.  Evaluation
    at a point is a ring homomorphism, so that minor is nonzero as a
    polynomial and is returned with no comparison.  A minor before it
    vanishes at the point and must be proved zero.  When every minor on its
    row pair (i, j), or else on (k, l), vanishes at the point, that pair is
    proved proportional once.  With p the column of the nonzero S[i][p]
    with the fewest terms, rows i and j are proportional iff S[i][p] S[j][c]
    == S[j][p] S[i][c] for every c != p (row j is then S[j][p] / S[i][p]
    times row i).  The proof runs on gcd cofactors instead of those
    products: with (g, u, v) = poly_gcd(S[i][p], S[j][p]), g u = S[i][p]
    and g v = S[j][p] exactly, so S[i][p] S[j][c] - S[j][p] S[i][c] =
    g (S[j][c] u - S[i][c] v), and as g != 0 and Q[x] has no zero divisors
    the identity holds iff det2(S[j][c], u, S[i][c], v) is zero.  u and v
    have the size of covector entries, where S[i][p] has that of tau
    alpha^2.  A row of zeros is proportional with no product; when
    S[j][p] = 0 and row j is not zero, the rows are not.  When the gcd
    gives up at its image cap (DegreeCapExceeded), the pair counts as
    unproved and the error goes no further.  Every later minor on a proven
    pair is skipped; S is symmetric, so a proportional column pair (k, l)
    is the row pair (k, l).  A minor on no proven pair is formed once by
    det2 as S[i][k] S[j][l] - S[i][l] S[j][k], and the first nonzero one is
    the witness.  The point therefore changes no answer, only how many
    products are formed.

    ``outcome``, when given, is a list that receives the construction's
    result, the RankOneFactorization or the error it raised, if it ran.
    """
    rows, n = S.S, S.dim
    point = ROUTE_POINT[:n]
    values = {}

    def at(a, b):
        """S[a][b] at the point as ints (num, den), evaluated on first use."""
        key = (a, b) if a <= b else (b, a)
        v = values.get(key)
        if v is None:
            x = rows[a][b].evaluate(point)
            v = values[key] = (x.numerator, x.denominator)
        return v

    def vanishes_at_point(i, j, k, l):
        (a, p), (b, q), (c, r), (d, s) = at(i, k), at(j, l), at(i, l), at(j, k)
        return a * b * r * s == c * d * p * q

    minors = _MINORS[n]
    # the index of the first minor nonzero at the point, len(minors) if none is
    first = next((m for m, ijkl in enumerate(minors) if not vanishes_at_point(*ijkl)), len(minors))
    if first == len(minors) and any(rows[i][i] for i in range(n)):
        try:
            built = _construct_rank_one(S)
        except (FactorizationInconsistent, DegreeCapExceeded) as exc:
            built = exc
        if outcome is not None:
            outcome.append(built)
        if not isinstance(built, Exception):
            return None

    def proportional(i, j):
        """Rows i and j proportional: the cofactor test on the pivot S[i][p] != 0 with the fewest terms.

        False also when the pivot gcd gives up at its image cap; the pair's
        minors are then compared exactly.
        """
        ri, rj = rows[i], rows[j]
        if not any(ri) or not any(rj):
            return True
        p = min((c for c in range(n) if ri[c]), key=lambda c: len(ri[c].terms))
        if not rj[p]:
            return False
        try:
            _, u, v = poly_gcd(ri[p], rj[p])
        except DegreeCapExceeded:
            return False
        return not any(det2(rj[c], u, ri[c], v) for c in range(n) if c != p)

    # row pairs proved proportional, and row pairs that are not (a minor on
    # them is nonzero at the point) or whose cofactor test failed or gave up
    proven, failed = set(), set()

    def on_proven_pair(i, j, k, l):
        """Row pair (i, j) or (k, l) proved proportional, which makes minor (i, j, k, l) zero."""
        if (i, j) in proven or (k, l) in proven:
            return True
        for pair in (i, j), (k, l):
            if pair not in failed:
                if all(vanishes_at_point(*pair, c, d) for c, d in combinations(range(n), 2)) and proportional(*pair):
                    proven.add(pair)
                    return True
                failed.add(pair)
        return False

    for m, (i, j, k, l) in enumerate(minors[: first + 1]):
        if m < first and on_proven_pair(i, j, k, l):
            continue
        minor = det2(rows[i][k], rows[j][l], rows[i][l], rows[j][k])
        if m == first or minor:
            return (i, j, k, l), minor
    return None


# -- the rank-one factorization -------------------------------------------------


def _normalize_covector(entries):
    """Divide out the entry gcd and rational content; fix the sign.

    Returns the primitive covector, the gcd's cofactors: their polynomial
    gcd is one, the coefficient content across all entries is one, and the
    first nonzero entry has a positive leading coefficient.
    """
    g, *alpha = poly_gcd(*entries)
    if g.is_zero():
        raise ZeroInput("cannot normalize the zero covector")
    if next(p for p in alpha if p).leading_coefficient() < 0:
        alpha = [-p for p in alpha]
    return tuple(alpha)


def _construct_rank_one(S: SymDiff) -> RankOneFactorization:
    """tau * alpha alpha^T from the first nonzero diagonal entry's row, proved equal to S."""
    n = S.dim
    i0 = next(i for i in range(n) if not S[i][i].is_zero())
    alpha = _normalize_covector(tuple(S[i0][j] for j in range(n)))
    try:
        tau = exact_div(S[i0][i0], alpha[i0] * alpha[i0])
    except DivisionFailure as exc:
        raise FactorizationInconsistent(f"tau division failed: {exc}") from exc
    f = RankOneFactorization(OneForm(alpha), tau)
    if f.symdiff() != S:
        raise FactorizationInconsistent("S != tau * alpha alpha^T after construction")
    return f


def factor_rank_one(S: SymDiff) -> RankOneFactorization:
    """Factor a nonzero rank-at-most-one symmetric differential as tau * alpha alpha^T.

    One call of first_nonzero_minor decides: a witness raises NotRankOne;
    otherwise its construction from the first nonzero diagonal entry's row
    is the answer.  A nonzero S with no witness has a nonzero diagonal entry
    and every minor zero at ROUTE_POINT, so that construction ran; if it
    raised (FactorizationInconsistent, or a gcd's DegreeCapExceeded), that
    error is raised here, whatever the point.
    """
    if S.is_zero():
        raise ZeroInput("cannot factor the zero differential")
    outcome = []
    witness = first_nonzero_minor(S, outcome)
    if witness is not None:
        raise NotRankOne(*witness)
    (built,) = outcome
    if isinstance(built, Exception):
        raise built
    return built


# -- spectral base membership ----------------------------------------------------


# the three-way spectral-base membership verdict, told apart by .kind


@dataclass(frozen=True)
class Nilpotent:
    kind = "nilpotent"


@dataclass(frozen=True)
class Member:
    kind = "member"
    factorization: RankOneFactorization = None


@dataclass(frozen=True)
class NotMember:
    kind = "not_member"
    indices: tuple = None
    minor: Poly = None


def spectral_base_check(d: SpectralDatum) -> Nilpotent | Member | NotMember:
    """Membership of (s1, s2) in the spectral base.

    Computes Q = s2 - (1/4) s1 s1^T.  Q identically zero is the nilpotent
    locus; otherwise membership holds iff Q has rank at most one, and the
    failure witness is a nonvanishing minor of 4 s2 - s1 s1^T = 4 Q, which
    is 16 times the same minor of Q.
    """
    q = d.quarter_defect()
    if q.is_zero():
        return Nilpotent()
    try:
        return Member(factor_rank_one(q))
    except NotRankOne as exc:
        return NotMember(exc.indices, exc.minor * 16)


# -- Higgs fields ----------------------------------------------------------------


def higgs_integrable(phi: HiggsField) -> bool:
    """phi wedge phi = 0, i.e. [B_i, B_j] = 0 for all pairs."""
    mats = phi.matrices
    n = len(mats)
    z = zero_matrix(phi.rank, mats[0][0][0].nvars)
    for i in range(n):
        for j in range(i + 1, n):
            if not mat_eq(commutator(mats[i], mats[j]), z):
                return False
    return True


def hitchin_map(phi: HiggsField) -> SpectralDatum:
    """(tr phi, det phi) of a rank-two field, det expanded as a quadratic form.

    With phi = sum B_i dz_i the determinant is the quadratic form with matrix
    S[i][j] = (tr B_i tr B_j - tr(B_i B_j)) / 2, whose diagonal is det B_i.
    On 2x2 matrices A = B_i and B = B_j that is
    (a00 b11 - a01 b10 + a11 b00 - a10 b01) / 2, two det2 calls, and
    det A = a00 a11 - a01 a10 on the diagonal, one; no trace is multiplied.
    S is symmetric, so only i <= j is formed.
    """
    if phi.rank != 2:
        raise RankUnsupported(f"hitchin_map needs rank 2, got {phi.rank}")
    mats = phi.matrices
    n = len(mats)
    s1 = OneForm(tuple(mat_trace(m) for m in mats))
    half = Fraction(1, 2)
    rows = [[None] * n for _ in range(n)]
    for i, a in enumerate(mats):
        rows[i][i] = det2(a[0][0], a[1][1], a[0][1], a[1][0])
        for j in range(i + 1, n):
            b = mats[j]
            cross = det2(a[0][0], b[1][1], a[0][1], b[1][0]) + det2(a[1][1], b[0][0], a[1][0], b[0][1])
            rows[i][j] = rows[j][i] = cross * half
    return SpectralDatum(s1, SymDiff(rows))


# -- spectral covers and the tower ------------------------------------------------


@dataclass(frozen=True)
class SpectralCover:
    """The double cover eta^2 + effective_tau = 0 inside tot(L_a).

    branch records tau = content * prod f_i^{m_i}; tuple_a selects the
    intermediate Cohen-Macaulayfication, with effective exponent m_i - 2 a_i
    on each branch component.
    """

    factorization: RankOneFactorization
    branch: SquarefreeDecomposition
    tuple_a: tuple
    effective_tau: Poly

    def __post_init__(self):
        ms = self.branch.multiplicities()
        if len(self.tuple_a) != len(ms):
            raise ValueError("tuple_a length must match the branch component count")
        for a, m in zip(self.tuple_a, ms):
            if not 0 <= a <= m // 2:
                raise ValueError(f"tuple entry {a} outside 0..floor({m}/2)")

    def effective_multiplicities(self):
        return tuple(m - 2 * a for (_, m), a in zip(self.branch.factors, self.tuple_a))

    def splits_over_base(self):
        """For an etale cover (constant tau): is -tau a rational square?

        Field-dependent bookkeeping only; over an algebraically closed field
        a branchless double cover always splits.
        """
        if self.branch.factors:
            return None
        t = -self.effective_tau.constant_value()
        if t < 0:
            return False
        num, den = t.numerator, t.denominator
        return math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den

    def to_tree(self):
        return {
            "factorization": self.factorization.to_tree(),
            "content": self.branch.content,
            "components": [{"factor": f, "multiplicity": m} for f, m in self.branch.factors],
            "tuple_a": list(self.tuple_a),
            "effective_tau": self.effective_tau,
        }


def _effective_tau(branch: SquarefreeDecomposition, tuple_a, nvars, powers) -> Poly:
    """content * prod f_i^(m_i - 2 a_i); powers[i] maps e to f_i^e, shared across a tower."""
    out = Poly.constant(nvars, branch.content)
    for (f, m), a, cache in zip(branch.factors, tuple_a, powers):
        e = m - 2 * a
        if e:
            fe = cache.get(e)
            if fe is None:
                fe = cache[e] = f**e
            out = out * fe
    return out


def build_cover(f: RankOneFactorization, components=None) -> SpectralCover:
    """The base Cohen-Macaulayfication: a = 0, branch = squarefree data of tau.

    ``components`` optionally declares a finer coprime factorization
    [(factor, multiplicity), ...]; it must reproduce tau exactly up to a
    rational content.
    """
    if f.tau.is_zero():
        raise ZeroPolynomial(_ZERO_TAU)
    if components is None:
        branch = squarefree_decompose(f.tau)
    else:
        branch = _declared_branch(f.tau, components)
    # at a = 0 the effective tau is content * prod f_i^m_i, which is tau itself:
    # both branch constructions reproduce tau exactly
    return SpectralCover(f, branch, (0,) * len(branch.factors), f.tau)


def _declared_branch(tau: Poly, components) -> SquarefreeDecomposition:
    norm = []
    for fct, m in components:
        if _typed("multiplicity", m, int) < 1:
            raise InconsistentBranchData("multiplicities must be positive")
        _, prim = fct.primitive()
        if prim.is_constant():
            raise InconsistentBranchData("declared components must be nonconstant")
        if not is_squarefree(prim):
            raise InconsistentBranchData(f"declared component {prim.to_text()} is not squarefree")
        norm.append((prim, m))
    for i in range(len(norm)):
        for j in range(i + 1, len(norm)):
            if not poly_gcd(norm[i][0], norm[j][0])[0].is_constant():
                raise InconsistentBranchData("declared components are not pairwise coprime")
    # degrees add under products: a product of larger degree cannot divide
    # tau, and is refused before any power is formed
    degree = sum(fct.total_degree() * m for fct, m in norm)
    if degree > tau.total_degree():
        raise InconsistentBranchData(
            f"declared components do not divide tau: their product has total degree "
            f"{degree}, tau has {tau.total_degree()}"
        )
    prod = Poly.one(tau.nvars)
    for fct, m in norm:
        prod = prod * fct**m
    try:
        content = exact_div(tau, prod)
    except DivisionFailure as exc:
        raise InconsistentBranchData(f"declared components do not divide tau: {exc}") from exc
    if not content.is_constant():
        raise InconsistentBranchData("declared components miss a nonconstant factor of tau")
    return SquarefreeDecomposition(content.constant_value(), norm)


@dataclass(frozen=True)
class TowerResult:
    """All intermediate covers, covering-relation edges, and the normalization."""

    covers: tuple
    edges: tuple
    normalization_index: int


def tower_enumerate(c: SpectralCover) -> TowerResult:
    """Every tuple 0 <= a_i <= floor(m_i / 2), with covering-relation edges.

    The count is prod(floor(m_i/2) + 1), at most MAX_TOWER_COVERS; the
    maximal tuple is flagged as the normalization (its effective tau is
    squarefree).
    """
    ms = c.branch.multiplicities()
    count = math.prod(m // 2 + 1 for m in ms)
    if count > MAX_TOWER_COVERS:
        raise DegreeCapExceeded(f"tower of {count} covers exceeds cap {MAX_TOWER_COVERS}")
    tau = c.factorization.tau
    ranges = [range(m // 2 + 1) for m in ms]
    tuples = list(_iproduct(*ranges)) if ms else [()]
    index = {t: i for i, t in enumerate(tuples)}
    powers = [{} for _ in ms]
    covers = tuple(
        SpectralCover(
            c.factorization,
            c.branch,
            t,
            _effective_tau(c.branch, t, tau.nvars, powers) if any(t) else tau,
        )
        for t in tuples
    )
    edges = []
    for t in tuples:
        for i in range(len(ms)):
            if t[i] + 1 <= ms[i] // 2:
                up = t[:i] + (t[i] + 1,) + t[i + 1 :]
                edges.append((index[t], index[up]))
    maximal = tuple(m // 2 for m in ms)
    return TowerResult(covers, tuple(edges), index[maximal])


def is_normal(c: SpectralCover) -> bool:
    """Serre-criterion surrogate: the cover is normal iff effective tau is squarefree.

    The branch factors are squarefree, pairwise coprime and nonconstant (by
    ``squarefree_decompose``, or checked in ``_declared_branch``), so effective
    tau is squarefree exactly when no effective multiplicity exceeds one.
    """
    return all(m <= 1 for m in c.effective_multiplicities())


# -- modules on covers and the correspondence --------------------------------------


class CoverModule:
    """A free rank-one module on the double cover eta^2 + tau = 0, presented by its eta action.

    The constructor checks eta^2 = -tau * Id, then refuses tau = 0, which
    defines no double cover; it keeps the eta action only.
    """

    __slots__ = ("eta_action",)

    def __init__(self, tau: Poly, eta_action):
        mat = as_matrix(eta_action)
        if len(mat) != 2:
            raise ValueError("eta action must be 2x2")
        if mat[0][0].nvars != tau.nvars:
            raise ValueError("eta action must live in the chart ring")
        if not mat_eq(mat_mul(mat, mat), mat_scale(identity_matrix(2, tau.nvars), -tau)):
            raise CayleyHamiltonViolation("Phi0^2 != -tau * Id")
        if tau.is_zero():
            raise ZeroPolynomial(_ZERO_TAU)
        self.eta_action = mat


def canonical_module(c: SpectralCover) -> CoverModule:
    """The structure sheaf: eta acts on the basis {1, eta} by [[0, -tau], [1, 0]]."""
    nvars = c.factorization.tau.nvars
    z = Poly.zero(nvars)
    phi = ((z, -c.effective_tau), (Poly.one(nvars), z))
    return CoverModule(c.effective_tau, phi)


def pushforward(m: CoverModule, f: RankOneFactorization) -> HiggsField:
    """Push a cover module down: B_i = alpha_i * Phi."""
    phi = m.eta_action
    return HiggsField(tuple(mat_scale(phi, f.alpha[i]) for i in range(f.dim)))


def module_from_higgs(phi: HiggsField, f: RankOneFactorization) -> CoverModule:
    """Inverse direction of the correspondence: B_i = alpha_i Phi0 gives eta acting by Phi0.

    phi must be trace-free, of rank two and on the chart of f.  Phi0 is
    B_i0 / alpha_i0, entry by entry and exact, for the first nonzero alpha_i0;
    every other B_i must be alpha_i Phi0, and :class:`CoverModule` checks
    Phi0^2 = -tau * Id and tau != 0.
    """
    mats = phi.matrices
    for m in mats:
        if not mat_trace(m).is_zero():
            raise FactorizationMismatch("module_from_higgs requires a trace-free field")
    if phi.rank != 2:
        raise RankUnsupported(f"module_from_higgs needs rank 2, got {phi.rank}")
    if phi.dim != f.dim:
        raise FactorizationMismatch("chart dimensions disagree")
    alpha = f.alpha
    i0 = next(i for i in range(f.dim) if not alpha[i].is_zero())
    try:
        phi0 = tuple(tuple(exact_div(p, alpha[i0]) for p in row) for row in mats[i0])
    except DivisionFailure as exc:
        raise FactorizationMismatch(f"division by alpha_{i0 + 1} failed: {exc}") from exc
    for i, m in enumerate(mats):
        if i != i0 and not mat_eq(mat_scale(phi0, alpha[i]), m):
            raise FactorizationMismatch(f"component {i + 1} is not alpha_i * Phi0")
    return CoverModule(f.tau, phi0)


# -- annihilator of a rank-one differential -----------------------------------------


def annihilator_distribution(alpha: OneForm):
    """Koszul generators of the annihilator: v_ij = alpha_j e_i - alpha_i e_j (i < j)."""
    if alpha.is_zero():
        raise ZeroInput("annihilator of the zero form")
    n = alpha.dim
    nvars = n
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            v = [Poly.zero(nvars)] * n
            v[i] = alpha[j]
            v[j] = -alpha[i]
            gens.append(tuple(v))
    return gens

