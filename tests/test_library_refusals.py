"""Refusals of library inputs: one row per check, its exception type and whole message."""

import pytest

from higgspec import (
    CoverMap,
    CoverModule,
    HiggsField,
    NSClass,
    OneForm,
    ProductOfCurves,
    RankOneFactorization,
    SpectralCover,
    SpectralDatum,
    SplitHiggsDescription,
    SurfaceModel,
    SymDiff,
    TopologicalData,
    build_cover,
    h0_curve,
    higher_rank_build,
    hitchin_section,
    is_squarefree,
    mat_det,
    module_from_higgs,
    squarefree_decompose,
)
from higgspec.errors import (
    DegreeCapExceeded,
    FactorizationMismatch,
    HiggspecError,
    InvalidInput,
    ZeroInput,
    ZeroPolynomial,
)
from higgspec.poly import Poly
from higgspec.spectral import _normalize_covector

x, y = Poly.variable(2, 0), Poly.variable(2, 1)
zero, one = Poly.zero(2), Poly.one(2)
IDENTITY = ((one, zero), (zero, one))
G22 = ProductOfCurves(2, 2).model
F1, F2 = NSClass((1, 0)), NSClass((0, 1))
HYPERBOLIC = ((0, 1), (1, 0))


def _surface(Q=HYPERBOLIC, omega=(1, 1), b1=0):
    return SurfaceModel(("F1", "F2"), Q, NSClass((0, 0)), NSClass(omega), b1)


def _cover_map(P=((1, 0), (0, 2)), cover_Q=HYPERBOLIC, pullback=((2, 0), (0, 1))):
    return CoverMap(P, cover_Q, pullback, NSClass((0, 0)), G22)


def _cover_parts():
    # tau = x1^2 x2: the branch components x2 (multiplicity 1) and x1 (multiplicity 2)
    f = RankOneFactorization(OneForm((x, y)), x * x * y)
    return f, build_cover(f).branch


REFUSALS = [
    ("oneform-dim-5", lambda: OneForm((Poly.zero(5),) * 5), DegreeCapExceeded, "chart dimension 5 outside 1..4"),
    ("symdiff-asymmetric", lambda: SymDiff(((x, y), (x, y))), InvalidInput, "SymDiff not symmetric at (0,1)"),
    (
        "datum-dims",
        lambda: SpectralDatum(OneForm((Poly.zero(1),)), SymDiff(((zero,) * 2,) * 2)),
        InvalidInput,
        "s1 and s2 must share the chart dimension",
    ),
    ("factorization-zero-alpha", lambda: RankOneFactorization(OneForm((zero, zero)), one), ZeroInput, "alpha must be nonzero"),
    (
        "factorization-tau-ring",
        lambda: RankOneFactorization(OneForm((x, y)), Poly.one(3)),
        InvalidInput,
        "tau must live in the chart ring of alpha",
    ),
    ("higgs-one-matrix", lambda: HiggsField((IDENTITY,)), InvalidInput, "number of matrices must equal the chart dimension"),
    (
        "higgs-mixed-sizes",
        lambda: HiggsField((IDENTITY, ((one,),))),
        InvalidInput,
        "all coefficient matrices must share size and nvars",
    ),
    (
        "cover-tuple-length",
        lambda: SpectralCover(*_cover_parts(), (0, 0, 0), x * x * y),
        InvalidInput,
        "tuple_a length must match the branch component count",
    ),
    (
        "cover-tuple-entry",
        lambda: SpectralCover(*_cover_parts(), (2, 0), x * x * y),
        InvalidInput,
        "tuple entry 2 outside 0..floor(1/2)",
    ),
    ("module-3x3", lambda: CoverModule(x, ((one,) * 3,) * 3), InvalidInput, "eta action must be 2x2"),
    (
        "module-chart",
        lambda: CoverModule(x, ((Poly.one(1),) * 2,) * 2),
        InvalidInput,
        "eta action must live in the chart ring",
    ),
    (
        "module-from-higgs-dims",
        lambda: module_from_higgs(
            HiggsField((((zero, one), (zero, zero)),) * 2),
            RankOneFactorization(OneForm((Poly.variable(1, 0),)), Poly.one(1)),
        ),
        FactorizationMismatch,
        "chart dimensions disagree",
    ),
    ("section-of-int", lambda: hitchin_section(42), TypeError, "expected a SpectralDatum or a LatticeSectionDatum"),
    ("normalize-zeros", lambda: _normalize_covector((zero, zero)), ZeroInput, "cannot normalize the zero covector"),
    ("topology-b1", lambda: TopologicalData(True, -1), InvalidInput, "Betti numbers are nonnegative"),
    ("curves-genus", lambda: ProductOfCurves(1001, 0), InvalidInput, "genera must be 0..1000"),
    (
        "reconstruct-constant",
        lambda: squarefree_decompose(Poly.constant(2, 3)).reconstruct(),
        InvalidInput,
        "nvars needed to reconstruct a constant",
    ),
    ("squarefree-zero", lambda: is_squarefree(Poly.zero(1)), ZeroPolynomial, "squarefree test of the zero polynomial"),
    ("oneform-entry", lambda: OneForm((1, 2)), InvalidInput, "OneForm entries must be Poly in n variables"),
    (
        "split-iso-degrees",
        lambda: SplitHiggsDescription(F1, F2 * 2, G22, True, True, True, True),
        InvalidInput,
        "isomorphic summands must have equal degrees",
    ),
    (
        "split-vanishing-entry",
        lambda: SplitHiggsDescription(F1, F2, G22, True, False, False, False),
        InvalidInput,
        "a vanishing entry is proportional to anything",
    ),
    ("surface-int-entry", lambda: _surface(Q=((0, 1.5), (1, 0))), InvalidInput, "Q[0][1] must be an int, got 1.5"),
    ("surface-symmetry", lambda: _surface(Q=((0, 1), (2, 0))), InvalidInput, "intersection matrix must be symmetric"),
    ("surface-b1", lambda: _surface(b1=-1), InvalidInput, "b1 and torsion2_count must be nonnegative"),
    (
        "surface-polarization",
        lambda: _surface(omega=(1, 0)),
        InvalidInput,
        "declared polarization must have positive self-intersection",
    ),
    ("cover-map-int-entry", lambda: _cover_map(P=((1, 0), ("2", 2))), InvalidInput, "P[1][0] must be an int, got '2'"),
    (
        "cover-map-symmetry",
        lambda: _cover_map(cover_Q=((0, 1), (3, 0))),
        InvalidInput,
        "cover intersection matrix must be symmetric",
    ),
    (
        "cover-map-projection",
        lambda: _cover_map(pullback=((1, 0), (0, 1))),
        InvalidInput,
        "projection formula fails on cover basis 1, base basis 0",
    ),
    ("h0-genus", lambda: h0_curve(-1, 1), InvalidInput, "genus must be nonnegative"),
    ("h0-power", lambda: h0_curve(2, -1), InvalidInput, "canonical powers need m >= 0"),
    ("companion-count", lambda: higher_rank_build(3, (x,)), InvalidInput, "expected 2 coefficients c2..c3"),
    ("companion-nvars", lambda: higher_rank_build(3, (x, Poly.one(3))), InvalidInput, "coefficients must share nvars"),
    ("matrix-square", lambda: mat_det(((x, y),)), InvalidInput, "matrix must be square and nonempty"),
    ("matrix-entries", lambda: mat_det(((x, one), (one, 2))), InvalidInput, "entries must be Poly with a common nvars"),
]


@pytest.mark.parametrize("build, exc_type, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_library_input_is_refused(build, exc_type, message):
    with pytest.raises(exc_type) as exc:
        build()
    assert type(exc.value) is exc_type
    assert str(exc.value) == message


def test_every_value_refusal_is_a_higgspec_error():
    # a refused type stays a TypeError, as errors._typed raises it; every refused value is a domain failure
    assert [r[0] for r in REFUSALS if not issubclass(r[2], HiggspecError)] == ["section-of-int"]
