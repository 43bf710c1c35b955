"""Refusals of library inputs: one row per check, its exception type and whole message."""

import pytest

from higgspec import (
    CoverModule,
    HiggsField,
    OneForm,
    ProductOfCurves,
    RankOneFactorization,
    SpectralCover,
    SpectralDatum,
    SymDiff,
    TopologicalData,
    build_cover,
    hitchin_section,
    is_squarefree,
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
