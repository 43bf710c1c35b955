"""Exact spectral data for rank-two Higgs bundles.

Two finitely presentable models: a polynomial chart with exact rational
coefficients (factorization of rank-one symmetric differentials, spectral
covers and their tower, the spectral correspondence, the Hitchin section)
and a declared Neron-Severi lattice (degrees, push-forward Chern classes,
stability case tables, SL2(R) enumeration, the Milnor-Wood degree bound).
"""

from .errors import HiggspecError
from .geometry import (
    BxComponent,
    BxTable,
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
from .matrix import charpoly, charpoly_cofactor, mat_det, mat_mul, mat_trace
from .moduli import (
    HitchinSectionOutput,
    LatticeSectionDatum,
    MilnorWoodReport,
    RigidityVerdict,
    SL2RDatum,
    SplitHiggsDescription,
    Stability,
    TopologicalData,
    cstar_scale,
    higher_rank_build,
    higher_rank_charcheck,
    hitchin_section,
    hodge_stability,
    milnor_wood_check,
    real_stability,
    rigidity_verdict,
    sl2r_enumerate,
)
from .poly import (
    Poly,
    SquarefreeDecomposition,
    exact_div,
    is_squarefree,
    poly_gcd,
    squarefree_decompose,
)
from .spectral import (
    CoverModule,
    HiggsField,
    Member,
    Nilpotent,
    NotMember,
    OneForm,
    RankOneFactorization,
    SpectralCover,
    SpectralDatum,
    SymDiff,
    annihilator_distribution,
    build_cover,
    canonical_module,
    factor_rank_one,
    higgs_integrable,
    hitchin_map,
    is_normal,
    module_from_higgs,
    pushforward,
    spectral_base_check,
    tower_enumerate,
)

__version__ = "0.1.0"
