"""Exact spectral data for rank-two Higgs bundles.

Two finitely presentable models: a polynomial chart with exact rational
coefficients (factorization of rank-one symmetric differentials, spectral
covers and their tower, the spectral correspondence, the Hitchin section)
and a declared Neron-Severi lattice (degrees, push-forward Chern classes,
stability case tables, SL2(R) enumeration, the Milnor-Wood degree bound).

The names below are exported lazily (PEP 562): ``from higgspec import X``
imports X's module on first use, so importing the package, or running one
CLI command, loads only the modules that are used.
"""

# module -> the names it exports here
_EXPORTS = {
    "errors": ("HiggspecError",),
    "geometry": (
        "BxComponent",
        "BxTable",
        "CoverMap",
        "NSClass",
        "ProductOfCurves",
        "SurfaceModel",
        "bx_decomposition",
        "discriminant",
        "h0_curve",
        "pushforward_c1",
        "pushforward_c2",
    ),
    "matrix": ("charpoly", "charpoly_cofactor", "mat_det", "mat_mul", "mat_trace"),
    "moduli": (
        "HitchinSectionOutput",
        "LatticeSectionDatum",
        "MilnorWoodReport",
        "RigidityVerdict",
        "SL2RDatum",
        "SplitHiggsDescription",
        "Stability",
        "TopologicalData",
        "cstar_scale",
        "higher_rank_build",
        "higher_rank_charcheck",
        "hitchin_section",
        "hodge_stability",
        "milnor_wood_check",
        "real_stability",
        "rigidity_verdict",
        "sl2r_enumerate",
    ),
    "poly": ("Poly", "SquarefreeDecomposition", "exact_div", "is_squarefree", "poly_gcd", "squarefree_decompose"),
    "spectral": (
        "CoverModule",
        "HiggsField",
        "Member",
        "Nilpotent",
        "NotMember",
        "OneForm",
        "RankOneFactorization",
        "SpectralCover",
        "SpectralDatum",
        "SymDiff",
        "annihilator_distribution",
        "build_cover",
        "canonical_module",
        "factor_rank_one",
        "higgs_integrable",
        "hitchin_map",
        "is_normal",
        "module_from_higgs",
        "pushforward",
        "spectral_base_check",
        "tower_enumerate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # an AttributeError for any other name, so the import system goes on to
    # look for a submodule (``from higgspec import cli``)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # from .<module> import <name>, through the import statement's own path
    value = globals()[name] = getattr(__import__(module, globals(), fromlist=(name,), level=1), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
