"""Batch front door: one JSON config in, one report out.

    higgspec --config job.json [--seed N] [--format human|machine|both] [--out path]

The config is ``{"command": ..., "model": ..., "payload": ..., "seed": ...}``.
Models are either a polynomial chart ``{"kind": "chart", "nvars": n}``, a
product of curves ``{"kind": "product_curves", "g1": .., "g2": ..}`` or a
declared surface lattice ``{"kind": "surface", "generators": [..],
"intersection": [row-major ints], "K": [..], "omega": [..], "b1": ..,
"torsion2": ..}``.  Polynomials are text (``"3/2 * x1^2 * x2"``) or the
serialized tree; rational numbers are ints, ``"p/q"`` strings or
``{"num": p, "den": q}``, with a nonzero denominator.  Decimals and exponents
are rejected.

Exit codes: 0 success, 1 domain/precondition failure, 2 parse/schema failure.
The machine block is canonical JSON: identical config and seed give
byte-identical output, and every emitted value re-parses exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import geometry, moduli, spectral
from .errors import DegreeCapExceeded, HiggspecError, ParseError, SchemaError
from .geometry import NSClass, ProductOfCurves, SurfaceModel
from .poly import Poly, _parse_rational
from .selftest import run_selftest
from .spectral import HiggsField, OneForm, RankOneFactorization, SpectralDatum, SymDiff

COMMANDS = (
    "factor",
    "base-check",
    "cover",
    "tower",
    "correspondence",
    "bx-table",
    "chern",
    "stability",
    "hitchin-section",
    "sl2r-enum",
    "milnor-wood",
    "rigidity",
    "higher-rank",
    "selftest",
)


# -- config parsing -----------------------------------------------------------


def _require_dict(obj, path, required=(), optional=()):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing required key")
    return obj


def _as_int(x, path):
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError(path, f"expected an integer, got {x!r}")
    return x


def _as_bool(x, path):
    if not isinstance(x, bool):
        raise SchemaError(path, f"expected a boolean, got {x!r}")
    return x


def _as_fraction(x, path) -> Fraction:
    if isinstance(x, bool):
        raise SchemaError(path, "expected a rational, got a boolean")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return _parse_rational(x)
        except ValueError as exc:
            raise SchemaError(path, str(exc))
    if isinstance(x, dict):
        _require_dict(x, path, required=("num", "den"))
        num = _as_int(x["num"], f"{path}.num")
        den = _as_int(x["den"], f"{path}.den")
        if not den:
            raise SchemaError(f"{path}.den", "zero denominator")
        return Fraction(num, den)
    raise SchemaError(path, f"expected a rational, got {type(x).__name__}")


def _as_poly(x, nvars, path) -> Poly:
    if isinstance(x, str):
        try:
            return Poly.from_text(x, nvars)
        except DegreeCapExceeded as exc:
            raise DegreeCapExceeded(f"{path}: {exc}") from None
        except ValueError as exc:
            raise SchemaError(path, f"bad polynomial text: {exc}")
    if isinstance(x, dict):
        _require_dict(x, path, required=("nvars", "terms"))
        if x["nvars"] != nvars:
            raise SchemaError(path, f"polynomial nvars {x['nvars']} != chart nvars {nvars}")
        try:
            return Poly.from_tree(x)
        except DegreeCapExceeded as exc:
            raise DegreeCapExceeded(f"{path}: {exc}") from None
        except Exception as exc:
            raise SchemaError(path, f"bad polynomial tree: {exc}")
    raise SchemaError(path, "expected polynomial text or tree")


def _as_list(x, path) -> list:
    if not isinstance(x, list):
        raise SchemaError(path, f"expected a list, got {type(x).__name__}")
    return x


def _as_class(x, rank, path) -> NSClass:
    if not isinstance(x, list) or len(x) != rank:
        raise SchemaError(path, f"expected a coordinate list of length {rank}")
    return NSClass(tuple(_as_fraction(c, f"{path}[{i}]") for i, c in enumerate(x)))


@dataclass
class JobConfig:
    command: str
    model: object  # None | ChartModel nvars | SurfaceModel | ProductOfCurves
    model_echo: object
    payload: dict
    seed: int


_CHART_COMMANDS = {"factor", "base-check", "cover", "tower", "correspondence", "hitchin-section"}
_SURFACE_COMMANDS = {"chern", "stability", "sl2r-enum", "milnor-wood", "hitchin-section"}
_MODELLESS = {"rigidity", "higher-rank", "selftest"}


def _parse_model(cfg, path):
    _require_dict(cfg, path, required=("kind",), optional=("nvars", "g1", "g2", "generators", "intersection", "K", "omega", "b1", "torsion2"))
    kind = cfg["kind"]
    if kind == "chart":
        _require_dict(cfg, path, required=("kind", "nvars"))
        n = _as_int(cfg["nvars"], f"{path}.nvars")
        if not 1 <= n <= spectral.MAX_CHART_DIM:
            raise SchemaError(f"{path}.nvars", f"chart dimension must be 1..{spectral.MAX_CHART_DIM}")
        return ("chart", n)
    if kind == "product_curves":
        _require_dict(cfg, path, required=("kind", "g1", "g2"), optional=("torsion2",))
        for key in ("g1", "g2", "torsion2"):
            if key in cfg and _as_int(cfg[key], f"{path}.{key}") < 0:
                raise SchemaError(f"{path}.{key}", "must be nonnegative")
        for key in ("g1", "g2"):
            if cfg[key] > geometry.MAX_GENUS:
                raise SchemaError(f"{path}.{key}", f"genus exceeds cap {geometry.MAX_GENUS}")
        X = ProductOfCurves(cfg["g1"], cfg["g2"])
        model = X.model
        if "torsion2" in cfg:
            model = SurfaceModel(
                model.generators, model.Q, model.K, model.omega, model.b1,
                _as_int(cfg["torsion2"], f"{path}.torsion2"),
            )
        return ("surface", model, X)
    if kind == "surface":
        _require_dict(
            cfg,
            path,
            required=("kind", "generators", "intersection", "K", "omega"),
            optional=("b1", "torsion2"),
        )
        gens = cfg["generators"]
        if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
            raise SchemaError(f"{path}.generators", "expected a list of names")
        n = len(gens)
        inter = cfg["intersection"]
        if isinstance(inter, list) and all(isinstance(v, int) for v in inter):
            if len(inter) != n * n:
                raise SchemaError(f"{path}.intersection", f"expected {n * n} row-major entries")
            Q = tuple(tuple(inter[i * n : (i + 1) * n]) for i in range(n))
        elif isinstance(inter, list):
            Q = tuple(tuple(_as_int(v, f"{path}.intersection") for v in row) for row in inter)
        else:
            raise SchemaError(f"{path}.intersection", "expected a row-major integer list")
        try:
            model = SurfaceModel(
                generators=tuple(gens),
                Q=Q,
                K=_as_class(cfg["K"], n, f"{path}.K"),
                omega=_as_class(cfg["omega"], n, f"{path}.omega"),
                b1=_as_int(cfg.get("b1", 0), f"{path}.b1"),
                torsion2_count=_as_int(cfg.get("torsion2", 1), f"{path}.torsion2"),
            )
        except (ValueError, HiggspecError) as exc:
            raise SchemaError(path, f"bad surface model: {exc}")
        return ("surface", model, None)
    raise SchemaError(f"{path}.kind", f"unknown model kind {kind!r}")


def parse_config(text: str) -> JobConfig:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer literal past Python's digit limit
        raise ParseError("$", f"invalid JSON: {exc}")
    _require_dict(doc, "$", required=("command",), optional=("model", "payload", "seed"))
    command = doc["command"]
    if command not in COMMANDS:
        raise SchemaError("$.command", f"unknown command {command!r}")
    seed = doc.get("seed", 0)
    if seed is not None:
        seed = _as_int(seed, "$.seed")
    model = None
    model_echo = doc.get("model")
    if "model" in doc:
        model = _parse_model(doc["model"], "$.model")
    elif command not in _MODELLESS:
        raise SchemaError("$.model", f"command {command!r} requires a model")
    payload = doc.get("payload", {})
    if not isinstance(payload, dict):
        raise SchemaError("$.payload", "expected an object")
    return JobConfig(command, model, model_echo, payload, seed)


def _chart_nvars(job) -> int:
    if job.model is None or job.model[0] != "chart":
        raise SchemaError("$.model", f"command {job.command!r} needs a chart model")
    return job.model[1]


def _surface(job) -> SurfaceModel:
    if job.model is None or job.model[0] != "surface":
        raise SchemaError("$.model", f"command {job.command!r} needs a surface model")
    return job.model[1]


def _product(job) -> ProductOfCurves:
    if job.model is None or job.model[0] != "surface" or job.model[2] is None:
        raise SchemaError("$.model", f"command {job.command!r} needs a product_curves model")
    return job.model[2]


# -- payload decoding ----------------------------------------------------------


def _payload_symdiff(payload, nvars, path):
    rows = payload
    if not isinstance(rows, list) or len(rows) != nvars:
        raise SchemaError(path, f"expected {nvars} rows")
    try:
        return SymDiff(
            tuple(
                tuple(_as_poly(p, nvars, f"{path}[{i}][{j}]") for j, p in enumerate(row))
                for i, row in enumerate(rows)
            )
        )
    except ValueError as exc:
        raise SchemaError(path, str(exc))


def _payload_oneform(entries, nvars, path):
    if not isinstance(entries, list) or len(entries) != nvars:
        raise SchemaError(path, f"expected {nvars} entries")
    return OneForm(tuple(_as_poly(p, nvars, f"{path}[{i}]") for i, p in enumerate(entries)))


def _payload_datum(obj, nvars, path):
    _require_dict(obj, path, required=("s1", "s2"))
    return SpectralDatum(
        _payload_oneform(obj["s1"], nvars, f"{path}.s1"),
        _payload_symdiff(obj["s2"], nvars, f"{path}.s2"),
    )


def _payload_factorization(obj, nvars, path):
    _require_dict(obj, path, required=("alpha", "tau"))
    try:
        return RankOneFactorization(
            _payload_oneform(obj["alpha"], nvars, f"{path}.alpha"),
            _as_poly(obj["tau"], nvars, f"{path}.tau"),
        )
    except HiggspecError:
        raise
    except ValueError as exc:
        raise SchemaError(path, str(exc))


def _payload_higgs(obj, nvars, path):
    _require_dict(obj, path, required=("matrices",), optional=("rank",))
    mats = obj["matrices"]
    if not isinstance(mats, list) or len(mats) != nvars:
        raise SchemaError(f"{path}.matrices", f"expected {nvars} coefficient matrices")
    out = []
    for i, m in enumerate(mats):
        if not isinstance(m, list):
            raise SchemaError(f"{path}.matrices[{i}]", "expected a matrix")
        out.append(
            tuple(
                tuple(_as_poly(p, nvars, f"{path}.matrices[{i}][{r}][{c}]") for c, p in enumerate(row))
                for r, row in enumerate(m)
            )
        )
    try:
        return HiggsField(tuple(out))
    except ValueError as exc:
        raise SchemaError(f"{path}.matrices", str(exc))


def _frac_tree(x: Fraction):
    return {"num": x.numerator, "den": x.denominator}


def _verdict_name(v):
    return v.value if hasattr(v, "value") else str(v)


# -- command handlers ------------------------------------------------------------


def _run_factor(job):
    n = _chart_nvars(job)
    _require_dict(job.payload, "$.payload", required=("s",))
    S = _payload_symdiff(job.payload["s"], n, "$.payload.s")
    try:
        f = spectral.factor_rank_one(S)
    except spectral.NotRankOne as exc:
        return {
            "verdicts": {"rank_le_one": False},
            "witnesses": {"minor_indices": list(exc.indices), "minor": exc.minor.to_tree()},
        }
    return {
        "verdicts": {"rank_le_one": True},
        "values": {"factorization": f.to_tree()},
    }


def _run_base_check(job):
    n = _chart_nvars(job)
    _require_dict(job.payload, "$.payload", required=("datum",))
    d = _payload_datum(job.payload["datum"], n, "$.payload.datum")
    v = spectral.spectral_base_check(d)
    out = {"verdicts": {"membership": v.kind}}
    if v.kind == "member":
        out["values"] = {"factorization": v.factorization.to_tree()}
    elif v.kind == "not_member":
        out["witnesses"] = {"minor_indices": list(v.indices), "minor": v.minor.to_tree()}
    return out


def _parse_components(obj, nvars, path):
    comps = []
    for i, item in enumerate(_as_list(obj, path)):
        _require_dict(item, f"{path}[{i}]", required=("factor", "multiplicity"))
        comps.append(
            (
                _as_poly(item["factor"], nvars, f"{path}[{i}].factor"),
                _as_int(item["multiplicity"], f"{path}[{i}].multiplicity"),
            )
        )
    return comps


def _cover_payload(job):
    n = _chart_nvars(job)
    _require_dict(job.payload, "$.payload", required=("factorization",), optional=("components",))
    f = _payload_factorization(job.payload["factorization"], n, "$.payload.factorization")
    comps = None
    if "components" in job.payload:
        comps = _parse_components(job.payload["components"], n, "$.payload.components")
    return f, comps


def _cover_tree(c):
    tree = c.to_tree()
    tree["normal"] = spectral.is_normal(c)
    split = c.splits_over_base()
    if split is not None:
        tree["splits_over_base_field"] = split
    return tree


def _run_cover(job):
    f, comps = _cover_payload(job)
    c = spectral.build_cover(f, components=comps)
    return {"values": {"cover": _cover_tree(c)}}


def _run_tower(job):
    f, comps = _cover_payload(job)
    cover = spectral.build_cover(f, components=comps)
    try:
        tower = spectral.tower_enumerate(cover)
    except DegreeCapExceeded as exc:
        path = "$.payload.components" if comps is not None else "$.payload.factorization.tau"
        raise DegreeCapExceeded(f"{path}: {exc}") from None
    return {
        "verdicts": {"count": len(tower.covers), "normalization_index": tower.normalization_index},
        "values": {
            "covers": [_cover_tree(c) for c in tower.covers],
            "edges": [list(e) for e in tower.edges],
        },
    }


def _run_correspondence(job):
    n = _chart_nvars(job)
    _require_dict(job.payload, "$.payload", required=("higgs", "factorization"))
    phi = _payload_higgs(job.payload["higgs"], n, "$.payload.higgs")
    f = _payload_factorization(job.payload["factorization"], n, "$.payload.factorization")
    module = spectral.module_from_higgs(phi, f)
    back = spectral.pushforward(module, f)
    roundtrip = all(
        a == b
        for ma, mb in zip(back.matrices, phi.matrices)
        for ra, rb in zip(ma, mb)
        for a, b in zip(ra, rb)
    )
    return {
        "verdicts": {"cayley_hamilton": True, "roundtrip_identity": roundtrip},
        "values": {
            "eta_action": [[p.to_tree() for p in row] for row in module.eta_action],
        },
    }


def _run_bx_table(job):
    X = _product(job)
    table = geometry.bx_decomposition(X)
    return {
        "verdicts": {"component_count": len(table.components), "swapped": table.swapped},
        "values": {
            "components": [
                {
                    "label": c.label,
                    "kind": c.kind,
                    "dim": c.dim,
                    "line_class": c.line_class.to_tree(),
                    "h0_omega_twist": c.h0_omega_twist,
                    "h0_Lsq": c.h0_Lsq,
                }
                for c in table.components
            ],
            "intersections": [
                {"pair": list(pair), "dim": dim} for pair, dim in table.intersections
            ],
        },
    }


def _run_chern(job):
    model = _surface(job)
    _require_dict(job.payload, "$.payload", required=("cover_map", "M_c1"))
    cm = job.payload["cover_map"]
    _require_dict(
        cm, "$.payload.cover_map", required=("P", "cover_intersection", "pullback", "L")
    )
    rank_b = model.rank

    def int_matrix(x, path):
        if not isinstance(x, list) or not all(isinstance(r, list) for r in x):
            raise SchemaError(path, "expected a nested integer matrix")
        return tuple(tuple(_as_int(v, path) for v in row) for row in x)

    P = int_matrix(cm["P"], "$.payload.cover_map.P")
    rank_c = len(P[0]) if P else 0
    try:
        cover = geometry.CoverMap(
            P=P,
            cover_Q=int_matrix(cm["cover_intersection"], "$.payload.cover_map.cover_intersection"),
            pullback=int_matrix(cm["pullback"], "$.payload.cover_map.pullback"),
            L_class=_as_class(cm["L"], rank_b, "$.payload.cover_map.L"),
            base=model,
        )
    except (ValueError, HiggspecError) as exc:
        raise SchemaError("$.payload.cover_map", str(exc))
    m_c1 = _as_class(job.payload["M_c1"], rank_c, "$.payload.M_c1")
    c1 = geometry.pushforward_c1(m_c1, cover)
    c2 = geometry.pushforward_c2(m_c1, cover)
    return {
        "values": {
            "c1": c1.to_tree(),
            "c2": _frac_tree(c2),
            "discriminant": _frac_tree(geometry.discriminant(c1, c2, model)),
        }
    }


def _run_stability(job):
    model = _surface(job)
    kind = job.payload.get("kind", "real")
    if kind == "hodge":
        _require_dict(job.payload, "$.payload", required=("kind", "d1", "d2", "alpha_nonzero"))
        v = moduli.hodge_stability(
            _as_fraction(job.payload["d1"], "$.payload.d1"),
            _as_fraction(job.payload["d2"], "$.payload.d2"),
            _as_bool(job.payload["alpha_nonzero"], "$.payload.alpha_nonzero"),
        )
        return {"verdicts": {"stability": _verdict_name(v)}}
    if kind != "real":
        raise SchemaError("$.payload.kind", "expected 'hodge' or 'real'")
    _require_dict(
        job.payload,
        "$.payload",
        required=("L1", "L2", "alpha_nonzero", "beta_nonzero", "alpha_beta_proportional", "L1_iso_L2"),
        optional=("kind", "omega_diag_nonzero"),
    )
    try:
        desc = moduli.SplitHiggsDescription(
            L1=_as_class(job.payload["L1"], model.rank, "$.payload.L1"),
            L2=_as_class(job.payload["L2"], model.rank, "$.payload.L2"),
            model=model,
            alpha_nonzero=_as_bool(job.payload["alpha_nonzero"], "$.payload.alpha_nonzero"),
            beta_nonzero=_as_bool(job.payload["beta_nonzero"], "$.payload.beta_nonzero"),
            alpha_beta_proportional=_as_bool(
                job.payload["alpha_beta_proportional"], "$.payload.alpha_beta_proportional"
            ),
            L1_iso_L2=_as_bool(job.payload["L1_iso_L2"], "$.payload.L1_iso_L2"),
            omega_diag_nonzero=_as_bool(
                job.payload.get("omega_diag_nonzero", False), "$.payload.omega_diag_nonzero"
            ),
        )
    except ValueError as exc:
        raise SchemaError("$.payload", str(exc))
    v = moduli.real_stability(desc)
    return {"verdicts": {"stability": _verdict_name(v)}}


def _run_hitchin_section(job):
    if job.model is not None and job.model[0] == "chart":
        n = _chart_nvars(job)
        _require_dict(job.payload, "$.payload", required=("datum",))
        d = _payload_datum(job.payload["datum"], n, "$.payload.datum")
        out = moduli.hitchin_section(d)
        body = {
            "verdicts": {
                "stability": _verdict_name(out.stability),
                "real": out.real,
                "branch": out.branch,
                "identity_checked": out.identity_checked,
            },
            "values": {"field": out.field.to_tree()},
        }
        if out.factorization is not None:
            body["values"]["factorization"] = out.factorization.to_tree()
        return body
    model = _surface(job)
    _require_dict(job.payload, "$.payload", required=("L", "D", "s1_nonzero"))
    datum = moduli.LatticeSectionDatum(
        L=_as_class(job.payload["L"], model.rank, "$.payload.L"),
        D=_as_class(job.payload["D"], model.rank, "$.payload.D"),
        s1_nonzero=_as_bool(job.payload["s1_nonzero"], "$.payload.s1_nonzero"),
        model=model,
    )
    out = moduli.hitchin_section(datum)
    return {
        "verdicts": {
            "stability": _verdict_name(out.stability),
            "real": out.real,
            "psl2r_condition": out.psl2r_condition,
            "sl2r_condition": out.sl2r_condition,
        },
        "values": {
            "E_classes": [c.to_tree() for c in out.E_classes],
        },
    }


def _run_sl2r_enum(job):
    model = _surface(job)
    _require_dict(job.payload, "$.payload", required=("components", "L"))
    comps = []
    for i, item in enumerate(_as_list(job.payload["components"], "$.payload.components")):
        _require_dict(item, f"$.payload.components[{i}]", required=("class", "multiplicity"))
        comps.append(
            (
                _as_class(item["class"], model.rank, f"$.payload.components[{i}].class"),
                _as_int(item["multiplicity"], f"$.payload.components[{i}].multiplicity"),
            )
        )
    L = _as_class(job.payload["L"], model.rank, "$.payload.L")
    try:
        data = moduli.sl2r_enumerate(comps, L, model)
    except DegreeCapExceeded as exc:
        raise DegreeCapExceeded(f"$.payload.components: {exc}") from None
    return {
        "verdicts": {"count": len(data), "torsion_multiplicity": model.torsion2_count},
        "values": {
            "data": [
                {
                    "tuple_a": list(d.tuple_a),
                    "D1": d.D1.to_tree(),
                    "D2": d.D2.to_tree(),
                    "N": d.N_class.to_tree(),
                }
                for d in data
            ]
        },
    }


def _run_milnor_wood(job):
    model = _surface(job)
    _require_dict(job.payload, "$.payload", required=("W", "gamma"), optional=("K_pseff",))
    rep = moduli.milnor_wood_check(
        _as_class(job.payload["W"], model.rank, "$.payload.W"),
        _as_class(job.payload["gamma"], model.rank, "$.payload.gamma"),
        model,
        K_pseff=_as_bool(job.payload.get("K_pseff", True), "$.payload.K_pseff"),
    )
    return {
        "verdicts": {"holds": rep.holds},
        "values": {"toledo": _frac_tree(rep.toledo), "bound": _frac_tree(rep.bound)},
    }


def _run_rigidity(job):
    _require_dict(
        job.payload,
        "$.payload",
        required=("picard_number_one", "b1"),
        optional=("double_cover_b1s",),
    )
    t = moduli.TopologicalData(
        picard_number_one=_as_bool(job.payload["picard_number_one"], "$.payload.picard_number_one"),
        b1=_as_int(job.payload["b1"], "$.payload.b1"),
        double_cover_b1s=tuple(
            _as_int(b, f"$.payload.double_cover_b1s[{i}]")
            for i, b in enumerate(_as_list(job.payload.get("double_cover_b1s", []), "$.payload.double_cover_b1s"))
        ),
    )
    v = moduli.rigidity_verdict(t)
    return {"verdicts": {"status": v.status, "reason": v.reason}}


def _run_higher_rank(job):
    _require_dict(job.payload, "$.payload", required=("rank", "coefficients", "nvars"))
    n = _as_int(job.payload["rank"], "$.payload.rank")
    nvars = _as_int(job.payload["nvars"], "$.payload.nvars")
    if not 0 <= nvars <= spectral.MAX_CHART_DIM:
        raise SchemaError("$.payload.nvars", f"must be 0..{spectral.MAX_CHART_DIM}")
    coeffs = [
        _as_poly(c, nvars, f"$.payload.coefficients[{i}]")
        for i, c in enumerate(_as_list(job.payload["coefficients"], "$.payload.coefficients"))
    ]
    try:
        mat = moduli.higher_rank_build(n, coeffs)
    except ValueError as exc:
        raise SchemaError("$.payload.coefficients", str(exc))
    ok = moduli.higher_rank_charcheck(mat)
    return {
        "verdicts": {"charcheck": ok},
        "values": {"field": [[p.to_tree() for p in row] for row in mat]},
    }


def _run_selftest(job):
    results = run_selftest(job.seed)
    return {
        "verdicts": {
            "all_passed": all(r.passed for r in results),
            "suites_run": len(results),
            "total_cases": sum(r.cases for r in results),
            "total_failures": sum(r.failures for r in results),
        },
        "values": {"suites": [r.machine_block() for r in results]},
        "_human_extra": [
            f"  {r.name:22s} cases={r.cases:5d} failures={r.failures:3d} ({r.elapsed:.2f}s)"
            for r in results
        ],
    }


_HANDLERS = {
    "factor": _run_factor,
    "base-check": _run_base_check,
    "cover": _run_cover,
    "tower": _run_tower,
    "correspondence": _run_correspondence,
    "bx-table": _run_bx_table,
    "chern": _run_chern,
    "stability": _run_stability,
    "hitchin-section": _run_hitchin_section,
    "sl2r-enum": _run_sl2r_enum,
    "milnor-wood": _run_milnor_wood,
    "rigidity": _run_rigidity,
    "higher-rank": _run_higher_rank,
    "selftest": _run_selftest,
}


def run(job: JobConfig) -> dict:
    body = _HANDLERS[job.command](job)
    report = {
        "command": job.command,
        "seed": job.seed,
        "verdicts": body.get("verdicts", {}),
        "values": body.get("values", {}),
        "witnesses": body.get("witnesses", {}),
    }
    if job.model_echo is not None:
        report["model"] = job.model_echo
    if "_human_extra" in body:
        report["_human_extra"] = body["_human_extra"]
    return report


def machine_block(report: dict) -> str:
    clean = {k: v for k, v in report.items() if not k.startswith("_")}
    return json.dumps(clean, sort_keys=True, separators=(",", ":")) + "\n"


def human_block(report: dict, elapsed: float) -> str:
    lines = [f"command: {report['command']} (seed {report['seed']})"]
    for key, value in report.get("verdicts", {}).items():
        lines.append(f"  {key}: {value}")
    if report.get("witnesses"):
        lines.append(f"  witnesses: {json.dumps(report['witnesses'], sort_keys=True)}")
    lines.extend(report.get("_human_extra", []))
    if report.get("values"):
        keys = ", ".join(sorted(report["values"]))
        lines.append(f"  values: {keys} (see machine block)")
    lines.append(f"  elapsed: {elapsed:.3f}s")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="higgspec", description="exact spectral data for rank-two Higgs bundles"
    )
    parser.add_argument("--config", required=True, help="path to a JSON job config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--format", choices=("human", "machine", "both"), default="both")
    parser.add_argument("--out", default=None, help="also write the output to this path")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    try:
        job = parse_config(text)
        if args.seed is not None:
            job.seed = args.seed
        report = run(job)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HiggspecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0

    chunks = []
    if args.format in ("human", "both"):
        chunks.append(human_block(report, elapsed))
    if args.format in ("machine", "both"):
        chunks.append(machine_block(report))
    output = "".join(chunks)
    sys.stdout.write(output)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
