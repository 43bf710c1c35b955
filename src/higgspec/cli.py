"""Batch front door: one JSON config in, one report out.

    higgspec --config job.json [--seed N] [--format human|machine|both] [--out path]

The config is ``{"command": ..., "model": ..., "payload": ..., "seed": ...}``.
The tables at the end of this module are the single statement of what each
command accepts: ``_MODEL`` holds one table per model kind (``chart``,
``product_curves``, ``surface``), and ``_COMMANDS`` maps each command to its
handler and, per model kind it takes, its payload table.  A table maps each
key to its decoder (integer, boolean, rational, polynomial, NS class, list,
matrix, object) and marks it required, or optional with the value it takes
when absent.  ``parse_config`` walks the tables once and returns the decoded
payload, so the handlers only compute and serialise.  Unknown, missing and
ill-typed keys all exit 2 and name their ``$.path``.

Polynomials are text (``"3/2 * x1^2 * x2"``) or the serialized tree;
rational numbers are ints, ``"p/q"`` strings or ``{"num": p, "den": q}``,
with a nonzero denominator.  Decimals and exponents are rejected.

Exit codes: 0 success, 1 domain/precondition failure, 2 parse/schema failure.
The machine block is canonical JSON: identical config and seed give
byte-identical output, and every emitted value re-parses exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields, replace
from fractions import Fraction

from . import geometry, moduli, spectral
from .errors import DegreeCapExceeded, HiggspecError, ParseError, SchemaError
from .geometry import NSClass, ProductOfCurves, SurfaceModel
from .poly import Poly, _rational_parts
from .spectral import HiggsField, OneForm, RankOneFactorization, SpectralDatum, SymDiff


@dataclass
class JobConfig:
    command: str
    model: object  # None, or the decoded model: {"kind", "nvars"} or {"kind", "rank", "surface"[, "curves"]}
    model_echo: object
    payload: dict  # decoded by the command's payload table
    seed: int


# -- the schema walker ------------------------------------------------------------
#
# A decoder is a function (value, ctx) -> decoded value.  ctx carries what a
# key needs from keys decoded before it: the chart's nvars, the surface model
# and its rank, the cover rank of a chern cover map.  A decoder rejects a value
# by raising _Reject; every enclosing key and list index is appended as the
# exception passes through, so a $.path string is built only for a rejected
# input.


class _Reject(Exception):
    def __init__(self, reason, key=None, error=SchemaError):
        self.reason = reason
        self.error = error
        self.keys = [] if key is None else [key]

    def raise_at_path(self):
        path = "$" + "".join(f"[{k}]" if type(k) is int else f".{k}" for k in reversed(self.keys))
        if self.error is SchemaError:
            raise SchemaError(path, self.reason) from None
        raise self.error(f"{path}: {self.reason}") from None


def _expected(what, x):
    return _Reject(f"expected {what}, got {type(x).__name__}")


def _int(ok=None, why=None):
    def dec(x, ctx):
        if type(x) is not int:
            raise _Reject(f"expected an integer, got {x!r}")
        if ok is not None and not ok(x):
            raise _Reject(why)
        return x

    return dec


_INT = _int()
_NONNEG = _int(lambda v: v >= 0, "must be nonnegative")
_NONZERO = _int(bool, "zero denominator")


def _bool(x, ctx):
    if x is True or x is False:
        return x
    raise _Reject(f"expected a boolean, got {x!r}")


def _str(x, ctx):
    if type(x) is str:
        return x
    raise _expected("a string", x)


def _raw(x, ctx):
    return x


def _command(x, ctx):
    if type(x) is str and x in _COMMANDS:
        return x
    raise _Reject(f"unknown command {x!r}")


def _list(item, size=None):
    """A list of `item`s; with `size`, exactly ctx[size] of them."""

    def dec(x, ctx):
        if type(x) is not list:
            raise _expected("a list", x)
        if size is not None and len(x) != ctx[size]:
            raise _Reject(f"expected {ctx[size]} entries, got {len(x)}")
        out, i = [], 0
        try:
            for i, v in enumerate(x):
                out.append(item(v, ctx))
        except _Reject as exc:
            exc.keys.append(i)
            raise
        return tuple(out)

    return dec


def _obj(fields):
    """An object with the keys of `fields` and no others, decoded in table order.

    A field is a decoder (a required key) or ``(decoder, default)`` (an
    optional key that decodes to `default` when absent).
    """
    decoders = {k: v[0] if type(v) is tuple else v for k, v in fields.items()}
    defaults = {k: v[1] for k, v in fields.items() if type(v) is tuple}
    required = [k for k in fields if k not in defaults]

    def dec(x, ctx):
        if type(x) is not dict:
            raise _expected("an object", x)
        for key in x:
            if key not in decoders:
                raise _Reject("unknown key", key)
        for key in required:
            if key not in x:
                raise _Reject("missing required key", key)
        out, key = {}, None
        try:
            for key, d in decoders.items():
                out[key] = d(x[key], ctx) if key in x else defaults[key]
        except _Reject as exc:
            exc.keys.append(key)
            raise
        return out

    return dec


def _variant(tables, default=None):
    """An object whose "kind" key (`default` when absent) chooses its table."""
    kinds = " or ".join(map(repr, tables))

    def dec(x, ctx):
        if type(x) is not dict:
            raise _expected("an object", x)
        kind = x.get("kind", default)
        table = tables.get(kind) if type(kind) is str else None
        if table is None:
            raise _Reject(f"expected {kinds}, got {kind!r}", "kind")
        return table(x, ctx)

    return dec


def _then(dec, build, catch=ValueError):
    """`dec`, then build(value, ctx); a `catch` error from build rejects the value here."""

    def then(x, ctx):
        value = dec(x, ctx)
        try:
            return build(value, ctx)
        except catch as exc:
            raise _Reject(str(exc)) from None

    return then


def _into(name, dec, view=None):
    """`dec`, also recording its value (or view(value)) as ctx[name] for later keys."""

    def into(x, ctx):
        value = dec(x, ctx)
        ctx[name] = value if view is None else view(value)
        return value

    return into


def _ratio(x, ctx):
    """A rational as ints (p, q), q != 0, not necessarily in lowest terms."""
    t = type(x)
    if t is int:
        return x, 1
    if t is str:
        try:
            return _rational_parts(x)
        except ValueError as exc:
            raise _Reject(str(exc)) from None
    if t is dict:
        tree = _RATIONAL_TREE(x, ctx)
        return tree["num"], tree["den"]
    raise _expected("a rational", x)


def _rational(x, ctx) -> Fraction:
    return Fraction(*_ratio(x, ctx))


def _cls(size="rank"):
    """An NS class: ctx[size] rational coordinates."""
    coords = _list(_ratio, size)
    return lambda x, ctx: NSClass.from_parts(coords(x, ctx))


# the ctx key of the per-config parse memos (see _poly)
_PARSED = "parsed texts"


def _poly(x, ctx) -> Poly:
    """Polynomial text or tree in ctx["nvars"] variables.

    A config parses each distinct text once: ctx[_PARSED] maps nvars to a
    memo text -> Poly (a symmetric matrix spells out both S[i][j] and
    S[j][i]) and the `products` memo of Poly.from_text, raw `*`-product text
    -> (key, degree, p, q), that all its texts in those nvars share, so a
    monomial seen in one entry is read once for the whole config.  Only
    parsed polynomials are kept, so a bad text is rejected where it first
    appears.
    """
    try:
        if type(x) is str:
            nvars = ctx["nvars"]
            texts, products = ctx[_PARSED].setdefault(nvars, ({}, {}))
            p = texts.get(x)
            if p is None:
                try:
                    p = texts[x] = Poly.from_text(x, nvars, products=products)
                except ValueError as exc:
                    raise _Reject(f"bad polynomial text: {exc}") from None
            return p
        if type(x) is dict:
            return Poly.from_tree(_POLY_TREE(x, ctx))
    except DegreeCapExceeded as exc:
        raise _Reject(str(exc), error=DegreeCapExceeded) from None
    raise _Reject("expected polynomial text or tree")


def _tree_nvars(x, ctx):
    if _INT(x, ctx) != ctx["nvars"]:
        raise _Reject(f"polynomial nvars {x} != chart nvars {ctx['nvars']}")
    return x


def _values(d, ctx):
    return tuple(d.values())


_RATIONAL_TREE = _obj({"num": _INT, "den": _NONZERO})
# after this table, Poly.from_tree can only raise DegreeCapExceeded
_POLY_TREE = _obj({
    "nvars": _tree_nvars, "terms": _list(_obj({"exps": _list(_NONNEG, "nvars"), "num": _INT, "den": _NONZERO})),
})
_INT_MATRIX = _list(_list(_INT))
_ONEFORM = _then(_list(_poly, "nvars"), lambda entries, ctx: OneForm(entries))
_SYMDIFF = _then(_list(_list(_poly), "nvars"), lambda rows, ctx: SymDiff(rows))
_DATUM = _then(_obj({"s1": _ONEFORM, "s2": _SYMDIFF}), lambda d, ctx: SpectralDatum(d["s1"], d["s2"]))
_FACTORIZATION = _then(
    _obj({"alpha": _ONEFORM, "tau": _poly}), lambda d, ctx: RankOneFactorization(d["alpha"], d["tau"])
)


# -- model builders ------------------------------------------------------------------


def _intersection(x, ctx):
    """Row-major rank * rank integers, or a list of integer rows."""
    if type(x) is list and all(type(v) is int for v in x):
        n = ctx["rank"]
        if len(x) != n * n:
            raise _Reject(f"expected {n * n} row-major entries")
        return tuple(tuple(x[i * n : (i + 1) * n]) for i in range(n))
    return _INT_MATRIX(x, ctx)


def _product_curves_model(d, ctx):
    X = ProductOfCurves(d["g1"], d["g2"])
    model = X.model
    if d["torsion2"] is not None:
        model = replace(model, torsion2_count=d["torsion2"])
    ctx.update(rank=model.rank, surface=model, curves=X)
    return d


def _surface_model(d, ctx):
    ctx["surface"] = SurfaceModel(d["generators"], d["intersection"], d["K"], d["omega"], d["b1"], d["torsion2"])
    return d


# -- payload builders ----------------------------------------------------------------


def _cover_map(d, ctx):
    return geometry.CoverMap(
        P=d["P"], cover_Q=d["cover_intersection"], pullback=d["pullback"], L_class=d["L"], base=ctx["surface"]
    )


def _split_description(d, ctx):
    desc = moduli.SplitHiggsDescription(
        d["L1"], d["L2"], ctx["surface"], d["alpha_nonzero"], d["beta_nonzero"],
        d["alpha_beta_proportional"], d["L1_iso_L2"],
    )
    return {"kind": d["kind"], "description": desc}


def _companion(coeffs, ctx):
    return moduli.higher_rank_build(ctx["companion_rank"], coeffs)


# -- command handlers ------------------------------------------------------------------


def _at(path, fn, *args, **kwargs):
    """fn(*args, **kwargs), with `path` put in front of a DegreeCapExceeded it raises."""
    try:
        return fn(*args, **kwargs)
    except DegreeCapExceeded as exc:
        raise DegreeCapExceeded(f"{path}: {exc}") from None


def _branch_path(comps):
    """Where a cover's branch data came from: the declared components, or tau."""
    return "$.payload.components" if comps is not None else "$.payload.factorization.tau"


def _run_factor(job):
    try:
        f = _at("$.payload.s", spectral.factor_rank_one, job.payload["s"])
    except spectral.NotRankOne as exc:
        return {
            "verdicts": {"rank_le_one": False},
            "witnesses": {"minor_indices": list(exc.indices), "minor": exc.minor},
        }
    return {
        "verdicts": {"rank_le_one": True},
        "values": {"factorization": f.to_tree()},
    }


def _run_base_check(job):
    v = _at("$.payload.datum", spectral.spectral_base_check, job.payload["datum"])
    out = {"verdicts": {"membership": v.kind}}
    if v.kind == "member":
        out["values"] = {"factorization": v.factorization.to_tree()}
    elif v.kind == "not_member":
        out["witnesses"] = {"minor_indices": list(v.indices), "minor": v.minor}
    return out


def _cover_tree(c):
    tree = c.to_tree()
    tree["normal"] = spectral.is_normal(c)
    split = c.splits_over_base()
    if split is not None:
        tree["splits_over_base_field"] = split
    return tree


def _run_cover(job):
    comps = job.payload["components"]
    c = _at(_branch_path(comps), spectral.build_cover, job.payload["factorization"], components=comps)
    return {"values": {"cover": _cover_tree(c)}}


def _run_tower(job):
    comps = job.payload["components"]
    path = _branch_path(comps)
    cover = _at(path, spectral.build_cover, job.payload["factorization"], components=comps)
    tower = _at(path, spectral.tower_enumerate, cover)
    return {
        "verdicts": {"count": len(tower.covers), "normalization_index": tower.normalization_index},
        "values": {
            "covers": [_cover_tree(c) for c in tower.covers],
            "edges": [list(e) for e in tower.edges],
        },
    }


def _run_correspondence(job):
    phi = job.payload["higgs"]["matrices"]
    # every cap it can raise is met by a product or quotient of the field's entries
    module = _at("$.payload.higgs.matrices", spectral.module_from_higgs, phi, job.payload["factorization"])
    back = _at("$.payload.higgs.matrices", spectral.pushforward, module, job.payload["factorization"])
    return {
        "verdicts": {"cayley_hamilton": True, "roundtrip_identity": back == phi},
        "values": {
            "eta_action": [list(row) for row in module.eta_action],
        },
    }


def _run_bx_table(job):
    table = geometry.bx_decomposition(job.model["curves"])
    return {
        "verdicts": {"component_count": len(table.components), "swapped": table.swapped},
        "values": {
            "components": [{f.name: getattr(c, f.name) for f in fields(c)} for c in table.components],
            "intersections": [
                {"pair": list(pair), "dim": dim} for pair, dim in table.intersections
            ],
        },
    }


def _run_chern(job):
    model, cover, m_c1 = job.model["surface"], job.payload["cover_map"], job.payload["M_c1"]
    c1 = geometry.pushforward_c1(m_c1, cover)
    c2 = geometry.pushforward_c2(m_c1, cover)
    return {
        "values": {
            "c1": c1,
            "c2": c2,
            "discriminant": geometry.discriminant(c1, c2, model),
        }
    }


def _run_stability(job):
    p = job.payload
    if p["kind"] == "hodge":
        v = moduli.hodge_stability(p["d1"], p["d2"], p["alpha_nonzero"])
    else:
        v = moduli.real_stability(p["description"])
    return {"verdicts": {"stability": v.value}}


def _run_hitchin_section(job):
    p = job.payload
    if job.model["kind"] == "chart":
        out = _at("$.payload.datum", moduli.hitchin_section, p["datum"])
        body = {
            "verdicts": {
                "stability": out.stability.value,
                "real": out.real,
                "branch": out.branch,
                "identity_checked": out.identity_checked,
            },
            "values": {"field": out.field.to_tree()},
        }
        if out.factorization is not None:
            body["values"]["factorization"] = out.factorization.to_tree()
        return body
    out = moduli.hitchin_section(moduli.LatticeSectionDatum(p["L"], p["D"], job.model["surface"]))
    return {
        "verdicts": {
            "stability": out.stability.value,
            "real": out.real,
            "psl2r_condition": out.psl2r_condition,
            "sl2r_condition": out.sl2r_condition,
        },
        "values": {
            "E_classes": list(out.E_classes),
        },
    }


def _run_sl2r_enum(job):
    """values.data written from the enumeration's groups, without building its rows.

    The rows of one prefix are head + prefix digits + tail, joined by ",":
    prefix_text.join(pieces), pieces = [head_0, tail_0 + "," + head_1, ...,
    tail_n].  A head is written once per D1 object (D2 and N follow from it),
    a tail once per suffix object, and the pieces once per kept list, which
    every prefix with the same partial sum shares.  The ids stay valid because
    data keeps every object alive while the block is written.
    """
    model = job.model["surface"]
    data = _at("$.payload.components", moduli.sl2r_enumerate, job.payload["components"], job.payload["L"], model)
    # the prefix is the shorter half: a nonempty prefix comes with a nonempty suffix and a comma between
    comma = "," if data.groups[0][0] else ""
    heads, tails, pieces_at, blocks = {}, {}, {}, []
    for prefix, kept in data.groups:
        if not kept:
            continue
        pieces = pieces_at.get(id(kept))
        if pieces is None:
            pieces = pieces_at[id(kept)] = [""]
            for sfx, D1, D2, N in kept:
                head = heads.get(id(D1))
                if head is None:
                    head = heads[id(D1)] = f'{{"D1":{D1.to_json()},"D2":{D2.to_json()},"N":{N.to_json()},"tuple_a":['
                tail = tails.get(id(sfx))
                if tail is None:
                    tail = tails[id(sfx)] = comma + ",".join(map(int.__repr__, sfx)) + "]}"
                pieces[-1] += head
                pieces.append(tail + ",")
            pieces[-1] = tail
        blocks.append(",".join(map(int.__repr__, prefix)).join(pieces))
    return {
        "verdicts": {"count": len(data), "torsion_multiplicity": model.torsion2_count},
        "values": {"data": _Canonical("[" + ",".join(blocks) + "]")},
    }


def _run_milnor_wood(job):
    p = job.payload
    rep = moduli.milnor_wood_check(p["W"], p["gamma"], job.model["surface"], K_pseff=p["K_pseff"])
    return {
        "verdicts": {"holds": rep.holds},
        "values": {"toledo": rep.toledo, "bound": rep.bound},
    }


def _run_rigidity(job):
    p = job.payload
    v = moduli.rigidity_verdict(moduli.TopologicalData(p["picard_number_one"], p["b1"], p["double_cover_b1s"]))
    return {"verdicts": {"status": v.status, "reason": v.reason}}


def _run_higher_rank(job):
    mat = job.payload["coefficients"]  # decoded into the companion field
    return {
        "verdicts": {"charcheck": moduli.higher_rank_charcheck(mat)},
        "values": {"field": [list(row) for row in mat]},
    }


def _run_selftest(job):
    from .selftest import run_selftest  # the suites are compiled only when they run

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


# -- the tables -------------------------------------------------------------------
#
# An object table maps each key to its decoder (a required key) or to
# (decoder, default) (an optional key).  The model's kind chooses its table;
# the command and the model kind choose the payload table.

_GENUS = _int(lambda v: 0 <= v <= geometry.MAX_GENUS, f"genus must be 0..{geometry.MAX_GENUS}")
_MAX_DIM = spectral.MAX_CHART_DIM
_MODEL = _into("kind", _variant({
    "chart": _obj({
        "kind": _str,
        "nvars": _into("nvars", _int(lambda v: 1 <= v <= _MAX_DIM, f"chart dimension must be 1..{_MAX_DIM}")),
    }),
    "product_curves": _then(
        _obj({"kind": _str, "g1": _GENUS, "g2": _GENUS, "torsion2": (_NONNEG, None)}), _product_curves_model
    ),
    "surface": _then(
        _obj({
            "kind": _str, "generators": _into("rank", _list(_str), len), "intersection": _intersection,
            "K": _cls(), "omega": _cls(), "b1": (_NONNEG, 0), "torsion2": (_NONNEG, 1),
        }),
        _surface_model, (ValueError, HiggspecError),
    ),
}), lambda d: d["kind"])

_CONFIG = _obj({
    "command": _command,
    "seed": (lambda x, ctx: None if x is None else _INT(x, ctx), 0),
    "model": (_MODEL, None),
    "payload": (_raw, {}),  # decoded by the command's table once the model is known
})

_COVER = _obj({
    "factorization": _FACTORIZATION,
    "components": (_list(_then(_obj({"factor": _poly, "multiplicity": _INT}), _values)), None),
})
_COVER_MAP = _then(
    _obj({
        "P": _into("cover_rank", _INT_MATRIX, lambda P: len(P[0]) if P else 0),
        "cover_intersection": _INT_MATRIX, "pullback": _INT_MATRIX, "L": _cls(),
    }),
    _cover_map, (ValueError, HiggspecError),
)
_STABILITY = _variant({
    "hodge": _obj({"kind": _str, "d1": _rational, "d2": _rational, "alpha_nonzero": _bool}),
    "real": _then(_obj({
        "kind": (_str, "real"), "L1": _cls(), "L2": _cls(), "alpha_nonzero": _bool, "beta_nonzero": _bool,
        "alpha_beta_proportional": _bool, "L1_iso_L2": _bool,
        "omega_diag_nonzero": (_bool, None),  # accepted and ignored
    }), _split_description),
}, default="real")
_SURFACES = ("surface", "product_curves")

# command -> (handler, {model kind, or None for no model: payload table})
_COMMANDS = {
    "factor": (_run_factor, {"chart": _obj({"s": _SYMDIFF})}),
    "base-check": (_run_base_check, {"chart": _obj({"datum": _DATUM})}),
    "cover": (_run_cover, {"chart": _COVER}),
    "tower": (_run_tower, {"chart": _COVER}),
    "correspondence": (_run_correspondence, {"chart": _obj({
        "higgs": _obj({
            "matrices": _then(_list(_list(_list(_poly)), "nvars"), lambda m, ctx: HiggsField(m)),
            "rank": (_INT, None),  # accepted and ignored
        }),
        "factorization": _FACTORIZATION,
    })}),
    "bx-table": (_run_bx_table, {"product_curves": _obj({})}),
    "chern": (_run_chern, dict.fromkeys(_SURFACES, _obj({"cover_map": _COVER_MAP, "M_c1": _cls("cover_rank")}))),
    "stability": (_run_stability, dict.fromkeys(_SURFACES, _STABILITY)),
    "hitchin-section": (_run_hitchin_section, {
        "chart": _obj({"datum": _DATUM}),
        # s1_nonzero is accepted and ignored
        **dict.fromkeys(_SURFACES, _obj({"L": _cls(), "D": _cls(), "s1_nonzero": (_bool, None)})),
    }),
    "sl2r-enum": (_run_sl2r_enum, dict.fromkeys(_SURFACES, _obj({
        "components": _list(_then(_obj({"class": _cls(), "multiplicity": _INT}), _values)), "L": _cls(),
    }))),
    "milnor-wood": (
        _run_milnor_wood, dict.fromkeys(_SURFACES, _obj({"W": _cls(), "gamma": _cls(), "K_pseff": (_bool, True)}))
    ),
    "rigidity": (_run_rigidity, {None: _obj({
        "picard_number_one": _bool, "b1": _NONNEG, "double_cover_b1s": (_list(_NONNEG), ()),
    })}),
    "higher-rank": (_run_higher_rank, {None: _obj({
        "rank": _into("companion_rank", _INT),
        "nvars": _into("nvars", _int(lambda v: 0 <= v <= _MAX_DIM, f"must be 0..{_MAX_DIM}")),
        "coefficients": _then(_list(_poly), _companion),  # decoded into the companion field
    })}),
    "selftest": (_run_selftest, {None: _obj({})}),
}


def _decode(doc) -> JobConfig:
    ctx = {_PARSED: {}}
    top = _CONFIG(doc, ctx)
    command = top["command"]
    tables = _COMMANDS[command][1]
    model = {k: v for k, v in ctx.items() if k != _PARSED} if top["model"] is not None else None
    table = tables.get(ctx.get("kind"))
    if table is None:
        kinds = " or ".join(k for k in tables if k)
        raise _Reject(f"command {command!r} " + (f"needs a {kinds} model" if kinds else "takes no model"), "model")
    try:
        payload = table(top["payload"], ctx)
    except _Reject as exc:
        exc.keys.append("payload")
        raise
    return JobConfig(command, model, doc.get("model"), payload, top["seed"])


def parse_config(text: str) -> JobConfig:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer literal past Python's digit limit
        raise ParseError("$", f"invalid JSON: {exc}")
    try:
        return _decode(doc)
    except _Reject as exc:
        exc.raise_at_path()


def run(job: JobConfig) -> dict:
    body = _COMMANDS[job.command][0](job)
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


# -- the canonical writer ---------------------------------------------------------
#
# A report is JSON data whose "values" and "witnesses" may also hold three
# kinds of leaf: Poly and NSClass objects and Fractions, each written as its
# tree would be, and _Canonical fragments, written as they are.  The machine
# block is the text json.dumps gives with sorted keys and no spaces.  The
# plain parts go through one C encoder; the rest is walked here, and each
# distinct Poly or NSClass object is written once per block.


class _Canonical(str):
    """JSON text already in canonical form, exactly as
    json.dumps(sort_keys=True, separators=(",", ":")) writes its value."""

    __slots__ = ()


_PLAIN = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_STR = json.encoder.encode_basestring_ascii
_OBJECT_KEYS = ("values", "witnesses")


def _write(x, memo):
    """x as canonical JSON.

    A _Canonical leaf is emitted as it is, so it must already be the text
    json.dumps(sort_keys=True, separators=(",", ":")) gives for its value.
    memo, one per block, maps id(leaf) to the text of a Poly or NSClass
    leaf, and a dict's key tuple to its keys in sorted order, each with its
    written prefix.  A container writes an int item, or a leaf already in
    memo, in place, with no call: the objects of a report stay alive while
    its block is written, so no other object has a memoized id.
    """
    t = type(x)
    if t is dict:
        keys = tuple(x)
        layout = memo.get(keys)
        if layout is None:
            layout = memo[keys] = [(k, _STR(k) + ":") for k in sorted(keys)]
        return "{" + ",".join([
            prefix + (int.__repr__(v) if type(v) is int else memo.get(id(v)) or _write(v, memo))
            for k, prefix in layout for v in [x[k]]
        ]) + "}"
    if t is list or t is tuple:
        return "[" + ",".join([
            int.__repr__(v) if type(v) is int else memo.get(id(v)) or _write(v, memo) for v in x
        ]) + "]"
    if t is str:
        return _STR(x)
    if t is _Canonical:
        return x
    if t is Poly or t is NSClass:
        memo[id(x)] = text = x.to_json()
        return text
    if t is Fraction:
        return f'{{"den":{x.denominator},"num":{x.numerator}}}'
    return _PLAIN.encode(x)  # bool, None, float; a TypeError for anything else


def machine_block(report: dict) -> str:
    memo = {}
    return "{" + ",".join([
        _STR(k) + ":" + (_write(report[k], memo) if k in _OBJECT_KEYS else _PLAIN.encode(report[k]))
        for k in sorted(report) if not k.startswith("_")
    ]) + "}\n"


def human_block(report: dict, elapsed: float) -> str:
    lines = [f"command: {report['command']} (seed {report['seed']})"]
    for key, value in report.get("verdicts", {}).items():
        lines.append(f"  {key}: {value}")
    if report.get("witnesses"):
        # json.dumps spacing, from the same canonical text
        witnesses = json.loads(_write(report["witnesses"], {}))
        lines.append(f"  witnesses: {json.dumps(witnesses, sort_keys=True)}")
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
