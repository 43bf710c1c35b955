"""Per-layer timings of higgspec on recorded inputs.

    python3 benchmarks/bench.py --src DIR --out PATH [--parent DIR] [--repeats N] [--corpus FILE]

Builds the seed-1 ``rank-test``, ``cover-tower`` and ``lattice`` rounds with
``perfbench/gen.py`` (imported, never changed) and runs them once through the
CLI front door of the checkout at DIR (``DIR/src`` is imported), with these
functions wrapped to record their arguments: ``Poly.from_text``,
``Poly.__mul__`` (polynomial operands; the products that ``poly.det2``
forms, for the rank test's minors and ``hitchin_map``, do not pass through
it), ``exact_div``, top-level
``poly_gcd`` calls of any arity (not the gcds that ``poly_gcd`` and the
squarefree layer make themselves), ``squarefree_decompose``,
``SpectralDatum.quarter_defect``, ``spectral.factor_rank_one``,
``spectral.first_nonzero_minor`` (the calls that find a witness),
``spectral._normalize_covector``, ``hitchin_map``,
``spectral.module_from_higgs`` (the ``correspondence`` jobs of the
``cover-tower`` round), ``moduli.sl2r_enumerate`` and the construction of a
``geometry.CoverMap`` (its projection-formula check; the ``chern`` jobs).
The ``rank-test`` and ``cover-tower`` configs are recorded too.
``Poly.evaluate`` is timed on the entries S[i][j], i <= j, of the recorded
members and witnesses at ``spectral.ROUTE_POINT``, the evaluations of the
rank test.  Each function is then timed alone over its recorded inputs, in
CPU time, N times; ``factor_rank_one`` is split into rank-one members (it
returns) and rank-two witnesses (it raises NotRankOne), and
``parse_config`` is timed over the recorded ``rank-test`` configs and, in a
row of its own, the ``cover-tower`` ones.  ``machine_block`` is timed over
the reports of the ``lattice`` and ``cover-tower`` rounds, made once before
it is timed; the sl2r-enum rows of a report are rendered by ``run``, so
that row does not see them.  The whole front door, parse, ``run`` and
``machine_block``, is timed on the 2^16-tuple ``sl2r-enum`` job of
_sl2r_cap_job.  One in-process round of each workload is timed the same
way.

``matrix.charpoly_cofactor`` is timed on seeded companion fields of rank
2..5, the matrices of the ``higher-rank`` command, which no round runs.

Ten stress rows time work no round does.  Six are on S = tau alpha
alpha^T in 4 variables, alpha_i dense of degree d with coefficients 1..9,
written in ascending exponent order: the first covector gcd of ``factor``
at d = 3, the whole ``factor`` job at d = 4, and ``factor_rank_one`` on S
at each d = 1..4 (the ladder; S is parsed before it is timed).  The third is one large
product, a square and a product of two distinct polynomials, dense in 3
variables of degree 14 (680 terms, 462,400 term pairs each).  Three are
``sl2r_enumerate`` calls on which tuples share little (_sl2r_stress): in
general position, at the tuple cap with few tuples kept, and at the cap
with half of them kept.  Every ``sl2r_enumerate`` row times
``list(sl2r_enumerate(...))``, the rows built, whether a checkout returns
them as a list or builds them on first read.

A timed run makes `passes` passes over a row's calls: passes doubles from 1
until one run lasts at least MIN_RUN_S of CPU, so no row is only a few
steps of the process CPU clock long, and the times are per pass; that
first long run is the first repeat.  Every timed run is stopped after
CPU_LIMIT_S seconds of CPU (ITIMER_PROF on the process that times it), and
the row is then recorded as over the limit, with null times and hash.

A change can alter which calls a round makes, so two checkouts record
different inputs.  With ``--corpus FILE`` the inputs are written to FILE by
the first run and read back from it by every later run, so runs at a parent
checkout and at a change time the same inputs.  Record the corpus at the
older checkout: one recorded where ``poly_gcd`` takes any number of
operands holds calls of three and four that a two-operand ``poly_gcd``
cannot replay.  Checkouts that form different products record different
``mul`` inputs: one whose ``CoverModule`` forms -tau * Id to check eta^2
records 100 more a seed-1 round than one that squares eta and reads its
entries.  So a ``--parent`` run reads a corpus recorded at the parent: a
``--corpus`` FILE the parent recorded, or none, and the parent's worker
records it.

With ``--parent DIR`` the checkout at DIR is measured too, on the same
inputs: each side runs in a process of its own.  A row's passes are
calibrated once, on the side that goes first (alternating from row to
row), and both sides time it at that pass count, their repeats interleaved
(parent, change, parent, ...), so a burst of load on a shared host falls on
both sides alike.

Rows ``{layer, case, calls, best_s, median_s, passes, repeats, python,
commit, output_sha256}`` are merged into PATH (rows of the same commit are replaced),
so a parent checkout and a change, measured together or in two runs, leave
both in one file.
``output_sha256`` hashes the timed calls' results: equal hashes mean equal
outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1
WORKLOADS = ("rank-test", "cover-tower", "lattice")
# CPU seconds one timed run of a row may take; a gcd with no bound would hang the harness
CPU_LIMIT_S = 20
# CPU seconds one timed run lasts at least: the process CPU clock of a shared
# host steps by milliseconds, so a 1-ms row read 0.0000 s, and a burst of load
# on the host moves a run of a few passes by half its length
MIN_RUN_S = 0.5


class _OverLimit(Exception):
    pass


def _over_limit(signum, frame):
    raise _OverLimit


def _commit(src):
    try:
        out = subprocess.run(
            ["git", "-C", src, "describe", "--always", "--dirty", "--abbrev=12"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _run_job(cli, errors, config):
    try:
        return cli.machine_block(cli.run(cli.parse_config(config)))
    except errors.HiggspecError as exc:
        return f"error: {type(exc).__name__}: {exc}"


def _rebind(old, new):
    """Point every higgspec module attribute bound to function old at new; the undo list."""
    undo = []
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "higgspec":
            for attr, val in list(vars(mod).items()):
                if val is old:
                    undo.append((mod, attr, old))
                    setattr(mod, attr, new)
    return undo


def _plain(x):
    """x as JSON data: Poly and NSClass leaves read back from their to_json text, Fraction leaves as trees.

    A SymDiff is the list of its rows and a SpectralDatum the dict of s1 and
    s2, built from their fields; another composite (OneForm, HiggsField,
    RankOneFactorization) goes through its to_tree.  Either may leave such
    objects at its leaves.
    """
    if hasattr(x, "to_json"):
        return json.loads(x.to_json())
    kind = type(x).__name__
    if kind == "SymDiff":
        x = [list(row) for row in x.S]
    elif kind == "SpectralDatum":
        x = {"s1": x.s1, "s2": x.s2}
    elif hasattr(x, "to_tree"):
        x = x.to_tree()
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _model_tree(m):
    return {"generators": list(m.generators), "Q": [list(r) for r in m.Q], "K": _plain(m.K),
            "omega": _plain(m.omega), "b1": m.b1, "torsion2_count": m.torsion2_count}


def _record(poly, spectral, moduli, geometry, run_round):
    """Run the rounds once with the recorded functions wrapped; their inputs as JSON data."""
    P, SD, CM = poly.Poly, spectral.SpectralDatum, geometry.CoverMap
    rec = {k: [] for k in ("from_text", "quarter_defect", "members", "witnesses", "minor_witnesses",
                           "mul", "exact_div", "poly_gcd", "squarefree", "normalize_covector", "hitchin_map",
                           "module_from_higgs", "sl2r_enumerate", "cover_map")}
    from_text, mul, quarter_defect = P.from_text.__func__, P.__mul__, SD.quarter_defect
    fro, fnm = spectral.factor_rank_one, spectral.first_nonzero_minor
    div, gcd = poly.exact_div, poly.poly_gcd
    sqf, is_sqf, hitchin = poly.squarefree_decompose, poly.is_squarefree, spectral.hitchin_map
    norm, to_module = spectral._normalize_covector, spectral.module_from_higgs
    sl2r, cover_check = moduli.sl2r_enumerate, CM.__post_init__
    depth = [0]

    def nested(fn, *args):
        # a gcd made inside fn is not a top-level one
        depth[0] += 1
        try:
            return fn(*args)
        finally:
            depth[0] -= 1

    def rec_from_text(cls, text, nvars, **kw):
        rec["from_text"].append([text, nvars])
        return from_text(cls, text, nvars, **kw)

    def rec_mul(self, other):
        if isinstance(other, P):
            rec["mul"].append([self.to_tree(), other.to_tree()])
        return mul(self, other)

    def rec_quarter_defect(self):
        rec["quarter_defect"].append(_plain(self))
        return quarter_defect(self)

    def rec_fro(S):
        try:
            out = fro(S)
        except spectral.NotRankOne:
            rec["witnesses"].append(_plain(S))
            raise
        rec["members"].append(_plain(S))
        return out

    def rec_fnm(S, *args):
        out = fnm(S, *args)
        if out is not None:
            rec["minor_witnesses"].append(_plain(S))
        return out

    def rec_div(a, b):
        rec["exact_div"].append([a.to_tree(), b.to_tree()])
        return div(a, b)

    def rec_gcd(*polys):
        if not depth[0]:
            rec["poly_gcd"].append([p.to_tree() for p in polys])
        return nested(gcd, *polys)

    def rec_sqf(f):
        rec["squarefree"].append(f.to_tree())
        return nested(sqf, f)

    def rec_is_sqf(f):
        return nested(is_sqf, f)

    def rec_norm(entries):
        rec["normalize_covector"].append([p.to_tree() for p in entries])
        return norm(entries)

    def rec_hitchin(phi):
        rec["hitchin_map"].append(_plain(phi))
        return hitchin(phi)

    def rec_to_module(phi, f):
        rec["module_from_higgs"].append([_plain(phi), _plain(f)])
        return to_module(phi, f)

    def rec_sl2r(components, L, model):
        rec["sl2r_enumerate"].append(
            [[[_plain(c), int(m)] for c, m in components], _plain(L), _model_tree(model)]
        )
        return sl2r(components, L, model)

    def rec_cover_check(self):
        # the fields as the caller passed them, before __post_init__ converts them
        rec["cover_map"].append([[list(r) for r in self.P], [list(r) for r in self.cover_Q],
                                 [list(r) for r in self.pullback], _plain(self.L_class),
                                 _model_tree(self.base)])
        return cover_check(self)

    wrapped = [(fro, rec_fro), (fnm, rec_fnm), (div, rec_div), (gcd, rec_gcd), (sqf, rec_sqf), (is_sqf, rec_is_sqf),
               (norm, rec_norm), (hitchin, rec_hitchin), (to_module, rec_to_module), (sl2r, rec_sl2r)]
    P.from_text = classmethod(rec_from_text)
    P.__mul__ = rec_mul
    SD.quarter_defect = rec_quarter_defect
    CM.__post_init__ = rec_cover_check
    undo = []
    try:
        for old, new in wrapped:
            undo += _rebind(old, new)
        for wl in WORKLOADS:
            run_round(wl)
    finally:
        P.from_text = classmethod(from_text)
        P.__mul__ = mul
        SD.quarter_defect = quarter_defect
        CM.__post_init__ = cover_check
        for mod, attr, old in undo:
            setattr(mod, attr, old)
    return rec


def _ascending_text(terms):
    return " + ".join(
        f"{c}" + "".join(f" * x{i + 1}^{k}" for i, k in enumerate(e) if k) for e, c in sorted(terms.items())
    )


def _dense(P, rng, n, deg):
    """A dense polynomial in n variables of total degree deg, coefficients 1..9."""
    exps = (e for e in itertools.product(range(deg + 1), repeat=n) if sum(e) <= deg)
    return P.from_text(_ascending_text({e: rng.randint(1, 9) for e in exps}), n)


def _dense_factor_s(P, deg):
    """S = tau alpha alpha^T in 4 variables, alpha_i dense of degree deg, as the ascending texts of its rows."""
    rng, n = random.Random(SEED), 4
    alpha = [_dense(P, rng, n, deg) for _ in range(n)]
    tau = _dense(P, rng, n, rng.randint(1, 2))
    return [[_ascending_text({e: int(c) for e, c in (tau * alpha[i] * alpha[j]).terms.items()}) for j in range(n)]
            for i in range(n)]


def _sl2r_stress(geometry):
    """Three sl2r_enumerate calls (components, L, model) where tuples share little.

    General position: rank 4, the form diag(1, -2, -3, -7), six seeded
    classes with coordinates in -4..4 and m = (2, 4, 4, 4, 6, 6): 18,375
    tuples, only the balanced one kept.  At the cap: (F1 + F2, 255) twice on
    the product of two genus-2 curves, 2^16 tuples, 256 kept.  Sixteen
    fibres F1 of multiplicity one with L = 8 F1: 2^16 tuples, 32,768 kept.
    """
    NS, rng = geometry.NSClass, random.Random(SEED)
    model = geometry.SurfaceModel(("h", "e1", "e2", "e3"), ((1, 0, 0, 0), (0, -2, 0, 0), (0, 0, -3, 0), (0, 0, 0, -7)),
                                  NS((-3, 1, 1, 1)), NS((1, 0, 0, 0)))
    comps = [(NS([rng.randint(-4, 4) for _ in range(4)]), m) for m in (2, 4, 4, 4, 6, 6)]
    g22 = geometry.ProductOfCurves(2, 2)
    F1, F = g22.F1, g22.F1 + g22.F2
    return [(comps, sum((c * m for c, m in comps), NS.zero(4)).half(), model),
            ([(F, 255)] * 2, F * 255, g22.model),
            ([(F1, 1)] * 16, F1 * 8, g22.model)]


def _sl2r_cap_job():
    """An sl2r-enum config of exactly 2^16 tuples, 6,510 of them kept, with classes of denominator 2.

    Seven fibres F1, seven fibres F2 and two copies of (F1 + F2) / 2 on the
    product of two genus-2 curves, each of multiplicity one, with
    L = 4 F1 + 4 F2 (the job pinned by tests/data/sl2r-enum-cap.sha256).
    """
    F1, F2, half = [1, 0], [0, 1], ["1/2", "1/2"]
    classes = [F1, F2, F1, F2, F1, F2, F1, half, F2, F1, F2, F1, F2, F1, F2, half]
    return json.dumps({"command": "sl2r-enum", "model": {"kind": "product_curves", "g1": 2, "g2": 2},
                       "payload": {"components": [{"class": c, "multiplicity": 1} for c in classes], "L": [4, 4]}})


def _companions(P, moduli):
    """Ten seeded companion fields per rank 2..5, coefficients in 2 variables of degree <= 3 with <= 4 terms."""
    rng = random.Random(SEED)
    mats = []
    for r in (2, 3, 4, 5):
        for _ in range(10):
            coeffs = []
            for _ in range(r - 1):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    e = (rng.randint(0, 3), rng.randint(0, 3))
                    terms[e] = rng.choice((-3, -2, -1, 1, 2, 3))
                coeffs.append(P.from_text(_ascending_text(terms), 2))
            mats.append(moduli.higher_rank_build(r, coeffs))
    return mats


def _factor_text(out):
    return json.dumps(_plain(out)) if hasattr(out, "to_tree") else f"{type(out).__name__}: {out}"


def _witness_text(out):
    return "None" if out is None else f"{out[0]} {out[1].to_text()}"


def _poly_text(out):
    return out.to_text() if hasattr(out, "to_text") else f"{type(out).__name__}: {out}"


def _gcd_text(out):
    """The gcd alone: a checkout whose poly_gcd returns the cofactors too hashes as one that does not."""
    return _poly_text(out[0] if isinstance(out, tuple) else out)


def _module_text(out):
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    return " ; ".join(p.to_text() for row in out.eta_action for p in row)


def _sl2r_text(out):
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    return json.dumps([[list(d.tuple_a), _plain(d.D1), _plain(d.D2), _plain(d.N_class),
                        d.torsion_multiplicity] for d in out])


def _cover_map_text(c):
    return json.dumps([c.P, c.cover_Q, c.pullback, _plain(c.L_class)])


def _cases(src, corpus=None):
    """The rows (layer, case, calls, fn, render) on the checkout at src, on recorded inputs."""
    sys.path.insert(0, os.path.join(src, "src"))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen
    from higgspec import cli, errors, geometry, matrix, moduli, poly, spectral

    rounds = {wl: [j.config for j in gen.generate(wl, SEED)] for wl in WORKLOADS}

    def run_round(wl):
        return [_run_job(cli, errors, c) for c in rounds[wl]]

    if corpus and os.path.exists(corpus):
        with open(corpus, encoding="utf-8") as fh:
            rec = json.load(fh)
        print(f"inputs read from {corpus}")
    else:
        rec = _record(poly, spectral, moduli, geometry, run_round)
        rec["rank_test_configs"] = rounds["rank-test"]
        rec["cover_tower_configs"] = rounds["cover-tower"]
        if corpus:
            with open(corpus, "w", encoding="utf-8") as fh:
                json.dump(rec, fh)
            print(f"inputs recorded at {src}, written to {corpus}")

    P = poly.Poly

    def poly_in(t):
        # the constructor, not from_tree: recorded intermediate values may pass the parse cap
        return P(t["nvars"], {tuple(x["exps"]): Fraction(x["num"], x["den"]) for x in t["terms"]})

    def attempt(fn, *args):
        try:
            return fn(*args)
        except errors.HiggspecError as exc:
            return exc

    def sl2r_rows(*args):
        # the rows built: a checkout that returns them on first read does this work inside the timed call
        return list(moduli.sl2r_enumerate(*args))

    def symdiff_in(t):
        return spectral.SymDiff([[poly_in(p) for p in row] for row in t])

    def datum_in(t):
        return spectral.SpectralDatum(spectral.OneForm([poly_in(p) for p in t["s1"]]), symdiff_in(t["s2"]))

    def field_in(t):
        return spectral.HiggsField(tuple(tuple(tuple(map(poly_in, row)) for row in m) for m in t["matrices"]))

    def factorization_in(t):
        return spectral.RankOneFactorization(spectral.OneForm([poly_in(p) for p in t["alpha"]]), poly_in(t["tau"]))

    def class_in(t):
        return geometry.NSClass.from_parts([(x["num"], x["den"]) for x in t])

    def model_in(t):
        return geometry.SurfaceModel(tuple(t["generators"]), tuple(map(tuple, t["Q"])), class_in(t["K"]),
                                     class_in(t["omega"]), t["b1"], t["torsion2_count"])

    texts = [tuple(t) for t in rec["from_text"]]
    datums = [datum_in(t) for t in rec["quarter_defect"]]
    members = [symdiff_in(t) for t in rec["members"]]
    witnesses = [symdiff_in(t) for t in rec["witnesses"]]
    minor_witnesses = [symdiff_in(t) for t in rec["minor_witnesses"]]
    configs, tower_configs = rec["rank_test_configs"], rec["cover_tower_configs"]
    muls, divs = ([(poly_in(a), poly_in(b)) for a, b in rec[k]] for k in ("mul", "exact_div"))
    gcds = [tuple(map(poly_in, t)) for t in rec["poly_gcd"]]
    sqfs = [poly_in(t) for t in rec["squarefree"]]
    covectors = [tuple(map(poly_in, t)) for t in rec["normalize_covector"]]
    fields = [field_in(t) for t in rec["hitchin_map"]]
    correspondences = [(field_in(phi), factorization_in(f)) for phi, f in rec["module_from_higgs"]]
    sl2r_calls = [([(class_in(c), m) for c, m in comps], class_in(L), model_in(model))
                  for comps, L, model in rec["sl2r_enumerate"]]
    cover_maps = [(Pm, cQ, pb, class_in(L), model_in(base)) for Pm, cQ, pb, L, base in rec["cover_map"]]
    # the entries the rank test evaluates, S[i][j] for i <= j, of the recorded members and witnesses
    route = [(S.S[i][j], spectral.ROUTE_POINT[:S.dim]) for S in members + witnesses
             for i in range(S.dim) for j in range(i, S.dim)]
    dense_pair = [P.from_text(t, 4) for t in _dense_factor_s(P, 3)[0][:2]]
    ladder = [spectral.SymDiff([[P.from_text(t, 4) for t in row] for row in _dense_factor_s(P, d)]) for d in (1, 2, 3, 4)]
    rng = random.Random(SEED)
    big = [_dense(P, rng, 3, 14) for _ in range(2)]
    companions = _companions(P, moduli)
    general, at_cap, fibres = _sl2r_stress(geometry)
    dense_job = json.dumps({"command": "factor", "model": {"kind": "chart", "nvars": 4},
                            "payload": {"s": _dense_factor_s(P, 4)}})
    sl2r_cap_job = _sl2r_cap_job()
    reports = []  # the machine_block row writes the reports of these rounds, made here once
    for c in rounds["lattice"] + rounds["cover-tower"]:
        try:
            reports.append(cli.run(cli.parse_config(c)))
        except errors.HiggspecError:
            pass
    fro, fnm = spectral.factor_rank_one, spectral.first_nonzero_minor
    div, gcd = poly.exact_div, poly.poly_gcd
    sqf, hitchin = poly.squarefree_decompose, spectral.hitchin_map
    cases = [
        ("poly", "Poly.from_text", len(texts),
         lambda: [P.from_text(t, n) for t, n in texts], P.to_text),
        ("poly", "Poly.__mul__", len(muls), lambda: [a * b for a, b in muls], P.to_text),
        ("poly", "exact_div", len(divs), lambda: [attempt(div, a, b) for a, b in divs], _poly_text),
        ("poly", "poly_gcd top-level", len(gcds), lambda: [gcd(*ps) for ps in gcds], _gcd_text),
        ("poly", "squarefree_decompose", len(sqfs), lambda: [sqf(f) for f in sqfs], repr),
        ("poly", "Poly.evaluate, ROUTE_POINT", len(route), lambda: [p.evaluate(x) for p, x in route], str),
        ("spectral", "_normalize_covector", len(covectors),
         lambda: [spectral._normalize_covector(e) for e in covectors], lambda e: " ; ".join(map(P.to_text, e))),
        ("spectral", "quarter_defect", len(datums),
         lambda: [d.quarter_defect() for d in datums], repr),
        ("spectral", "factor_rank_one members", len(members),
         lambda: [fro(S) for S in members], _factor_text),
        ("spectral", "factor_rank_one witnesses", len(witnesses),
         lambda: [attempt(fro, S) for S in witnesses], _factor_text),
        ("spectral", "first_nonzero_minor witnesses", len(minor_witnesses),
         lambda: [fnm(S) for S in minor_witnesses], _witness_text),
        ("spectral", "hitchin_map", len(fields), lambda: [hitchin(phi) for phi in fields], repr),
        ("spectral", "module_from_higgs", len(correspondences),
         lambda: [attempt(spectral.module_from_higgs, phi, f) for phi, f in correspondences], _module_text),
        ("moduli", "sl2r_enumerate", len(sl2r_calls),
         lambda: [attempt(sl2r_rows, *args) for args in sl2r_calls], _sl2r_text),
        ("geometry", "CoverMap construction", len(cover_maps),
         lambda: [geometry.CoverMap(*args) for args in cover_maps], _cover_map_text),
        ("matrix", "charpoly_cofactor, companion r=2..5", len(companions),
         lambda: [matrix.charpoly_cofactor(m) for m in companions], P.to_text),
        ("cli", "parse_config, rank-test configs", len(configs),
         lambda: [cli.parse_config(c) for c in configs], repr),
        ("cli", "parse_config, cover-tower configs", len(tower_configs),
         lambda: [cli.parse_config(c) for c in tower_configs], repr),
        ("cli", "machine_block, lattice+cover-tower", len(reports),
         lambda: [cli.machine_block(r) for r in reports], str),
        ("job", "sl2r-enum at the cap, parse+run+machine_block", 1,
         lambda: [_run_job(cli, errors, sl2r_cap_job)], str),
        ("poly", "poly_gcd stress, dense n=4 deg 3", 1,
         lambda: [attempt(gcd, *dense_pair)], _gcd_text),
        ("poly", "Poly.__mul__ stress, dense n=3 deg 14", 2,
         lambda: [big[0] * big[0], big[0] * big[1]], P.to_text),
        ("job", "factor stress, dense n=4 deg 4", 1,
         lambda: [_run_job(cli, errors, dense_job)], str),
        *[("spectral", f"factor_rank_one ladder, dense n=4 deg {d}", 1, lambda S=S: [fro(S)], _factor_text)
          for d, S in enumerate(ladder, 1)],
        ("moduli", "sl2r_enumerate stress, general position r=4 k=6", 1,
         lambda: [sl2r_rows(*general)], _sl2r_text),
        ("moduli", "sl2r_enumerate stress, 2x255 at the cap", 1,
         lambda: [sl2r_rows(*at_cap)], _sl2r_text),
        ("moduli", "sl2r_enumerate stress, 16 fibres", 1,
         lambda: [sl2r_rows(*fibres)], _sl2r_text),
    ]
    for wl in WORKLOADS:
        cases.append(("job", f"{wl} round (in-process CLI)", len(rounds[wl]),
                      lambda wl=wl: run_round(wl), str))
    return cases


class _Checkout:
    """The rows of the checkout at src, timed in this process.

    ``meta`` lists each row's (layer, case, calls); ``calibrate(i)`` and
    ``run(i, passes)`` time row i, and give None once a run passes
    CPU_LIMIT_S seconds of CPU.
    """

    def __init__(self, src, corpus=None):
        self.cases, self.commit = _cases(src, corpus), _commit(src)
        self.meta = [[layer, name, calls] for layer, name, calls, _, _ in self.cases]
        signal.signal(signal.SIGPROF, _over_limit)

    def run(self, i, passes):
        """[CPU seconds per pass, output_sha256] of one run of `passes` passes over row i's calls.

        The row's function returns a list of results; its render turns one
        into text for the hash, outside the timed region.
        """
        _, _, _, fn, render = self.cases[i]
        signal.setitimer(signal.ITIMER_PROF, CPU_LIMIT_S)
        t0 = time.process_time()
        try:
            for _ in range(passes):
                out = fn()
        except _OverLimit:
            return None
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
        elapsed = time.process_time() - t0
        return [elapsed / passes, hashlib.sha256("\n".join(map(render, out)).encode()).hexdigest()]

    def calibrate(self, i):
        """[passes, *run]: passes doubled from 1 until a run lasts MIN_RUN_S, and that run."""
        passes = 1
        while True:
            got = self.run(i, passes)
            if got is None or got[0] * passes >= MIN_RUN_S:
                return got and [passes, *got]
            passes *= 2


class _Worker:
    """A _Checkout in a worker process of its own, with the same calibrate and run."""

    def __init__(self, src, corpus):
        self.src = src
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--serve", "--src", src, "--corpus", corpus],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.commit, self.meta = self._answer()
        except BaseException:
            self.close()
            raise

    def _answer(self):
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"error: the worker timing {self.src} stopped")
        return json.loads(line)

    def _ask(self, *words):
        self.proc.stdin.write(" ".join(map(str, words)) + "\n")
        self.proc.stdin.flush()
        return self._answer()

    def calibrate(self, i):
        return self._ask("calibrate", i)

    def run(self, i, passes):
        return self._ask("run", i, passes)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def _serve(src, corpus):
    """The worker of a _Worker: commit and meta first, then one JSON answer per request line."""
    channel, sys.stdout = sys.stdout, sys.stderr  # progress lines go to stderr
    side = _Checkout(src, corpus)

    def say(x):
        channel.write(json.dumps(x) + "\n")
        channel.flush()

    say([side.commit, side.meta])
    for line in sys.stdin:
        op, *args = line.split()
        say(getattr(side, op)(*map(int, args)))


def _row(meta, side, repeats, passes, runs):
    """One BENCH row of side from its runs [seconds per pass, output_sha256]; runs None: over the limit."""
    layer, name, calls = meta
    head = {"layer": layer, "case": f"{name}, seed {SEED}", "calls": calls}
    common = {"repeats": repeats, "python": platform.python_version(), "commit": side.commit}
    if runs is None:
        print(f"{side.commit:18s} {layer:9s} {name:36s} calls={calls:5d} over the {CPU_LIMIT_S}-s CPU limit")
        return {**head, "best_s": None, "median_s": None, **common, "output_sha256": None,
                "over_cpu_limit_s": CPU_LIMIT_S}
    times = [t for t, _ in runs]
    digests = {h for _, h in runs}
    if len(digests) != 1:
        raise SystemExit("error: outputs differ between repeats")
    best, median = min(times), statistics.median(times)
    print(f"{side.commit:18s} {layer:9s} {name:36s} calls={calls:5d} best={best:.6f}s median={median:.6f}s"
          f" passes={passes}")
    return {**head, "best_s": round(best, 6), "median_s": round(median, 6), "passes": passes, **common,
            "output_sha256": digests.pop()}


def _timed_rows(sides, repeats):
    """The rows of every side, each row calibrated once and timed on the sides in turn.

    Row i is calibrated on the first side of its order, sides[0] first when
    i is even and sides[-1] when it is odd (on the next one if that run
    passes the CPU limit); that run is its first repeat.  Every side then
    times the row at the same passes, one run each in turn, until each has
    `repeats` runs, so a burst of host load lands on all sides alike.
    """
    if any([m[1] for m in s.meta] != [m[1] for m in sides[0].meta] for s in sides):
        raise SystemExit("error: the checkouts time different rows")
    rows = []
    for i, meta in enumerate(sides[0].meta):
        order = sides if i % 2 == 0 else sides[::-1]
        runs = {s: [] for s in sides}
        over, passes = set(), None
        for k, s in enumerate(order):
            got = s.calibrate(i)
            if got is not None:
                passes, *run = got
                runs[s].append(run)
                order = order[k + 1:] + order[: k + 1]
                break
            over.add(s)
        while passes and any(len(runs[s]) < repeats for s in sides if s not in over):
            for s in order:
                if s not in over and len(runs[s]) < repeats:
                    got = s.run(i, passes)
                    if got is None:
                        over.add(s)
                    else:
                        runs[s].append(got)
        rows += [_row(meta, s, repeats, passes, None if s in over else runs[s]) for s in sides]
    return rows


def measure(src, repeats, corpus=None):
    return _timed_rows([_Checkout(src, corpus)], repeats)


def measure_pair(parent, change, repeats, corpus=None):
    """Rows of both checkouts on the same inputs, each row timed on both sides in turn.

    Each side runs in a worker process of its own (both import `higgspec`);
    the parent's worker starts first and records the corpus when there is
    none.
    """
    with tempfile.TemporaryDirectory() as tmp:
        corpus = corpus or os.path.join(tmp, "corpus.json")
        sides = []
        try:
            for src in (parent, change):
                sides.append(_Worker(src, corpus))
            return _timed_rows(sides, repeats)
        finally:
            for s in sides:
                s.close()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="checkout whose src/higgspec is measured")
    ap.add_argument("--parent", help="also measure this checkout, each row on both sides in turn")
    ap.add_argument("--repeats", type=int, default=7, help="timed runs per case (default 7)")
    ap.add_argument("--out", help="JSON file the rows are merged into")
    ap.add_argument("--corpus", help="recorded inputs: written if absent, read back if present")
    ap.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    for path in (src, args.parent and os.path.abspath(args.parent)):
        if path and not os.path.isdir(os.path.join(path, "src", "higgspec")):
            ap.error(f"{path} has no src/higgspec")
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.serve:
        _serve(src, args.corpus)
        return
    if not args.out:
        ap.error("the following arguments are required: --out")
    if args.parent:
        rows = measure_pair(os.path.abspath(args.parent), src, args.repeats, args.corpus)
    else:
        rows = measure(src, args.repeats, args.corpus)
    kept = []
    if os.path.exists(args.out):
        commits = {r["commit"] for r in rows}
        with open(args.out, encoding="utf-8") as fh:
            kept = [r for r in json.load(fh)["rows"] if r["commit"] not in commits]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"rows": kept + rows}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
