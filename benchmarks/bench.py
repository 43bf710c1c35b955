"""Per-layer timings of higgspec on recorded inputs.

    python3 benchmarks/bench.py --src DIR --out PATH [--parent DIR] [--repeats N] [--corpus FILE]

Builds the seed-1 ``rank-test``, ``cover-tower`` and ``lattice`` rounds with
``perfbench/gen.py`` (imported, never changed) and runs them once through the
CLI front door of the checkout at DIR (``DIR/src`` is imported), with one
trace hook (``sys.settrace``) recording the arguments of these functions:
``Poly.from_text``, ``Poly.__mul__`` (polynomial operands; the products
that ``poly.det2`` forms, for the rank test's minors and ``hitchin_map``, do
not pass through it), ``exact_div``, top-level ``poly_gcd`` calls (not the
gcds that ``poly_gcd`` and the squarefree layer make themselves),
``squarefree_decompose``, ``SpectralDatum.quarter_defect``,
``spectral.factor_rank_one``, ``spectral.first_nonzero_minor`` (the calls
that find a witness), ``spectral._normalize_covector``, ``hitchin_map``,
``spectral.module_from_higgs`` (the ``correspondence`` jobs of the
``cover-tower`` round), ``moduli.sl2r_enumerate`` and the construction of a
``geometry.CoverMap`` (its projection-formula check; the ``chern`` jobs).
_corpus_format states, per corpus key, the function recorded and how its
arguments are written to the corpus and read back.
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
different inputs, and an older checkout may refuse a call that only a newer
one makes.  With ``--corpus FILE`` the inputs are written to FILE by the
first run and read back from it by every later run, so runs at a parent
checkout and at a change time the same inputs.  So a ``--parent`` run reads
a corpus recorded at the parent, whose calls both sides can replay: a
``--corpus`` FILE the parent recorded, or none, and the parent's worker
records it.

Each checkout is timed in a worker process of its own.  With ``--parent
DIR`` the checkout at DIR is measured too, on the same inputs.  A row's
passes are calibrated once, on the side that goes first (alternating from
row to row), and both sides time it at that pass count, their repeats
interleaved (parent, change, parent, ...), so a burst of load on a shared
host falls on both sides alike.

Cold-start rows (layer ``cold``) time fresh processes, not calls: the
interpreter alone (``python -c pass``), the standard-library modules that
the checkout's ``cli.py`` imports, ``import higgspec.cli``, and
``python -m higgspec.cli`` answering the smallest job of each workload's
seed-1 round, as ``perfbench/run.py`` picks it.  Each takes the median raw
CPU time (RUSAGE_CHILDREN, unscaled) of 3 x N processes per checkout, run
one at a time, alternating checkouts, so both see the same host load.  A
process that exits nonzero stops the run.

Rows ``{layer, case, calls, best_s, median_s, passes, repeats, python,
commit, side, output_sha256}`` are merged into PATH.  ``side`` is ``src``
or ``parent``; a stored row is replaced only by a row of the same commit
and side, so a parent checkout and a change, measured together or in two
runs, leave both in one file, even when both read the same commit (two
copies of one tree, or checkouts without ``.git``, which read
``unknown``).
``output_sha256`` hashes the timed calls' results (a cold row's: the
process's stdout): equal hashes mean equal outputs.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import itertools
import json
import os
import platform
import random
import resource
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


def _plain(x):
    """x as JSON data: Poly and NSClass leaves read back from their to_json text, Fraction leaves as trees.

    A composite with a to_tree (OneForm, HiggsField, RankOneFactorization)
    goes through it; its tree may leave such objects at its leaves.
    """
    if hasattr(x, "to_json"):
        return json.loads(x.to_json())
    if hasattr(x, "to_tree"):
        x = x.to_tree()
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _corpus_format(poly, spectral, moduli, geometry):
    """The recorded functions, one row (key, fn, write, read, keep) per corpus key, in corpus order.

    write turns a call's arguments, by parameter name, into the JSON data of
    the key (None: the call is not recorded); read turns that data back into
    what the key's bench row times.  keep None records every call; a
    function records a call when keep(outcome) holds, the outcome being the
    value returned or the exception that ended the call; a tuple of
    functions records only a call made while none of them runs.
    """
    P = poly.Poly

    def poly_in(t):
        # the constructor, not from_tree: recorded intermediate values may pass the parse cap
        return P(t["nvars"], {tuple(x["exps"]): Fraction(x["num"], x["den"]) for x in t["terms"]})

    def polys_out(ps):
        return [p.to_tree() for p in ps]

    def polys_in(t):
        return tuple(map(poly_in, t))

    def symdiff_out(S):
        return [polys_out(row) for row in S.S]

    def symdiff_in(t):
        return spectral.SymDiff([polys_in(row) for row in t])

    def datum_in(t):
        return spectral.SpectralDatum(spectral.OneForm(polys_in(t["s1"])), symdiff_in(t["s2"]))

    def field_in(t):
        return spectral.HiggsField(tuple(tuple(polys_in(row) for row in m) for m in t["matrices"]))

    def factorization_in(t):
        return spectral.RankOneFactorization(spectral.OneForm(polys_in(t["alpha"])), poly_in(t["tau"]))

    def class_in(t):
        return geometry.NSClass.from_parts([(x["num"], x["den"]) for x in t])

    def model_out(m):
        return {"generators": list(m.generators), "Q": [list(r) for r in m.Q], "K": _plain(m.K),
                "omega": _plain(m.omega), "b1": m.b1, "torsion2_count": m.torsion2_count}

    def model_in(t):
        return geometry.SurfaceModel(tuple(t["generators"]), tuple(map(tuple, t["Q"])), class_in(t["K"]),
                                     class_in(t["omega"]), t["b1"], t["torsion2_count"])

    def cover_map_out(c):
        # the fields as the caller passed them, before __post_init__ converts them
        return [*([list(r) for r in m] for m in (c.P, c.cover_Q, c.pullback)), _plain(c.L_class), model_out(c.base)]

    def S_out(a):
        return symdiff_out(a["S"])

    gcd_nests = (poly.poly_gcd, poly.squarefree_decompose, poly.is_squarefree)
    return [
        ("from_text", P.from_text.__func__, lambda a: [a["text"], a["nvars"]], tuple, None),
        ("quarter_defect", spectral.SpectralDatum.quarter_defect,
         lambda a: {"s1": polys_out(a["self"].s1), "s2": symdiff_out(a["self"].s2)}, datum_in, None),
        ("members", spectral.factor_rank_one, S_out, symdiff_in,
         lambda out: isinstance(out, spectral.RankOneFactorization)),
        ("witnesses", spectral.factor_rank_one, S_out, symdiff_in,
         lambda out: isinstance(out, spectral.NotRankOne)),
        ("minor_witnesses", spectral.first_nonzero_minor, S_out, symdiff_in, lambda out: isinstance(out, tuple)),
        # Poly.__rmul__ is the same function; a scalar operand is not recorded
        ("mul", P.__mul__, lambda a: polys_out((a["self"], a["other"])) if isinstance(a["other"], P) else None,
         polys_in, None),
        ("exact_div", poly.exact_div, lambda a: polys_out((a["a"], a["b"])), polys_in, None),
        # the top-level calls, not the gcds that poly_gcd and the squarefree layer make themselves
        ("poly_gcd", poly.poly_gcd, lambda a: polys_out(a["polys"]), polys_in, gcd_nests),
        ("squarefree", poly.squarefree_decompose, lambda a: a["f"].to_tree(), poly_in, None),
        ("normalize_covector", spectral._normalize_covector, lambda a: polys_out(a["entries"]), polys_in, None),
        ("hitchin_map", spectral.hitchin_map, lambda a: _plain(a["phi"]), field_in, None),
        ("module_from_higgs", spectral.module_from_higgs, lambda a: [_plain(a["phi"]), _plain(a["f"])],
         lambda t: (field_in(t[0]), factorization_in(t[1])), None),
        ("sl2r_enumerate", moduli.sl2r_enumerate,
         lambda a: [[[_plain(c), int(m)] for c, m in a["components"]], _plain(a["L"]), model_out(a["model"])],
         lambda t: ([(class_in(c), m) for c, m in t[0]], class_in(t[1]), model_in(t[2])), None),
        ("cover_map", geometry.CoverMap.__post_init__, lambda a: cover_map_out(a["self"]),
         lambda t: (*t[:3], class_in(t[3]), model_in(t[4])), None),
    ]


def _record(table, run):
    """Call run() once with the table's functions traced; their recorded calls as {key: [JSON data]}.

    One sys.settrace hook sees every call of a recorded function, however
    the caller reaches it.  The trace function that was set before is put
    back when run returns or raises.
    """
    rec = {key: [] for key, *_ in table}
    rows, nests = {}, {}
    for key, fn, write, _, keep in table:
        rows.setdefault(fn.__code__, []).append((rec[key], write, keep))
        if isinstance(keep, tuple):
            nests.update((f.__code__, 0) for f in keep)

    def on_call(frame, event, arg):
        code = frame.f_code
        todo = rows.get(code, ())
        if not todo and code not in nests:
            return None
        args, pending = frame.f_locals, []
        for out, write, keep in todo:
            if isinstance(keep, tuple) and any(nests[f.__code__] for f in keep):
                continue
            data = write(args)
            if data is None:
                continue
            if callable(keep):
                pending.append((out, data, keep))
            else:
                out.append(data)
        if code in nests:
            nests[code] += 1
        elif not pending:
            return None
        raised = None

        def on_exit(frame, event, arg):
            nonlocal raised
            if event == "exception":
                raised = arg[1]
            elif event == "return":
                outcome = raised if arg is None and raised is not None else arg
                for out, data, keep in pending:
                    if keep(outcome):
                        out.append(data)
                if code in nests:
                    nests[code] -= 1
            return on_exit

        frame.f_trace_lines = False
        return on_exit

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
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


def _cases(src, corpus):
    """The rows (layer, case, calls, fn, render) on the checkout at src, on the inputs in the file corpus.

    The inputs are recorded at src and written to corpus when that file does not exist.
    """
    sys.path.insert(0, os.path.join(src, "src"))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen
    from higgspec import cli, errors, geometry, matrix, moduli, poly, spectral

    rounds = {wl: [j.config for j in gen.generate(wl, SEED)] for wl in WORKLOADS}

    def run_round(wl):
        return [_run_job(cli, errors, c) for c in rounds[wl]]

    table = _corpus_format(poly, spectral, moduli, geometry)
    if os.path.exists(corpus):
        with open(corpus, encoding="utf-8") as fh:
            rec = json.load(fh)
        print(f"inputs read from {corpus}")
    else:
        rec = _record(table, lambda: [run_round(wl) for wl in WORKLOADS])
        rec["rank_test_configs"] = rounds["rank-test"]
        rec["cover_tower_configs"] = rounds["cover-tower"]
        with open(corpus, "w", encoding="utf-8") as fh:
            json.dump(rec, fh)
        print(f"inputs recorded at {src}, written to {corpus}")
    inputs = {key: [read(t) for t in rec[key]] for key, _, _, read, _ in table}
    (texts, datums, members, witnesses, minor_witnesses, muls, divs, gcds, sqfs, covectors, fields,
     correspondences, sl2r_calls, cover_maps) = inputs.values()
    configs, tower_configs = rec["rank_test_configs"], rec["cover_tower_configs"]
    P = poly.Poly

    def attempt(fn, *args):
        try:
            return fn(*args)
        except errors.HiggspecError as exc:
            return exc

    def sl2r_rows(*args):
        # the rows built: a checkout that returns them on first read does this work inside the timed call
        return list(moduli.sl2r_enumerate(*args))

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
    """The rows of the checkout at src, timed in the worker process that _serve runs.

    ``meta`` lists each row's (layer, case, calls); ``calibrate(i)`` and
    ``run(i, passes)`` time row i, and give None once a run passes
    CPU_LIMIT_S seconds of CPU.
    """

    def __init__(self, src, corpus):
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
    """A _Checkout in a worker process of its own, with the same calibrate and run; `side` names it in the rows."""

    def __init__(self, side, src, corpus):
        self.side, self.src = side, src
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
    common = {"repeats": repeats, "python": platform.python_version(), "commit": side.commit, "side": side.side}
    if runs is None:
        print(f"{side.commit:18s} {side.side:6s} {layer:9s} {name:36s} calls={calls:5d} over the {CPU_LIMIT_S}-s CPU limit")
        return {**head, "best_s": None, "median_s": None, **common, "output_sha256": None,
                "over_cpu_limit_s": CPU_LIMIT_S}
    times = [t for t, _ in runs]
    digests = {h for _, h in runs}
    if len(digests) != 1:
        raise SystemExit("error: outputs differ between repeats")
    best, median = min(times), statistics.median(times)
    print(f"{side.commit:18s} {side.side:6s} {layer:9s} {name:36s} calls={calls:5d} best={best:.6f}s median={median:.6f}s"
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


def _cli_stdlib(src):
    """The standard-library modules the top level of src's cli.py imports."""
    with open(os.path.join(src, "src", "higgspec", "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module != "__future__":
            names.add(node.module)
    return sorted(names)


def _cold_cases(tmp):
    """The cold-start rows, (case, argv of `python` for a checkout's src), the configs written to tmp."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen

    cases = [("python -c pass", lambda src: ["-c", "pass"]),
             ("the stdlib modules cli imports", lambda src: ["-c", "import " + ", ".join(_cli_stdlib(src))]),
             ("import higgspec.cli", lambda src: ["-c", "import higgspec.cli"])]
    for wl in WORKLOADS:
        job = min((j for j in gen.generate(wl, SEED) if not j.known_fault), key=lambda j: len(j.config))
        path = os.path.join(tmp, f"cold-{wl}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(job.config)
        cases.append((f"{wl} smallest job ({job.label})",
                      lambda src, path=path: ["-m", "higgspec.cli", "--config", path, "--format", "machine"]))
    return cases


def _cold_rows(sides, runs, tmp):
    """One cold-start row per case and side: the median raw CPU of `runs` fresh processes, sides alternating."""
    rows = []
    for name, argv in _cold_cases(tmp):
        got = {s: [] for s in sides}
        for k in range(runs):
            for s in sides if k % 2 == 0 else sides[::-1]:
                t0 = resource.getrusage(resource.RUSAGE_CHILDREN)
                proc = subprocess.run([sys.executable, *argv(s.src)], cwd=tmp, capture_output=True, text=True,
                                      env=dict(os.environ, PYTHONPATH=os.path.join(s.src, "src")))
                t1 = resource.getrusage(resource.RUSAGE_CHILDREN)
                if proc.returncode:
                    raise SystemExit(f"error: {name} exited {proc.returncode} at {s.src}: {proc.stderr[-300:]}")
                got[s].append([t1.ru_utime + t1.ru_stime - t0.ru_utime - t0.ru_stime,
                               hashlib.sha256(proc.stdout.encode()).hexdigest()])
        rows += [_row(["cold", name, 1], s, runs, 1, got[s]) for s in sides]
    return rows


def measure(srcs, repeats, corpus=None):
    """The rows of the checkouts srcs, [(side, path)], on the same inputs, each row timed on every checkout in turn.

    Each checkout runs in a worker process of its own (each imports its
    `higgspec`); the first worker starts first and records the corpus when
    there is none.  The cold-start rows follow, 3 * repeats processes per
    checkout.
    """
    with tempfile.TemporaryDirectory() as tmp:
        corpus = corpus or os.path.join(tmp, "corpus.json")
        sides = []
        try:
            for side, src in srcs:
                sides.append(_Worker(side, src, corpus))
            return _timed_rows(sides, repeats) + _cold_rows(sides, 3 * repeats, tmp)
        finally:
            for s in sides:
                s.close()


def _merge(stored, rows):
    """stored rows, less those of a commit and side that rows has, then rows."""
    new = {(r["commit"], r.get("side")) for r in rows}
    return [r for r in stored if (r["commit"], r.get("side")) not in new] + rows


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
    srcs = [("parent", os.path.abspath(args.parent)), ("src", src)] if args.parent else [("src", src)]
    rows = measure(srcs, args.repeats, args.corpus)
    stored = []
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            stored = json.load(fh)["rows"]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"rows": _merge(stored, rows)}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
