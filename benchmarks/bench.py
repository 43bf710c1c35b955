"""Per-layer timings of higgspec on recorded inputs.

    python3 benchmarks/bench.py --src DIR --out PATH [--parent DIR] [--repeats N] [--corpus FILE]

Builds the seed-1 ``rank-test``, ``cover-tower`` and ``lattice`` rounds with
``perfbench/gen.py`` (imported, never changed) and runs them once through the
CLI front door of the checkout at DIR (``DIR/src`` is imported), with these
functions wrapped to record their arguments: ``Poly.from_text``,
``Poly.__mul__`` (polynomial operands), ``exact_div``, top-level
``poly_gcd`` (not the calls it makes itself), ``squarefree_decompose``,
``SpectralDatum.quarter_defect``, ``spectral.factor_rank_one``,
``spectral.first_nonzero_minor`` (the calls that find a witness),
``spectral._normalize_covector``, ``hitchin_map``,
``moduli.sl2r_enumerate`` and the construction of a
``geometry.CoverMap`` (its projection-formula check; the ``chern`` jobs).
The ``rank-test`` configs are recorded too.  Each function is then timed
alone over its recorded inputs, in CPU time, N times; ``factor_rank_one``
is split into rank-one members (it returns) and rank-two witnesses (it
raises NotRankOne), and ``parse_config`` is timed over the recorded
``rank-test`` configs.  ``machine_block`` is timed over the reports of the
``lattice`` and ``cover-tower`` rounds, made once before it is timed.  One
in-process round of each workload is timed the same way.

Two stress rows time work no round does, on S = tau alpha alpha^T in 4
variables, alpha_i dense of degree d with coefficients 1..9, written in
ascending exponent order: the first covector gcd of ``factor`` at d = 3,
and the whole ``factor`` job at d = 4.

A timed run makes `passes` passes over a row's calls: passes doubles from 1
until one run lasts at least MIN_RUN_S of CPU, so no row is only a few
steps of the process CPU clock long, and the times are per pass.  Every
timed run is stopped after CPU_LIMIT_S seconds of CPU (ITIMER_PROF on this
process), and the row is then recorded as over the limit, with null times
and hash.

A change can alter which calls a round makes, so two checkouts record
different inputs.  With ``--corpus FILE`` the inputs are written to FILE by
the first run and read back from it by every later run, so runs at a parent
checkout and at a change time the same inputs.

With ``--parent DIR`` the checkout at DIR is measured too, on the same
inputs: each side runs in a process of its own, and every row is timed on
both sides in turn, the side that goes first alternating from row to row,
so a burst of load on a shared host does not fall on one side only.

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
# host steps by milliseconds, so a 1-ms row read 0.0000 s
MIN_RUN_S = 0.05


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

    A composite (SymDiff, SpectralDatum, HiggsField, RankOneFactorization)
    goes through its to_tree, which may leave such objects at its leaves.
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


def _model_tree(m):
    return {"generators": list(m.generators), "Q": [list(r) for r in m.Q], "K": _plain(m.K),
            "omega": _plain(m.omega), "b1": m.b1, "torsion2_count": m.torsion2_count}


def _record(poly, spectral, moduli, geometry, run_round):
    """Run the rounds once with the recorded functions wrapped; their inputs as JSON data."""
    P, SD, CM = poly.Poly, spectral.SpectralDatum, geometry.CoverMap
    rec = {k: [] for k in ("from_text", "quarter_defect", "members", "witnesses", "minor_witnesses",
                           "mul", "exact_div", "poly_gcd", "squarefree", "normalize_covector", "hitchin_map",
                           "sl2r_enumerate", "cover_map")}
    from_text, mul, quarter_defect = P.from_text.__func__, P.__mul__, SD.quarter_defect
    fro, fnm = spectral.factor_rank_one, spectral.first_nonzero_minor
    div, gcd = poly.exact_div, poly.poly_gcd
    sqf, hitchin = poly.squarefree_decompose, spectral.hitchin_map
    norm = spectral._normalize_covector
    sl2r, cover_check = moduli.sl2r_enumerate, CM.__post_init__
    depth = [0]

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

    def rec_gcd(a, b):
        if not depth[0]:
            rec["poly_gcd"].append([a.to_tree(), b.to_tree()])
        depth[0] += 1
        try:
            return gcd(a, b)
        finally:
            depth[0] -= 1

    def rec_sqf(f):
        rec["squarefree"].append(f.to_tree())
        return sqf(f)

    def rec_norm(entries):
        rec["normalize_covector"].append([p.to_tree() for p in entries])
        return norm(entries)

    def rec_hitchin(phi):
        rec["hitchin_map"].append(_plain(phi))
        return hitchin(phi)

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

    wrapped = [(fro, rec_fro), (fnm, rec_fnm), (div, rec_div), (gcd, rec_gcd), (sqf, rec_sqf),
               (norm, rec_norm), (hitchin, rec_hitchin), (sl2r, rec_sl2r)]
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


def _time(fn, render, repeats):
    """(best_s, median_s, passes, output_sha256) of fn() over `repeats` runs, times per pass.

    fn returns a list of results; render turns one into text, outside the timed region.
    Runs shorter than MIN_RUN_S double `passes` and are not kept.  None once
    a run passes CPU_LIMIT_S seconds of CPU.
    """
    times, digest, passes = [], None, 1
    while len(times) < repeats:
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
        if not times and elapsed < MIN_RUN_S:
            passes *= 2
            continue
        times.append(elapsed / passes)
        h = hashlib.sha256("\n".join(map(render, out)).encode()).hexdigest()
        if digest is not None and h != digest:
            raise SystemExit("error: outputs differ between repeats")
        digest = h
    return min(times), statistics.median(times), passes, digest


def _ascending_text(terms):
    return " + ".join(
        f"{c}" + "".join(f" * x{i + 1}^{k}" for i, k in enumerate(e) if k) for e, c in sorted(terms.items())
    )


def _dense_factor_s(P, deg):
    """S = tau alpha alpha^T in 4 variables, alpha_i dense of degree deg, as the ascending texts of its rows."""
    rng, n = random.Random(SEED), 4

    def dense(d):
        exps = (e for e in itertools.product(range(d + 1), repeat=n) if sum(e) <= d)
        return P.from_text(_ascending_text({e: rng.randint(1, 9) for e in exps}), n)

    alpha = [dense(deg) for _ in range(n)]
    tau = dense(rng.randint(1, 2))
    return [[_ascending_text({e: int(c) for e, c in (tau * alpha[i] * alpha[j]).terms.items()}) for j in range(n)]
            for i in range(n)]


def _factor_text(out):
    return json.dumps(_plain(out)) if hasattr(out, "to_tree") else f"{type(out).__name__}: {out}"


def _witness_text(out):
    return "None" if out is None else f"{out[0]} {out[1].to_text()}"


def _poly_text(out):
    return out.to_text() if hasattr(out, "to_text") else f"{type(out).__name__}: {out}"


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
    from higgspec import cli, errors, geometry, moduli, poly, spectral

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

    def symdiff_in(t):
        return spectral.SymDiff([[poly_in(p) for p in row] for row in t])

    def datum_in(t):
        return spectral.SpectralDatum(spectral.OneForm([poly_in(p) for p in t["s1"]]), symdiff_in(t["s2"]))

    def field_in(t):
        return spectral.HiggsField(tuple(tuple(tuple(map(poly_in, row)) for row in m) for m in t["matrices"]))

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
    configs = rec["rank_test_configs"]
    muls, divs, gcds = ([(poly_in(a), poly_in(b)) for a, b in rec[k]]
                        for k in ("mul", "exact_div", "poly_gcd"))
    sqfs = [poly_in(t) for t in rec["squarefree"]]
    covectors = [tuple(map(poly_in, t)) for t in rec["normalize_covector"]]
    fields = [field_in(t) for t in rec["hitchin_map"]]
    sl2r_calls = [([(class_in(c), m) for c, m in comps], class_in(L), model_in(model))
                  for comps, L, model in rec["sl2r_enumerate"]]
    cover_maps = [(Pm, cQ, pb, class_in(L), model_in(base)) for Pm, cQ, pb, L, base in rec["cover_map"]]
    dense_pair = [P.from_text(t, 4) for t in _dense_factor_s(P, 3)[0][:2]]
    dense_job = json.dumps({"command": "factor", "model": {"kind": "chart", "nvars": 4},
                            "payload": {"s": _dense_factor_s(P, 4)}})
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
        ("poly", "poly_gcd top-level", len(gcds), lambda: [gcd(a, b) for a, b in gcds], P.to_text),
        ("poly", "squarefree_decompose", len(sqfs), lambda: [sqf(f) for f in sqfs], repr),
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
        ("moduli", "sl2r_enumerate", len(sl2r_calls),
         lambda: [attempt(moduli.sl2r_enumerate, *args) for args in sl2r_calls], _sl2r_text),
        ("geometry", "CoverMap construction", len(cover_maps),
         lambda: [geometry.CoverMap(*args) for args in cover_maps], _cover_map_text),
        ("cli", "parse_config, rank-test configs", len(configs),
         lambda: [cli.parse_config(c) for c in configs], repr),
        ("cli", "machine_block, lattice+cover-tower", len(reports),
         lambda: [cli.machine_block(r) for r in reports], str),
        ("poly", "poly_gcd stress, dense n=4 deg 3", 1,
         lambda: [attempt(gcd, *dense_pair)], _poly_text),
        ("job", "factor stress, dense n=4 deg 4", 1,
         lambda: [_run_job(cli, errors, dense_job)], str),
    ]
    for wl in WORKLOADS:
        cases.append(("job", f"{wl} round (in-process CLI)", len(rounds[wl]),
                      lambda wl=wl: run_round(wl), str))
    return cases


def _row(case, repeats, commit):
    """One BENCH row: case timed `repeats` times on the checkout whose commit is `commit`."""
    layer, name, calls, fn, render = case
    common = {"repeats": repeats, "python": platform.python_version(), "commit": commit}
    signal.signal(signal.SIGPROF, _over_limit)
    timed = _time(fn, render, repeats)
    if timed is None:
        print(f"{commit:18s} {layer:9s} {name:36s} calls={calls:5d} over the {CPU_LIMIT_S}-s CPU limit")
        return {"layer": layer, "case": f"{name}, seed {SEED}", "calls": calls, "best_s": None,
                "median_s": None, **common, "output_sha256": None, "over_cpu_limit_s": CPU_LIMIT_S}
    best, median, passes, digest = timed
    print(f"{commit:18s} {layer:9s} {name:36s} calls={calls:5d} best={best:.6f}s median={median:.6f}s"
          f" passes={passes}")
    return {"layer": layer, "case": f"{name}, seed {SEED}", "calls": calls, "best_s": round(best, 6),
            "median_s": round(median, 6), "passes": passes, **common, "output_sha256": digest}


def measure(src, repeats, corpus=None):
    commit = _commit(src)
    return [_row(case, repeats, commit) for case in _cases(src, corpus)]


def _serve(src, repeats, corpus):
    """The worker of measure_pair: row names first, then row i as one JSON line per line "i" read."""
    channel, sys.stdout = sys.stdout, sys.stderr  # progress lines go to stderr
    cases, commit = _cases(src, corpus), _commit(src)
    channel.write(json.dumps([name for _, name, _, _, _ in cases]) + "\n")
    channel.flush()
    for line in sys.stdin:
        channel.write(json.dumps(_row(cases[int(line)], repeats, commit)) + "\n")
        channel.flush()


def measure_pair(parent, change, repeats, corpus=None):
    """Rows of both checkouts on the same inputs, each row timed on both sides in turn.

    Each side runs in a worker process of its own (both import `higgspec`);
    the parent's worker starts first and records the corpus when there is
    none.  Row i runs on the parent first when i is even and on the change
    first when it is odd, so a burst of host load lands on both sides.
    """
    with tempfile.TemporaryDirectory() as tmp:
        corpus = corpus or os.path.join(tmp, "corpus.json")
        workers, names = [], None
        try:
            for src in (parent, change):
                workers.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), "--serve", "--src", src,
                     "--repeats", str(repeats), "--corpus", corpus],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                ))
                got = json.loads(_answer(workers[-1], src))
                if names is not None and got != names:
                    raise SystemExit(f"error: {parent} and {change} time different rows")
                names = got
            sides, rows = list(zip(workers, (parent, change))), []
            for i in range(len(names)):
                for w, src in sides if i % 2 == 0 else sides[::-1]:
                    w.stdin.write(f"{i}\n")
                    w.stdin.flush()
                    rows.append(json.loads(_answer(w, src)))
        finally:
            for w in workers:
                w.stdin.close()
                w.wait()
    return rows


def _answer(worker, src):
    line = worker.stdout.readline()
    if not line:
        raise SystemExit(f"error: the worker timing {src} stopped")
    return line


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
        _serve(src, args.repeats, args.corpus)
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
