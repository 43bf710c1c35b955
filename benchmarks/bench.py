"""Per-layer timings of higgspec on recorded inputs.

    python3 benchmarks/bench.py --src DIR --out PATH [--repeats N]

Builds the seed-1 ``rank-test``, ``cover-tower`` and ``lattice`` rounds with
``perfbench/gen.py`` (imported, never changed) and runs them once through the
CLI front door of the checkout at DIR (``DIR/src`` is imported), with
``Poly.from_text``, ``SpectralDatum.quarter_defect`` and
``spectral.first_nonzero_minor`` wrapped to record their arguments.  Each
function is then timed alone over its recorded inputs, in CPU time, N times;
``first_nonzero_minor`` is split into rank-one members (result None) and
rank-two witnesses.  One in-process round of each workload is timed the same
way.  Rows ``{layer, case, calls, best_s, median_s, repeats, python, commit,
output_sha256}`` are merged into PATH (rows of the same commit are replaced),
so two runs, at a parent checkout and at a change, leave both in one file.
``output_sha256`` hashes the timed calls' results: equal hashes mean equal
outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1
WORKLOADS = ("rank-test", "cover-tower", "lattice")


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


def _record(poly, spectral, run_round):
    """Run the rounds once with the three functions wrapped; their recorded inputs."""
    texts, datums, members, witnesses = [], [], [], []
    from_text = poly.Poly.from_text.__func__
    quarter_defect = spectral.SpectralDatum.quarter_defect
    first_nonzero_minor = spectral.first_nonzero_minor

    def rec_from_text(cls, text, nvars):
        texts.append((text, nvars))
        return from_text(cls, text, nvars)

    def rec_quarter_defect(self):
        datums.append(self)
        return quarter_defect(self)

    def rec_first_nonzero_minor(S):
        out = first_nonzero_minor(S)
        (members if out is None else witnesses).append(S)
        return out

    poly.Poly.from_text = classmethod(rec_from_text)
    spectral.SpectralDatum.quarter_defect = rec_quarter_defect
    spectral.first_nonzero_minor = rec_first_nonzero_minor
    try:
        for wl in WORKLOADS:
            run_round(wl)
    finally:
        poly.Poly.from_text = classmethod(from_text)
        spectral.SpectralDatum.quarter_defect = quarter_defect
        spectral.first_nonzero_minor = first_nonzero_minor
    return texts, datums, members, witnesses


def _time(fn, render, repeats):
    """(best_s, median_s, output_sha256) of fn() over `repeats` runs.

    fn returns a list of results; render turns one into text, outside the timed region.
    """
    times, digest = [], None
    for _ in range(repeats):
        t0 = time.process_time()
        out = fn()
        times.append(time.process_time() - t0)
        h = hashlib.sha256("\n".join(map(render, out)).encode()).hexdigest()
        if digest is not None and h != digest:
            raise SystemExit("error: outputs differ between repeats")
        digest = h
    return min(times), statistics.median(times), digest


def _witness_text(out):
    return "None" if out is None else f"{out[0]} {out[1].to_text()}"


def measure(src, repeats):
    sys.path.insert(0, os.path.join(src, "src"))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen
    from higgspec import cli, errors, poly, spectral

    rounds = {wl: [j.config for j in gen.generate(wl, SEED)] for wl in WORKLOADS}

    def run_round(wl):
        return [_run_job(cli, errors, c) for c in rounds[wl]]

    texts, datums, members, witnesses = _record(poly, spectral, run_round)
    P, fnm = poly.Poly, spectral.first_nonzero_minor
    cases = [
        ("poly", "Poly.from_text", len(texts),
         lambda: [P.from_text(t, n) for t, n in texts], P.to_text),
        ("spectral", "quarter_defect", len(datums),
         lambda: [d.quarter_defect() for d in datums], repr),
        ("spectral", "first_nonzero_minor members", len(members),
         lambda: [fnm(S) for S in members], _witness_text),
        ("spectral", "first_nonzero_minor witnesses", len(witnesses),
         lambda: [fnm(S) for S in witnesses], _witness_text),
    ]
    for wl in WORKLOADS:
        cases.append(("job", f"{wl} round (in-process CLI)", len(rounds[wl]),
                      lambda wl=wl: run_round(wl), str))
    common = {"repeats": repeats, "python": platform.python_version(), "commit": _commit(src)}
    rows = []
    for layer, case, calls, fn, render in cases:
        best, median, digest = _time(fn, render, repeats)
        rows.append({"layer": layer, "case": f"{case}, seed {SEED}", "calls": calls,
                     "best_s": round(best, 4), "median_s": round(median, 4), **common,
                     "output_sha256": digest})
        print(f"{layer:9s} {case:36s} calls={calls:5d} best={best:.4f}s median={median:.4f}s")
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="checkout whose src/higgspec is measured")
    ap.add_argument("--repeats", type=int, default=7, help="timed runs per case (default 7)")
    ap.add_argument("--out", required=True, help="JSON file the rows are merged into")
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isdir(os.path.join(src, "src", "higgspec")):
        ap.error(f"{src} has no src/higgspec")
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    rows = measure(src, args.repeats)
    kept = []
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            kept = [r for r in json.load(fh)["rows"] if r["commit"] != rows[0]["commit"]]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"rows": kept + rows}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
