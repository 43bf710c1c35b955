"""One run of one benchmark workload.

    python3 perfbench/run.py --workload rank-test --seed 1 --seconds 25 --trace 0

Generates the workload's round from the seed, measures cold start, runs the
round in a worker process for ``--seconds`` (closed loop, one client, whole
rounds), checks every distinct output against the planted answers and prints
the metrics.  Times are CPU times scaled to reference speed by the kernel
calls next to them (``reference.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Results and traces go to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

import gen  # noqa: E402
from check import check  # noqa: E402
from reference import Pace  # noqa: E402
from spans import COUNTS, LAYERS, OPS  # noqa: E402

COLD_STARTS = 9
WORKER_GRACE_S = 120

END_TO_END = {
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for op in OPS:
        units[f"{op}.calls"] = "count"
        units[f"{op}.total_s"] = "s"
    units.update(dict.fromkeys(COUNTS, "count"))
    units["cli.out_bytes"] = "bytes"
    units["spectral.rank_test.per_job"] = "calls/job"
    units["trace.overhead"] = "ratio"
    return units


PER_LAYER = per_layer_units()


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def children_cpu_s():
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


def cold_start(job, path):
    """Median CPU time, at reference speed, of a fresh CLI process answering ``job``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(job.config)
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-m", "higgspec.cli", "--config", path, "--format", "machine"]
    times, wrong, pace = [], None, Pace()
    for _ in range(COLD_STARTS):
        t0 = children_cpu_s()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        times.append(children_cpu_s() - t0)
        pace.after_job(times[-1])
        if proc.returncode != 0:
            fail(f"cold start exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        wrong = wrong or check(job, proc.stdout)
    return statistics.median(t * scale for t, scale in zip(times, pace.scales())), wrong


def run_worker(configs, seconds, trace_out):
    req = json.dumps({"configs": configs, "seconds": seconds, "trace_out": trace_out})
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=req, capture_output=True, text=True, cwd=ROOT, timeout=seconds + WORKER_GRACE_S,
        )
    except subprocess.TimeoutExpired:
        fail("worker did not finish in time")
    if proc.returncode != 0:
        fail(f"worker exited {proc.returncode}: {proc.stderr.strip()[-600:]}")
    return json.loads(proc.stdout)


def verify(jobs, outputs):
    """Check every distinct output once; weigh it by how often it was produced."""
    attempted = failed = 0
    unexpected = []
    for job, seen in zip(jobs, outputs):
        if len(seen) > 1:
            unexpected.append(f"{job.label}: output changed between rounds")
        for out, count in seen:
            attempted += count
            reason = check(job, out)
            if reason:
                failed += count
                if not job.known_fault:
                    unexpected.append(f"{job.label}: {reason}")
    return attempted, failed, unexpected


def e2e_metrics(res, setup_s):
    """Job times are CPU times, each scaled to reference speed."""
    lat = [t * scale for t, scale in zip(res["cpu_latencies"], res["scales"])]
    return {
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }


def layer_metrics(res):
    start, end, rounds = res["start"], res["end"], res["rounds"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (end["self"][layer] - start["self"][layer]) / rounds
    for op in OPS:
        out[f"{op}.calls"] = (end["calls"][op] - start["calls"][op]) / rounds
        out[f"{op}.total_s"] = (end["total"][op] - start["total"][op]) / rounds
    for name in COUNTS:
        if name == "poly.peak_terms":
            out[name] = end["counts"][name]
        else:
            out[name] = (end["counts"][name] - start["counts"][name]) / rounds
    out["cli.out_bytes"] = res["out_bytes"] / rounds
    out["spectral.rank_test.per_job"] = res["rank_test_per_job"]
    out["trace.overhead"] = statistics.mean(res["traced_walls"]) / res["untraced_wall"]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="run one benchmark workload")
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "higgspec", "cli.py")):
        fail(f"no program to measure: {os.path.join('src', 'higgspec')} is missing")

    jobs = gen.generate(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    unexpected = []
    setup_s = None
    if not args.trace:
        smallest = min((j for j in jobs if not j.known_fault), key=lambda j: len(j.config))
        setup_s, wrong = cold_start(smallest, os.path.join(OUT_DIR, f"setup-{tag}.json"))
        if wrong:
            unexpected.append(f"cold start {smallest.label}: {wrong}")

    trace_out = os.path.join(OUT_DIR, f"trace-{tag}.json") if args.trace else None
    res = run_worker([j.config for j in jobs], args.seconds, trace_out)
    attempted, failed, bad = verify(jobs, res["outputs"])
    unexpected += bad

    if args.trace:
        values, units = layer_metrics(res), PER_LAYER
        for name in res["absent"]:
            print(f"absent: {name}")
    else:
        values, units = e2e_metrics(res, setup_s), END_TO_END
    for reason in unexpected:
        print(f"WRONG {reason}", file=sys.stderr)
    print(f"{'jobs attempted / failed':40s} {attempted} / {failed} ({len(jobs)} jobs a round)")
    for name, value in values.items():
        print(f"{name:40s} {value:14.6f} {units[name]}")
    if not args.trace:
        print(f"{'unscaled: jobs per wall second':40s} {attempted / res['wall']:14.6f} jobs/s")
        print(f"{'reference scale, median of jobs':40s} {statistics.median(res['scales']):14.6f}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "rounds": res["rounds"], "jobs": len(jobs), **result}, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
