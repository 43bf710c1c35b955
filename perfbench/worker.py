"""Runs one workload's jobs through the CLI front door, in a process of its own.

Reads ``{"configs": [...], "seconds": s, "trace_out": path|null}`` as JSON on stdin and
writes one JSON result on stdout.  Jobs run back to back in whole rounds, one
client in a closed loop, until ``seconds`` of wall time have passed.  Each job
is timed from parse to machine block in CPU time of this process
(``time.process_time``): on a shared host, wall time also counts the spells in
which the scheduler runs someone else, and those are no cost of the program.
Calls of the reference kernel run between the jobs (``reference.Pace``), and
each job gets the factor that scales its CPU time to reference speed.
Peak memory is read when the last round ends, before anything else happens;
outputs are checked by the parent.

With ``trace_out`` set, one untraced round is timed first, then the tracer
is installed and traced rounds run for the rest of the time; the spans of the
first traced round are written to ``trace_out``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from higgspec import cli  # noqa: E402
from higgspec.errors import HiggspecError  # noqa: E402
from reference import Pace  # noqa: E402


class Outputs:
    """Distinct outputs per job, with how often each was produced."""

    def __init__(self, n):
        self.first = [None] * n
        self.repeats = [0] * n
        self.others = [{} for _ in range(n)]

    def add(self, i, out):
        if self.first[i] is None:
            self.first[i] = out
        elif out == self.first[i]:
            self.repeats[i] += 1
        else:
            self.others[i][out] = self.others[i].get(out, 0) + 1

    def to_json(self):
        return [
            [[self.first[i], self.repeats[i] + 1]] + [[o, c] for o, c in self.others[i].items()]
            for i in range(len(self.first))
        ]


def run_job(config):
    try:
        return cli.machine_block(cli.run(cli.parse_config(config)))
    except HiggspecError as exc:
        return f"error: {type(exc).__name__}: {exc}"
    except Exception as exc:  # a traceback at the front door is a failed job, not a stopped run
        return f"error: uncaught {type(exc).__name__}: {exc}"


def run_round(configs, outputs, latencies, between=None):
    clock = time.process_time
    for i, config in enumerate(configs):
        t0 = clock()
        out = run_job(config)
        latencies.append(clock() - t0)
        outputs.add(i, out)
        if between is not None:
            between(i, out)


def timed(configs, seconds):
    outputs = Outputs(len(configs))
    latencies, pace = [], Pace()
    rounds = 0
    t0 = time.perf_counter()
    while True:
        run_round(configs, outputs, latencies, lambda i, out: pace.after_job(latencies[-1]))
        rounds += 1
        wall = time.perf_counter() - t0
        if wall >= seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"cpu_latencies": latencies, "scales": pace.scales(), "wall": wall, "rounds": rounds,
            "peak_rss_kb": peak_kb, "outputs": outputs.to_json()}


def traced(configs, seconds, trace_out):
    from spans import Tracer

    outputs = Outputs(len(configs))
    t0 = time.perf_counter()
    run_round(configs, outputs, [])
    untraced_wall = time.perf_counter() - t0

    tracer = Tracer().install()
    rank_id = tracer.names.index("spectral.rank_test")
    per_job = {"before": 0, "jobs": 0, "calls": 0}
    out_bytes = [0]

    def between(i, out):
        calls = tracer.calls[rank_id]
        if calls > per_job["before"]:
            per_job["jobs"] += 1
            per_job["calls"] += calls - per_job["before"]
        per_job["before"] = calls
        out_bytes[0] += len(out.encode())

    start = tracer.snapshot()
    rounds = 0
    walls = []
    while True:
        tracer.recording = rounds == 0
        r0 = time.perf_counter()
        run_round(configs, outputs, [], between)
        walls.append(time.perf_counter() - r0)
        rounds += 1
        if time.perf_counter() - t0 >= seconds:
            break
    tracer.recording = False
    end = tracer.snapshot()
    tracer.uninstall()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"names": tracer.names, "columns": ["op", "parent", "start_s", "end_s"], "first_round_spans": tracer.raw_spans()}, fh)
    return {
        "rounds": rounds,
        "untraced_wall": untraced_wall,
        "traced_walls": walls,
        "start": start,
        "end": end,
        "rank_test_per_job": per_job["calls"] / per_job["jobs"] if per_job["jobs"] else 0.0,
        "out_bytes": out_bytes[0],
        "absent": tracer.absent,
        "outputs": outputs.to_json(),
    }


def main():
    req = json.load(sys.stdin)
    if req["trace_out"]:
        result = traced(req["configs"], req["seconds"], req["trace_out"])
    else:
        result = timed(req["configs"], req["seconds"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
