"""Tests of the benchmark itself: planted answers, the checker and the tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import reference  # noqa: E402
import refpoly as R  # noqa: E402
import run  # noqa: E402
from check import check  # noqa: E402
from spans import Tracer  # noqa: E402

from higgspec import cli, poly, spectral  # noqa: E402


def answer(job):
    return cli.machine_block(cli.run(cli.parse_config(job.config)))


def first(jobs, prefix):
    return next(j for j in jobs if j.label.startswith(prefix))


def bump(term):
    """Add 1 (or 2, to avoid reaching zero) to a coefficient, keeping it canonical."""
    step = 2 if term["num"] == -term["den"] else 1
    term["num"] += step * term["den"]


def mutated(out, edit):
    doc = json.loads(out)
    edit(doc)
    return json.dumps(doc)


def test_generator_is_deterministic():
    for workload in gen.WORKLOADS:
        a, b = gen.generate(workload, 5), gen.generate(workload, 5)
        assert [j.config for j in a] == [j.config for j in b]
        assert [j.expect for j in a] == [j.expect for j in b]
        assert [j.config for j in a] != [j.config for j in gen.generate(workload, 6)]


def test_round_shape_does_not_depend_on_seed():
    for workload in gen.WORKLOADS:
        labels = [j.label for j in gen.generate(workload, 1)]
        assert labels == [j.label for j in gen.generate(workload, 2)]


def test_known_faults_are_fixed_inputs():
    faults = [[j.config for j in gen.generate("cover-tower", s) if j.known_fault] for s in (1, 2)]
    assert faults[0] and faults[0] == faults[1]
    for workload in ("rank-test", "lattice"):
        assert not any(j.known_fault for j in gen.generate(workload, 1))


def test_cauchy_binet_witness_matches_the_minor_scan():
    rng = __import__("random").Random(3)
    for n, q, p, d in gen.RANK_TWO_CELLS[:10]:
        S, (idx, minor) = gen._planted_rank_two(rng, n, q, p, d)
        assert R.first_nonzero_minor(S) == (idx, minor)


def test_changed_coefficient_is_caught():
    job = first(gen.rank_one(1), "factor n=2 d=2")
    out = answer(job)
    assert check(job, out) is None

    def edit(doc):
        bump(doc["values"]["factorization"]["alpha"][0]["terms"][0])

    assert "alpha[0]" in check(job, mutated(out, edit))


def test_swapped_witness_index_is_caught():
    jobs = gen.rank_two(1)
    for label in ("factor n=3 q=0 p=1", "base-check n=4 q=0 p=2"):
        job = first(jobs, label)
        out = answer(job)
        assert check(job, out) is None

        def edit(doc):
            idx = doc["witnesses"]["minor_indices"]
            idx[0], idx[1] = idx[1], idx[0]

        assert "minor_indices" in check(job, mutated(out, edit))


def test_wrong_tower_count_is_caught():
    job = first(gen.generate("cover-tower", 1), "tower n=2 m=2,3,1")
    out = answer(job)
    assert check(job, out) is None

    def edit(doc):
        doc["verdicts"]["count"] += 1

    assert "count" in check(job, mutated(out, edit))

    def drop_edge(doc):
        doc["values"]["edges"].pop()

    assert "edges" in check(job, mutated(out, drop_edge))


def test_non_primitive_component_is_caught():
    job = first(gen.generate("cover-tower", 1), "cover inferred n=2 m=2,5")
    out = answer(job)
    assert check(job, out) is None

    def edit(doc):
        # scale the first component by 2 and the content by 1/2**m: tau is unchanged
        cover = doc["values"]["cover"]
        comp = cover["components"][0]
        for t in comp["factor"]["terms"]:
            t["num"] *= 2
        content = Fraction(cover["content"]["num"], cover["content"]["den"]) / 2 ** comp["multiplicity"]
        cover["content"] = {"num": content.numerator, "den": content.denominator}

    assert "not primitive" in check(job, mutated(out, edit))


def test_section_identity_and_lattice_answers_are_checked():
    job = first(gen.rank_one(2), "hitchin-section n=2 d=1 t=1")
    out = answer(job)
    assert check(job, out) is None

    def edit(doc):
        bump(doc["values"]["field"]["matrices"][1][0][0]["terms"][0])

    assert "s1_1" in check(job, mutated(out, edit))

    jobs = gen.generate("lattice", 2)
    for prefix, edit in (
        ("sl2r-enum m=3,3,2", lambda d: d["values"]["data"].reverse() or d["values"]["data"].append(d["values"]["data"][0])),
        ("chern", lambda d: d["values"]["c2"].update(num=d["values"]["c2"]["num"] + 1)),
        ("milnor-wood", lambda d: d["verdicts"].update(holds=not d["verdicts"]["holds"])),
    ):
        job = first(jobs, prefix)
        out = answer(job)
        assert check(job, out) is None
        assert check(job, mutated(out, edit)) is not None


def test_raised_job_is_a_failure():
    job = first(gen.rank_one(1), "factor")
    assert check(job, "error: ZeroInput: boom").startswith("job raised")


def test_tracer_wraps_every_binding_and_restores_them():
    original = poly.poly_gcd
    assert spectral.poly_gcd is original
    tracer = Tracer().install()
    try:
        assert poly.poly_gcd is spectral.poly_gcd is not original
        job = first(gen.rank_one(1), "factor n=2 d=1 t=1")
        assert check(job, answer(job)) is None
        snap = tracer.snapshot()
        assert snap["calls"]["poly.gcd"] > 0
        assert snap["calls"]["spectral.rank_test"] == 1
        assert snap["calls"]["cli.parse_config"] == 1
        assert snap["counts"]["poly.mul.term_pairs"] > 0
        assert all(v >= 0 for v in snap["self"].values())
        assert not tracer.absent
    finally:
        tracer.uninstall()
    assert poly.poly_gcd is spectral.poly_gcd is original


def test_missing_name_is_reported_absent(monkeypatch):
    import spans

    monkeypatch.setitem(spans.OPS, "spectral.rank_test", [("spectral", "no_such_function")])
    tracer = Tracer().install()
    tracer.uninstall()
    assert tracer.absent == ["spectral.rank_test: spectral.no_such_function"]


def test_pace_keeps_kernel_share_and_scales_each_job():
    pace = reference.Pace()
    for cpu in (0.02, 0.0005, 0.0005, 0.1):
        pace.after_job(cpu)
    assert pace.cpu >= reference.SHARE * pace.jobs
    assert len(pace.scales()) == 4 and all(s > 0 for s in pace.scales())
    # a job is scaled by the mean of the calls just before and just after it
    pace.samples = [0.010, 0.005, 0.020, 0.005]
    pace.spans = [(0, 1), (1, 1), (1, 3)]
    want = [2 / 0.015, 2 / 0.015, 4 / 0.040]
    assert all(abs(got - reference.KERNEL_REF_S * w) < 1e-12 for got, w in zip(pace.scales(), want))


def test_benchmark_json_names_match_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".bench_out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_dump_writes_configs_and_answers():
    out = os.path.join(ROOT, ".bench_out", "dump-test")
    shutil.rmtree(out, ignore_errors=True)
    gen.main(["--workload", "rank-test", "--seed", "1", "--out", out])
    jobs = gen.generate("rank-test", 1)
    with open(os.path.join(out, "job-000.json"), encoding="utf-8") as fh:
        assert fh.read() == jobs[0].config
    with open(os.path.join(out, f"expect-{len(jobs) - 1:03d}.json"), encoding="utf-8") as fh:
        assert json.load(fh)["expect"] == jobs[-1].expect
    shutil.rmtree(out)
