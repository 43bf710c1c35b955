"""Acceptance gate: one test per criterion, each printing its pass/fail line.

All arithmetic is exact, so every comparison is equality; the only tolerances
are the stated wall-clock budgets.  The randomized criteria run the seeded
suites from higgspec.selftest at (at least) their required sizes.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from higgspec import selftest as sf
from higgspec.cli import main

SEED = 42
# sha256 of the `selftest --seed 42 --format machine` block, recorded once;
# a change that alters any selftest output bytes must say so by updating it
SELFTEST_SHA256 = (Path(__file__).parent / "data" / "selftest-seed42.sha256").read_text().strip()


def report(number, label, suite, budget=None, elapsed=None):
    status = "PASS" if suite is None or suite.failures == 0 else "FAIL"
    if elapsed is not None and budget is not None and elapsed > budget:
        status = "FAIL"
    extra = ""
    if suite is not None:
        extra = f" ({suite.cases} checks)"
    if elapsed is not None:
        extra += f" [{elapsed:.2f}s" + (f" < {budget:.0f}s]" if budget else "]")
    print(f"criterion {number:2d} {status}: {label}{extra}")
    assert status == "PASS", f"criterion {number} failed: {label}"


def run_suite(fn, **kw):
    t0 = time.perf_counter()
    suite = fn(SEED, **kw)
    return suite, time.perf_counter() - t0


def test_criterion_01_rank_one_theorem():
    suite, elapsed = run_suite(sf.suite_rank_one_theorem, cases=200)
    report(1, "integrable fields land in the spectral base (>=200 fields)", suite, 30.0, elapsed)


def test_criterion_02_factorization_suite():
    suite, elapsed = run_suite(sf.suite_factorization, cases=500)
    report(2, "factorization recovery and rescaling invariance (>=500)", suite, 20.0, elapsed)


def test_criterion_03_canonical_cover_identity():
    suite, elapsed = run_suite(sf.suite_canonical_cover, cases=100)
    report(3, "canonical cover pushes to (0, tau a a^T) (>=100)", suite, None, elapsed)


def test_criterion_04_correspondence_roundtrip():
    suite, elapsed = run_suite(sf.suite_correspondence, cases=100)
    report(4, "module/Higgs roundtrip with Cayley-Hamilton (>=100)", suite, None, elapsed)


def test_criterion_05_hitchin_section_identity():
    suite, elapsed = run_suite(sf.suite_hitchin_section, cases=100)
    report(5, "section identity on all branches + lattice verdicts (>=100)", suite, None, elapsed)


def test_criterion_06_bx_table_regression():
    suite, elapsed = run_suite(sf.suite_bx_table)
    report(6, "component table over genus grid {0..3}^2", suite, None, elapsed)


def test_criterion_07_tower():
    suite, elapsed = run_suite(sf.suite_tower, cases=50)
    report(7, "tower count, edges, unique normal cover (50 vectors)", suite, None, elapsed)


def test_criterion_08_chern_suite():
    suite, elapsed = run_suite(sf.suite_chern, cases=200)
    report(8, "discriminant twist invariance + pushforward identities (>=200)", suite, None, elapsed)


def test_criterion_09_sl2r_milnor_wood():
    suite, elapsed = run_suite(sf.suite_sl2r_milnor_wood)
    report(9, "SL2(R) enumeration vs brute force + degree bound", suite, None, elapsed)


def test_criterion_10_higher_rank():
    suite, elapsed = run_suite(sf.suite_higher_rank, cases=50)
    report(10, "companion charcheck n=2..5 + frozen convention (>=50 each)", suite, None, elapsed)


def test_criterion_11_selftest_deterministic(tmp_path, capsys):
    config = tmp_path / "selftest.json"
    config.write_text(json.dumps({"command": "selftest", "seed": SEED}))
    t0 = time.perf_counter()
    rc1 = main(["--config", str(config), "--format", "machine"])
    out1 = capsys.readouterr().out
    rc2 = main(["--config", str(config), "--format", "machine"])
    out2 = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    ok = rc1 == rc2 == 0 and out1 == out2 and len(out1) > 0
    ok = ok and hashlib.sha256(out1.encode()).hexdigest() == SELFTEST_SHA256
    verdicts = json.loads(out1)["verdicts"]
    ok = ok and verdicts["all_passed"] and verdicts["total_failures"] == 0
    status = "PASS" if ok and elapsed < 120.0 else "FAIL"
    print(f"criterion 11 {status}: selftest byte-identical twice and to the recorded hash [{elapsed:.2f}s < 120s]")
    assert status == "PASS"
