"""The corpus recorder of benchmarks/bench.py (loaded by path), driven over a few small configs."""

import importlib.util
import json
import pathlib
import sys

import pytest

from higgspec import cli, errors, geometry, moduli, poly, spectral
from higgspec.poly import Poly

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "benchmarks" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

CHART = {"kind": "chart", "nvars": 2}
RANK_ONE = [["3 * x1^2", "3 * x1 * x2 + 3 * x1"], ["3 * x1 * x2 + 3 * x1", "3 * x2^2 + 6 * x2 + 3"]]
RANK_TWO = [["1 * x1", "0"], ["0", "1 * x2"]]
README_S2 = [["1 * x1^2", "1 * x1 * x2"], ["1 * x1 * x2", "1 * x2^2"]]
COVER_MAP = {"P": [[2]], "cover_intersection": [[2]], "pullback": [[1]], "L": ["1/2"]}
CONFIGS = [
    # the README example
    {"command": "base-check", "model": CHART, "payload": {"datum": {"s1": ["0", "0"], "s2": README_S2}}},
    {"command": "factor", "model": CHART, "payload": {"s": RANK_ONE}},
    {"command": "factor", "model": CHART, "payload": {"s": RANK_TWO}},
    # tau = (x1^2 + x2) (x2 + 1)^2: each declared component is checked squarefree
    {
        "command": "cover",
        "model": CHART,
        "payload": {
            "factorization": {"alpha": ["1 * x1", "1"], "tau": "1 * x1^2 * x2^2 + 2 * x1^2 * x2 + 1 * x1^2 + 1 * x2^3"
                              " + 2 * x2^2 + 1 * x2"},
            "components": [{"factor": "1 * x1^2 + 1 * x2", "multiplicity": 1},
                           {"factor": "1 * x2 + 1", "multiplicity": 2}],
        },
    },
    {
        "command": "chern",
        "model": {"kind": "surface", "generators": ["h"], "intersection": [1], "K": ["-3"], "omega": ["1"], "b1": 0},
        "payload": {"cover_map": COVER_MAP, "M_c1": ["1"]},
    },
]


def _record(configs=CONFIGS, run=None):
    table = bench._corpus_format(poly, spectral, moduli, geometry)
    reports = []
    rec = bench._record(table, run or (lambda: reports.extend(bench._run_job(cli, errors, json.dumps(c))
                                                               for c in configs)))
    return rec, reports


def _trees(rows):
    return [[Poly.from_text(t, 2).to_tree() for t in row] for row in rows]


def test_every_config_runs():
    _, reports = _record()
    assert [r.startswith("error") for r in reports] == [False] * len(CONFIGS)
    assert json.loads(reports[2])["verdicts"]["rank_le_one"] is False


def test_members_and_witnesses_split_by_outcome():
    rec, _ = _record()
    assert _trees(RANK_ONE) in rec["members"] and _trees(README_S2) in rec["members"]
    assert rec["witnesses"] == [_trees(RANK_TWO)]
    assert rec["minor_witnesses"] == rec["witnesses"]


def test_only_top_level_gcds_are_recorded():
    # a profile hook sees the same calls as the recorder's trace hook, and
    # finds by walking the stack which are made inside the gcd or squarefree layer
    nests = {f.__code__ for f in (poly.poly_gcd, poly.squarefree_decompose, poly.is_squarefree)}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is poly.poly_gcd.__code__:
            outer = frame.f_back
            while outer is not None and outer.f_code not in nests:
                outer = outer.f_back
            calls.append(([p.to_tree() for p in frame.f_locals["polys"]], outer is None))

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        rec, _ = _record()
    finally:
        sys.setprofile(before)
    assert any(top for _, top in calls) and not all(top for _, top in calls)
    assert rec["poly_gcd"] == [operands for operands, top in calls if top]


def test_cover_map_holds_the_fields_as_passed():
    rec, _ = _record()
    (P, cover_Q, pullback, L, base), = rec["cover_map"]
    assert (P, cover_Q, pullback) == (COVER_MAP["P"], COVER_MAP["cover_intersection"], COVER_MAP["pullback"])
    assert L == [{"num": 1, "den": 2}]
    assert base["Q"] == [[1]] and base["generators"] == ["h"]


def test_corpus_reads_back_to_the_recorded_calls():
    table = bench._corpus_format(poly, spectral, moduli, geometry)
    rec, _ = _record()
    read = {key: r for key, _, _, r, _ in table}
    assert list(rec) == [key for key, *_ in table]
    assert read["witnesses"](rec["witnesses"][0]) == spectral.SymDiff(
        [[Poly.from_text(t, 2) for t in row] for row in RANK_TWO])
    assert ("1 * x1^2 + 1 * x2", 2) in [read["from_text"](t) for t in rec["from_text"]]
    c = geometry.CoverMap(*read["cover_map"](rec["cover_map"][0]))
    assert c.L_class == geometry.NSClass.from_parts([(1, 2)])


def _tracer(frame, event, arg):
    return None


@pytest.mark.parametrize("raises", [False, True])
def test_the_previous_trace_function_is_restored(raises):
    def run():
        if raises:
            raise RuntimeError("the round failed")

    before = sys.gettrace()
    sys.settrace(_tracer)
    try:
        if raises:
            with pytest.raises(RuntimeError, match="the round failed"):
                _record(run=run)
        else:
            _record(run=run)
        assert sys.gettrace() is _tracer
    finally:
        sys.settrace(before)


def test_out_keeps_both_sides_of_one_commit(tmp_path, monkeypatch):
    # two copies of one tree read the same commit ("unknown" without .git);
    # a stored row is replaced only by a row of its own commit and side
    runs = []

    def measure(srcs, repeats, corpus=None):
        runs.append(len(runs))
        return [{"case": "c", "commit": "unknown", "side": side, "run": runs[-1]} for side, _ in srcs]

    monkeypatch.setattr(bench, "measure", measure)
    out = tmp_path / "bench.json"
    bench.main(["--src", str(ROOT), "--parent", str(ROOT), "--out", str(out)])
    bench.main(["--src", str(ROOT), "--out", str(out)])
    rows = json.loads(out.read_text())["rows"]
    assert [(r["side"], r["run"]) for r in rows] == [("parent", 0), ("src", 1)]
    # rows stored before rows had a side are kept
    old = {"case": "c", "commit": "unknown", "run": -1}
    assert bench._merge([old], rows) == [old, *rows]
