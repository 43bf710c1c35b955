"""The CLI's exit-code contract under mutated configs.

Seeds: the README ``base-check`` example and the cheapest job of each command
in the seed-1 rounds that ``perfbench/gen.py`` builds (imported, not changed).
A mutation drops a key, adds an unknown key, or replaces one value anywhere in
the document with a small JSON value.  Every run exits 0, 1 or 2 without a
traceback, and on exit 0 its machine block re-parses to itself.
"""

import contextlib
import copy
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from higgspec.cli import machine_block, main

ROOT = Path(__file__).resolve().parents[1]
REPLACEMENTS = st.sampled_from((None, True, -1, 1.5, "x", [], {}, [5])).map(copy.deepcopy)


def _readme_example():
    text = (ROOT / "README.md").read_text()
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


def _perfbench_sample():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    first = {}
    # one config per command, model kind and payload key set; generation
    # order puts each command's cheapest ladder cell first
    for job in gen.rank_one(1) + gen.cover_tower(1) + gen.lattice(1):
        doc = json.loads(job.config)
        kind = doc.get("model", {}).get("kind")
        if not job.known_fault:
            first.setdefault((doc["command"], kind, tuple(sorted(doc["payload"]))), doc)
    return list(first.values())


SEEDS = [_readme_example()] + _perfbench_sample()


def _nodes(doc, path=()):
    """Every (path, value) below and including doc."""
    yield path, doc
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _nodes(v, path + (i,))


def _set(doc, path, value):
    if not path:
        return value
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    return doc


@st.composite
def mutated(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(SEEDS))))
    for _ in range(draw(st.integers(1, 2))):
        nodes = list(_nodes(doc))
        path, value = draw(st.sampled_from(nodes))
        op = draw(st.sampled_from(("drop", "add", "replace")))
        if op == "drop" and path:
            parent = doc
            for k in path[:-1]:
                parent = parent[k]
            del parent[path[-1]]
        elif op == "add" and isinstance(value, dict):
            value["zz_unknown"] = draw(REPLACEMENTS)
        else:
            doc = _set(doc, path, draw(REPLACEMENTS))
    return doc


def test_seeds_run_clean():
    assert len(SEEDS) >= 12
    for doc in SEEDS:
        assert _run(doc)[0] == 0


def _run(doc):
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["--config", fh.name, "--format", "machine"])
    finally:
        os.unlink(fh.name)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_mutated_configs_keep_the_exit_code_contract(doc):
    rc, out, err = _run(doc)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    if rc == 0:
        assert machine_block(json.loads(out)) == out
    else:
        assert err.startswith("error: ") and out == ""
