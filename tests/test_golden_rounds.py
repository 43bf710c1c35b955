"""Whole seed-1 benchmark rounds, pinned by the sha256 of their outputs.

Each round is built with ``perfbench/gen.py`` (imported, not changed) and run
in-process through the CLI front door, one job after another, the way the
benchmark worker runs it: a job's output is its machine block, or
``error: <type>: <message>`` for a domain or schema failure.  The outputs of a
round, joined by newlines, hash to the value recorded in ``tests/data/``, so
any change to any byte of any job's answer shows here.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from higgspec import cli
from higgspec.errors import HiggspecError

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"


def _generate(workload, seed):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return [job.config for job in gen.generate(workload, seed)]


def _run_job(config):
    try:
        return cli.machine_block(cli.run(cli.parse_config(config)))
    except HiggspecError as exc:
        return f"error: {type(exc).__name__}: {exc}"


@pytest.mark.parametrize("workload", ["rank-test", "cover-tower", "lattice"])
def test_round_outputs_match_recorded_hash(workload):
    out = "\n".join(_run_job(c) for c in _generate(workload, 1))
    want = (DATA / f"round-{workload}-seed1.sha256").read_text().strip()
    assert hashlib.sha256(out.encode()).hexdigest() == want
