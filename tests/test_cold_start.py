"""What a fresh process imports: each CLI command loads only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import higgspec

SRC = Path(__file__).resolve().parents[1] / "src"
G22 = {"kind": "product_curves", "g1": 2, "g2": 2}
CHART2 = {"kind": "chart", "nvars": 2}
S = [["1 * x1^2", "1 * x1 * x2"], ["1 * x1 * x2", "1 * x2^2"]]
CHART = {"errors", "poly", "matrix", "spectral"}
# job -> (config, the higgspec submodules a fresh process answering it loads)
JOBS = {
    "rigidity": ({"command": "rigidity", "payload": {"picard_number_one": True, "b1": 0}}, {"errors", "moduli"}),
    "bx-table": ({"command": "bx-table", "model": G22}, {"errors", "geometry"}),
    "sl2r-enum": ({"command": "sl2r-enum", "model": G22,
                   "payload": {"components": [{"class": [1, 0], "multiplicity": 2}], "L": [1, 0]}},
                  {"errors", "geometry", "moduli"}),
    "hitchin-section lattice": ({"command": "hitchin-section", "model": G22, "payload": {"L": [1, 0], "D": [2, 0]}},
                                {"errors", "geometry", "moduli"}),
    "factor": ({"command": "factor", "model": CHART2, "payload": {"s": S}}, CHART),
    "hitchin-section chart": ({"command": "hitchin-section", "model": CHART2,
                               "payload": {"datum": {"s1": ["0", "0"], "s2": S}}}, CHART | {"moduli"}),
}


# runs higgspec.cli as `python -m` does, then lists the higgspec modules in sys.modules on stderr
_PROBE = """
import atexit, runpy, sys
atexit.register(lambda: print(*sorted(m for m in sys.modules if m.startswith("higgspec.")), file=sys.stderr))
runpy.run_module("higgspec.cli", run_name="__main__", alter_sys=True)
"""


def _loaded(code, *args, cwd):
    """The higgspec submodules in sys.modules when a fresh `python -c code args` exits, and its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-500:]
    return {m.partition(".")[2] for m in proc.stderr.splitlines()[-1].split()}, proc.stdout


@pytest.mark.parametrize("job", JOBS)
def test_job_loads_only_the_modules_it_runs(job, tmp_path):
    config, modules = JOBS[job]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    loaded, out = _loaded(_PROBE, "--config", str(path), "--format", "machine", cwd=tmp_path)
    assert json.loads(out)["command"] == config["command"]
    assert loaded == modules


def test_package_import_loads_no_submodule(tmp_path):
    listed = "; print(*sorted(m for m in sys.modules if m.startswith('higgspec.')), file=sys.stderr)"
    # dir lists every export before any is used, and loads nothing
    fresh = "import sys, higgspec; assert set(higgspec.__all__) <= set(dir(higgspec))"
    assert _loaded(fresh + listed, cwd=tmp_path)[0] == set()
    assert _loaded("import sys; from higgspec import cli, NSClass" + listed, cwd=tmp_path)[0] == {
        "cli", "errors", "geometry"}


def test_every_export_is_its_module_attribute():
    for module, names in higgspec._EXPORTS.items():
        mod = importlib.import_module(f"higgspec.{module}")
        for name in names:
            assert getattr(higgspec, name) is getattr(mod, name), name
    assert sorted(higgspec.__all__) == sorted(n for names in higgspec._EXPORTS.values() for n in names)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        higgspec.no_such_name
    assert not hasattr(higgspec, "Tracer")
    from higgspec import cli  # a submodule, found past the module __getattr__

    assert cli.main is sys.modules["higgspec.cli"].main
