"""Cold start: only kappa's SLSQP polish loads scipy.optimize.

Importing scipy.optimize takes about half a second of a process's start-up,
and only the joint SLSQP polish of a kappa search calls it, which runs on a
W of dimension 2 or more; the ray polish is numpy's.  Each check runs in a
fresh interpreter with ``PYTHONPATH=src``, since this test process has long
since loaded scipy.optimize (the oracles use it).
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).parent / "golden"


def loads_scipy_optimize(code: str, cwd: Path) -> bool:
    """Whether running ``code`` in a fresh interpreter leaves scipy.optimize loaded."""
    probe = f"{code}\nimport sys\nprint('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    return {"True": True, "False": False}[out.stdout.splitlines()[-1]]


def test_package_import_leaves_scipy_optimize_out(tmp_path):
    assert not loads_scipy_optimize("import martree, martree.cli, martree.fileio", tmp_path)


@pytest.mark.parametrize("name, inputs", [
    ("frostman_below", ["span_measure.json"]),
    ("decompose", ["martingale.json"]),
], ids=["frostman", "decompose"])
def test_run_without_kappa_search_leaves_scipy_optimize_out(name, inputs, tmp_path):
    for filename in (*inputs, f"{name}.json"):
        shutil.copy(GOLDEN / filename, tmp_path / filename)
    code = f"from martree import cli\nassert cli.main(['run', '{name}.json']) == 0"
    assert not loads_scipy_optimize(code, tmp_path)
    assert (tmp_path / "out" / name).is_dir()


def test_kappa_search_loads_scipy_optimize(tmp_path):
    # w_random has dim 2, so the search runs the SLSQP joint polish
    shutil.copy(GOLDEN / "w_random.json", tmp_path / "w_random.json")
    code = "from martree import fileio, kappa\nkappa.kappa_of(fileio.read_subspace('w_random.json'), 0.5)"
    assert loads_scipy_optimize(code, tmp_path)


def test_kappa_search_on_a_line_leaves_scipy_optimize_out(tmp_path):
    shutil.copy(GOLDEN / "w_span.json", tmp_path / "w_span.json")
    code = ("from martree import fileio, kappa\nw = kappa.kappa_of(fileio.read_subspace('w_span.json'), 0.5)\n"
            "assert w.value > 0")
    assert not loads_scipy_optimize(code, tmp_path)


@pytest.mark.parametrize("name, w_file", [
    ("dimension_sharpness", "w_span.json"),
    ("trace_sharpness", "w_delta.json"),
])
def test_sharpness_runs_leave_scipy_optimize_out(name, w_file, tmp_path):
    for filename in (w_file, f"{name}.json"):
        shutil.copy(GOLDEN / filename, tmp_path / filename)
    code = f"from martree import cli\nassert cli.main(['run', '{name}.json']) == 0"
    assert not loads_scipy_optimize(code, tmp_path)
    for expected in sorted((GOLDEN / "out" / name).iterdir()):
        assert (tmp_path / "out" / name / expected.name).read_bytes() == expected.read_bytes()
