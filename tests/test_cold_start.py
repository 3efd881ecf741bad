"""Cold start: only the kappa searches load scipy.optimize.

Importing scipy.optimize takes about half a second of a process's start-up,
and only kappa's ray and SLSQP polishes call it.  Each check runs in a fresh
interpreter with ``PYTHONPATH=src``, since this test process has long since
loaded scipy.optimize (the oracles use it).
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
    shutil.copy(GOLDEN / "w_span.json", tmp_path / "w_span.json")
    code = "from martree import fileio, kappa\nkappa.kappa_of(fileio.read_subspace('w_span.json'), 0.5)"
    assert loads_scipy_optimize(code, tmp_path)
