"""Frozen `martree run` outputs: re-running a golden config reproduces its bytes.

``tests/golden`` holds the inputs (a depth-6 W-martingale, a capped cascade,
the span subspace and its depth-6 sharpness measure), the configs, and the
stdout and output files each config produced when it was frozen.  The two
``frostman`` configs sit on either side of the span subspace's dimension
bound (about 0.579): beta 0.53 is certified, beta 0.63 is violated.  A change that alters
any of those bytes has changed the experiment's results.
"""

import contextlib
import io
import shutil
from pathlib import Path

import pytest

from martree import cli

GOLDEN = Path(__file__).parent / "golden"
INPUTS = ("martingale.json", "cascade.json", "w_span.json", "span_measure.json")


@pytest.mark.parametrize(
    "name",
    ["decompose", "trace_embed_l1", "dimension_sharpness", "frostman_below", "frostman_above"],
)
def test_run_reproduces_golden_bytes(name, tmp_path, monkeypatch):
    for filename in (*INPUTS, f"{name}.json"):
        shutil.copy(GOLDEN / filename, tmp_path / filename)
    monkeypatch.chdir(tmp_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["run", f"{name}.json"]) == 0
    assert stdout.getvalue() == (GOLDEN / f"{name}.stdout").read_text()

    expected_dir = GOLDEN / "out" / name
    expected = sorted(p.relative_to(expected_dir) for p in expected_dir.rglob("*") if p.is_file())
    produced_dir = tmp_path / "out" / name
    produced = sorted(p.relative_to(produced_dir) for p in produced_dir.rglob("*") if p.is_file())
    assert produced == expected
    for rel in expected:
        assert (produced_dir / rel).read_bytes() == (expected_dir / rel).read_bytes(), rel
