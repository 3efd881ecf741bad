"""Frozen `martree run` outputs: re-running a golden config reproduces its bytes.

``tests/golden`` holds the inputs (a depth-6 W-martingale as
``fileio.write_martingale`` writes it, a capped cascade, the span, delta
and a random 2-dimensional subspace, the span subspace's depth-6 sharpness
measure and a Z_4 fiber family), one config per kind, and
the stdout and output files each config produced when it was frozen.
``trace_constant`` only prints, so it has no output directory.  The two
``frostman`` configs sit on either side of the span subspace's dimension
bound (about 0.579): beta 0.53 is certified, beta 0.63 is violated.  A change that alters
any of those bytes has changed the experiment's results.

Each kind is also a subcommand; for one kind of each output shape (CSV, CSV
plus a measure file, JSON, print-only, and the ``gen-w``, ``cascade`` and
``norm`` utilities, which write the file they are given or only print) the
subcommand must write the same bytes as ``martree run`` on a config holding
the same fields.  The utilities' own outputs are frozen too: ``gen-w`` made
the golden W files, and the other outputs are pinned by their sha256.
"""

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import pytest

from martree import cli

GOLDEN = Path(__file__).parent / "golden"
INPUTS = (
    "martingale.json",
    "cascade.json",
    "w_span.json",
    "w_delta.json",
    "w_random.json",
    "span_measure.json",
    "fibers.json",
)
NAMES = (
    "kappa",
    "check_w",
    "hls",
    "delta_counterexample",
    "main_inequality",
    "decompose",
    "frostman_below",
    "frostman_above",
    "dimension_sharpness",
    "group_cancel",
    "group_antisym",
    "group_subgroup_bound",
    "trace_constant",
    "trace_embed_p",
    "trace_embed_l1",
    "trace_sharpness",
)


@pytest.mark.parametrize("name", NAMES)
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


# kind -> (config fields, the same fields as subcommand flags)
SUBCOMMANDS = {
    "hls": (
        {"filtration": {"m": 3, "depth": 6, "ell": 2},
         "params": {"p": 2.0, "q": 4.0, "trials": 3, "depths": [4, 6]}},
        ["--m", "3", "--depth", "6", "--ell", "2",
         "--p", "2", "--q", "4", "--trials", "3", "--depths", "4", "6"],
    ),
    "dimension-sharpness": (
        {"w_file": "w_span.json", "filtration": {"depth": 6}},
        ["--w", "w_span.json", "--depth", "6"],
    ),
    "group-antisym": ({"fibers_file": "fibers.json"}, ["--fibers", "fibers.json"]),
    "trace-constant": (
        {"measure_file": "cascade.json", "params": {"alpha": 0.9, "p": 1.0}},
        ["--measure", "cascade.json", "--alpha", "0.9", "--p", "1"],
    ),
    "gen-w": (
        {"w_file": "w_new.json", "filtration": {"m": 3, "ell": 2}, "params": {"kind": "random", "dim": 2}},
        ["--w", "w_new.json", "--m", "3", "--ell", "2", "--kind", "random", "--dim", "2"],
    ),
    "cascade": (
        {"measure_file": "nu.json", "filtration": {"depth": 6}, "params": {"alpha": 0.9}},
        ["--measure", "nu.json", "--depth", "6", "--alpha", "0.9"],
    ),
    "norm": (
        {"martingale_file": "martingale.json", "measure_file": "cascade.json",
         "params": {"name": "lpnu", "p": 1.0}},
        ["--martingale", "martingale.json", "--measure", "cascade.json", "--name", "lpnu", "--p", "1"],
    ),
}


def _run_in(directory: Path, argv: list[str], monkeypatch) -> tuple[str, dict]:
    """Run ``martree <argv>`` in a copy of the inputs; its stdout and every file there after."""
    directory.mkdir()
    for filename in INPUTS:
        shutil.copy(GOLDEN / filename, directory / filename)
    monkeypatch.chdir(directory)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    files = {p.relative_to(directory): p.read_bytes() for p in directory.rglob("*") if p.is_file()}
    return stdout.getvalue(), files


@pytest.mark.parametrize("kind", SUBCOMMANDS)
def test_subcommand_matches_run(kind, tmp_path, monkeypatch):
    fields, flags = SUBCOMMANDS[kind]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": kind, **fields}))
    via_run = _run_in(tmp_path / "run", ["--out", "out", "run", str(config)], monkeypatch)
    via_flags = _run_in(tmp_path / "flags", ["--out", "out", kind, *flags], monkeypatch)
    assert via_flags == via_run


# utility flags -> the golden file they wrote, else the sha256 of their output
UTILITIES = [
    (["gen-w", "--kind", "span", "--w"], "w_span.json"),
    (["gen-w", "--kind", "delta", "--w"], "w_delta.json"),
    (["--seed", "7", "gen-w", "--kind", "random", "--m", "3", "--ell", "2", "--dim", "2", "--w"], "w_random.json"),
    (["gen-w", "--kind", "zero", "--m", "4", "--ell", "2", "--w"],
     "656ab5d65c9d4782ccfced317801f94c115ecdede995c0c4d3bc7f397aa14700"),
    (["cascade", "--depth", "6", "--alpha", "0.9", "--measure"],
     "94f13a34a29a5e9e435450b8c1d38ea122ad2ef5e2bf0e7e2c9a77e43a0bec1c"),
    (["--seed", "3", "cascade", "--m", "4", "--depth", "5", "--alpha", "0.7", "--p", "2", "--measure"],
     "5f40e22d06a54994b22c8f095d4b66e9e0110daca5bd82c877824ea1a3304a18"),
]


@pytest.mark.parametrize("argv, frozen", UTILITIES, ids=["w_span", "w_delta", "w_random", "w_zero", "cascade", "cascade_m4"])
def test_utility_writes_frozen_bytes(argv, frozen, tmp_path, capsys):
    made = tmp_path / "made.json"
    assert cli.main([*argv, str(made)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {made}")
    if frozen.endswith(".json"):
        assert made.read_bytes() == (GOLDEN / frozen).read_bytes()
    else:
        assert hashlib.sha256(made.read_bytes()).hexdigest() == frozen


def test_trace_embed_l1_builds_no_forest(tmp_path, monkeypatch):
    # The CSV holds the ratios only, so the flat-tree controls are not run.
    def no_forest(*args, **kwargs):
        raise AssertionError("trace-embed-l1 classified a forest")

    monkeypatch.setattr("martree.trace.classify_atoms", no_forest)
    test_run_reproduces_golden_bytes("trace_embed_l1", tmp_path, monkeypatch)


def test_decompose_builds_no_tree_objects(tmp_path, monkeypatch):
    # forest.json is written from the forest's count arrays, not its trees.
    def no_objects(*args, **kwargs):
        raise AssertionError("decompose built a per-tree object")

    monkeypatch.setattr("martree.decomp.FlatTree", no_objects)
    monkeypatch.setattr("martree.decomp.AtomId", no_objects)
    test_run_reproduces_golden_bytes("decompose", tmp_path, monkeypatch)


def test_trace_embed_p_at_one_writes_the_l1_rows(tmp_path, monkeypatch):
    flags = ["--measure", "cascade.json", "--w", "w_span.json", "--alpha", "0.9",
             "--trials", "4", "--depths", "4", "6"]
    rows = {}
    for kind, extra in (("trace-embed-l1", []), ("trace-embed-p", ["--p", "1"])):
        _, files = _run_in(tmp_path / kind, ["--out", "out", kind, *flags, *extra], monkeypatch)
        (text,) = [data.decode() for path, data in files.items() if path.suffix == ".csv"]
        rows[kind] = [line for line in text.splitlines() if not line.startswith("#")]
    assert rows["trace-embed-p"] == rows["trace-embed-l1"]
    assert len(rows["trace-embed-l1"]) == 1 + 3 * 4


# ``martree norm`` flags -> the text it printed on the golden martingale when
# frozen; h1 reads the magnitudes its martingale's levels keep
NORM_PINS = [
    (["--name", "h1"], "1.8033723053780835\n"),
    (["--name", "besov"], "4.2564229366276072\n"),
    (["--name", "besov", "--beta", "0.5", "--p", "1"], "40.760949237949632\n"),
    (["--name", "besov", "--beta", "-0.5", "--p", "3"], "0.84328269556906343\n"),
]


@pytest.mark.parametrize("flags, printed", NORM_PINS, ids=["h1", "besov", "besov_beta_p1", "besov_beta_p3"])
def test_norm_prints_frozen_text(flags, printed, capsys):
    assert cli.main(["norm", "--martingale", str(GOLDEN / "martingale.json"), *flags]) == 0
    assert capsys.readouterr().out == printed
