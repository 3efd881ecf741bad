"""The file writers' bytes: the fast encoder against json.dumps(indent=1)."""

import json

import numpy as np
import pytest

from martree import fileio
from martree.filtration import FiltrationSpec, Martingale, TreeMeasure
from martree.groupfourier import FiberFamily, FiniteAbelianGroup
from martree.spacew import SubspaceW

# -0.0, subnormals, the least subnormal, a large power of ten, int-valued floats
SPECIAL = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e16, 1e22, 3.0, -7.0, 0.1, 1 / 3, 123456789.0]


def documents(monkeypatch, tmp_path):
    """The documents each writer hands to ``_dump``."""
    seen = []
    monkeypatch.setattr(fileio, "_dump", lambda path, document: seen.append(document))
    masses = np.resize(np.array(SPECIAL), 27)
    fileio.write_measure(tmp_path / "mu.json", TreeMeasure(FiltrationSpec(3, 3, 1), masses))
    fileio.write_measure(tmp_path / "vec.json", TreeMeasure(FiltrationSpec(3, 2, 2), masses[:18].reshape(9, 2)))
    spec = FiltrationSpec(3, 2, 2)
    diffs = [np.resize(np.array(SPECIAL), (3**n, 3, 2)) for n in range(2)]
    diffs = [d - d.mean(axis=1, keepdims=True) for d in diffs]
    fileio.write_martingale(tmp_path / "f.json", Martingale(spec, np.array([1e16, -0.0]), diffs, validate=False))
    fileio.write_subspace(tmp_path / "w.json", SubspaceW.random(4, 3, 5, seed=1))
    fileio.write_subspace(tmp_path / "w0.json", SubspaceW.zero(3, 2))
    fibers = {1: np.array([[0.6 + 0.8j]]), 2: np.zeros((0, 1)), 3: np.array([[1.0 + 0.0j]]), 4: np.zeros((0, 1))}
    fileio.write_fibers(tmp_path / "fib.json", FiberFamily(FiniteAbelianGroup.cyclic(5), 1, fibers))
    return seen


def test_writers_match_json(monkeypatch, tmp_path):
    docs = documents(monkeypatch, tmp_path)
    monkeypatch.undo()
    assert len(docs) == 6
    for i, document in enumerate(docs):
        path = tmp_path / f"doc{i}.json"
        fileio._dump(path, document)
        assert path.read_bytes() == (json.dumps(document, indent=1) + "\n").encode()


@pytest.mark.parametrize("document", [
    {"leaf_mass": [1.0, float("inf"), 2.0]},
    {"leaf_mass": [float("nan")], "basis": [[-float("inf")]]},
    {"mixed": [1.0, 2, True, None, "s"], "empty": [], "none": {}, "deep": [[[]], [{}]]},
    {"text": "é\n\"", "nested": {"a": {"b": [0.5, -0.0]}}},
    [SPECIAL, [SPECIAL]],
    3.5,
])
def test_other_values_match_json(document, tmp_path):
    path = tmp_path / "doc.json"
    fileio._dump(path, document)
    assert path.read_bytes() == (json.dumps(document, indent=1) + "\n").encode()


def test_floats_round_trip(tmp_path):
    path = tmp_path / "mu.json"
    mu = TreeMeasure(FiltrationSpec(3, 2, 1), np.resize(np.array(SPECIAL), 9))
    fileio.write_measure(path, mu)
    assert fileio.read_measure(path).leaf_mass.tobytes() == mu.leaf_mass.tobytes()
