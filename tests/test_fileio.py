"""The file writers' bytes: the fast encoder against json.dumps(indent=1)."""

import json
import re
from pathlib import Path

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


def listed(document):
    """The document with every array replaced by its list form, as json takes it."""
    if isinstance(document, np.ndarray):
        return document.tolist()
    if isinstance(document, dict):
        return {key: listed(value) for key, value in document.items()}
    if isinstance(document, list):
        return [listed(value) for value in document]
    return document


def test_writers_match_json(monkeypatch, tmp_path):
    docs = documents(monkeypatch, tmp_path)
    monkeypatch.undo()
    assert len(docs) == 6
    assert isinstance(docs[0]["leaf_mass"], np.ndarray)  # a scalar measure's masses go as they are
    for i, document in enumerate(docs):
        path = tmp_path / f"doc{i}.json"
        fileio._dump(path, document)
        assert path.read_bytes() == (json.dumps(listed(document), indent=1) + "\n").encode()


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("values", [
    [0.25] * 50 + [0.5] * 3 + [0.25],                           # few distinct values, repeated
    [0.0, -0.0, -0.0, 0.0, 1.0, -0.0],                          # 0.0 and -0.0 apart
    [5e-324, -5e-324, 1e-310, 5e-324, 2.2250738585072014e-308],  # subnormals and the least one
    [INF, 1.0, -INF, NAN, INF, -NAN, 1.0],                      # json's Infinity and NaN
    [INF, -INF, NAN],                                           # nothing finite, all distinct
    [0.1],                                                      # length 1
    [-0.0],
    SPECIAL,                                                    # all distinct
    np.random.default_rng(0).random(300).tolist(),
    np.resize(np.array(SPECIAL + [INF]), 1000).tolist(),
    [],
])
def test_float_arrays_match_json(values, tmp_path):
    array = np.array(values, dtype=float)
    for document in (array, {"leaf_mass": array}, [array, {"a": array[::-1]}]):
        path = tmp_path / "doc.json"
        fileio._dump(path, document)
        assert path.read_bytes() == (json.dumps(listed(document), indent=1) + "\n").encode()


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


GOLDEN_MARTINGALE = Path(__file__).parent / "golden" / "martingale.json"  # m 3, depth 6, ell 2


@pytest.mark.parametrize("level, atom", [
    (-1, 0),      # Python's indexing would write the block to the last level
    (1, -1),      # ... or to atom 2 of level 1
    (1, True),    # a bool is an int to Python, and True would be atom 1
    (1, 3),       # level 1 has atoms 0, 1, 2
    (6, 0),       # levels 0 to 5
    (1.0, 0),
    ("1", 0),
], ids=["level-negative", "atom-negative", "atom-bool", "atom-out-of-range", "level-out-of-range",
        "level-float", "level-string"])
def test_martingale_block_index_names_file_and_entry(level, atom, tmp_path):
    doc = json.loads(GOLDEN_MARTINGALE.read_text())
    doc["blocks"][1].update(level=level, atom=atom)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    entry = f"blocks entry (level {level!r}, atom {atom!r}) names no atom"
    with pytest.raises(ValueError, match=re.escape(f"f.json: {entry}")):
        fileio.read_martingale(path)


def test_repeated_martingale_block_names_file_and_entry(tmp_path):
    doc = json.loads(GOLDEN_MARTINGALE.read_text())
    doc["blocks"].append(dict(doc["blocks"][2]))  # level 1, atom 1 again
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    message = "f.json: blocks entry (level 1, atom 1) repeats an earlier entry"
    with pytest.raises(ValueError, match=re.escape(message)):
        fileio.read_martingale(path)


@pytest.mark.parametrize("values", [[[0.0, 0.0]] * 2, [[0.0, 0.0]] * 2 + [[0.0]], 0.0, [[0.0, {}]] * 3],
                         ids=["two-rows", "ragged", "scalar", "not-a-number"])
def test_martingale_block_values_must_be_m_by_ell(values, tmp_path):
    doc = json.loads(GOLDEN_MARTINGALE.read_text())
    doc["blocks"][1]["values"] = values
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    message = "f.json: the values of a blocks entry are not 3 x 2 numbers"
    with pytest.raises(ValueError, match=re.escape(message)):
        fileio.read_martingale(path)


def test_martingale_read_back_block_for_block(tmp_path):
    doc = json.loads(GOLDEN_MARTINGALE.read_text())
    doc["blocks"] = doc["blocks"][::-1]  # the order of the entries does not matter
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    F = fileio.read_martingale(path)
    expected = [np.zeros((3**n, 3, 2)) for n in range(6)]
    for row in doc["blocks"]:
        expected[row["level"]][row["atom"]] = row["values"]
    assert [d.tobytes() for d in F.diffs] == [d.tobytes() for d in expected]
    assert F.f0.tobytes() == np.array(doc["f0"]).tobytes()
