"""The file writers' bytes against json.dumps(indent=1), and the readers'
numbers against json.load, bit for bit."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from martree import fileio
from martree.filtration import FiltrationSpec, Martingale, TreeMeasure
from martree.groupfourier import FiberFamily, FiniteAbelianGroup
from martree.spacew import SubspaceW
import oracles

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


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_MARTINGALE = GOLDEN / "martingale.json"  # m 3, depth 6, ell 2, block layout


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


def sparse_martingale(m, depth, ell, seed, kept=40):
    """A martingale with at most ``kept`` non-zero blocks per level, each of
    mean zero over its m children, at random atoms."""
    rng = np.random.default_rng(seed)
    diffs = []
    for n in range(depth):
        level = np.zeros((m**n, m, ell))
        atoms = rng.choice(m**n, size=min(kept, m**n), replace=False)
        blocks = rng.standard_normal((atoms.size, m, ell))
        level[atoms] = blocks - blocks.mean(axis=1, keepdims=True)
        diffs.append(level)
    return Martingale(FiltrationSpec(m, depth, ell), rng.standard_normal(ell), diffs)


def columnar(blocks_doc):
    """The columnar document of a block-layout one: its entries sorted by
    level-order node id, their values in one flat list."""
    m = blocks_doc["m"]
    entries = sorted(((m**b["level"] - 1) // (m - 1) + b["atom"], b["values"]) for b in blocks_doc["blocks"])
    return {**{key: blocks_doc[key] for key in ("kind", "m", "depth", "ell", "f0")},
            "nodes": [node for node, _ in entries],
            "values": [x for _, block in entries for row in block for x in row]}


def read_back(path):
    """The bytes of the diffs, level after level, and of f0 that a martingale
    file of either layout holds, its numbers as json reads them (NaN too)."""
    doc = json.loads(Path(path).read_text())
    m, depth, ell = doc["m"], doc["depth"], doc["ell"]
    flat = np.zeros(((m**depth - 1) // (m - 1), m, ell))
    if "blocks" in doc:
        for b in doc["blocks"]:
            flat[(m**b["level"] - 1) // (m - 1) + b["atom"]] = b["values"]
    else:
        flat[doc["nodes"]] = np.reshape(doc["values"], (-1, m, ell))
    return flat.tobytes(), np.array(doc["f0"], dtype=float).tobytes()


def assert_martingale_bytes_match_oracle(F, tmp_path, package_reads=True):
    """The columnar file and the block oracle's file hold the same diffs and
    f0 bits, and the columnar file has the bytes of json.dumps of the
    oracle's document made columnar.  ``package_reads``: read_martingale
    reads the two files to the same bits too (it rejects NaN and non-martingales)."""
    fileio.write_martingale(tmp_path / "bulk.json", F)
    oracles.write_martingale(tmp_path / "blocks.json", F)
    assert read_back(tmp_path / "bulk.json") == read_back(tmp_path / "blocks.json")
    if package_reads:
        new, old = (fileio.read_martingale(tmp_path / name) for name in ("bulk.json", "blocks.json"))
        assert [d.tobytes() for d in new.diffs] == [d.tobytes() for d in old.diffs]
        assert new.f0.tobytes() == old.f0.tobytes()
    document = columnar(json.loads((tmp_path / "blocks.json").read_text()))
    assert (tmp_path / "bulk.json").read_bytes() == (json.dumps(document, indent=1) + "\n").encode()


@pytest.mark.parametrize("depth", range(1, 7))
@pytest.mark.parametrize("ell", range(1, 4))
@pytest.mark.parametrize("m", range(3, 10))
def test_martingale_bytes_match_oracle(m, ell, depth, tmp_path):
    assert_martingale_bytes_match_oracle(sparse_martingale(m, depth, ell, seed=m * 100 + ell * 10 + depth), tmp_path)


def test_zero_martingale_bytes_match_oracle(tmp_path):
    spec = FiltrationSpec(3, 3, 2)
    F = Martingale(spec, np.zeros(2), [np.zeros((3**n, 3, 2)) for n in range(3)])
    assert_martingale_bytes_match_oracle(F, tmp_path)
    doc = json.loads((tmp_path / "bulk.json").read_text())
    assert doc["nodes"] == doc["values"] == []


def test_zero_blocks_are_skipped_as_the_oracle_skips_them(tmp_path):
    F = sparse_martingale(3, 4, 2, seed=1, kept=27)  # every block of levels 0 to 3 is kept
    F.diffs[2][[0, 4]] = 0.0
    F.diffs[3][[1, 26]] = -0.0
    F.diffs[3][5, 0, 0] = -0.0  # a block with one zero entry stays
    assert_martingale_bytes_match_oracle(F, tmp_path, package_reads=False)  # that block no longer sums to zero
    nodes = json.loads((tmp_path / "bulk.json").read_text())["nodes"]
    assert len(nodes) == 1 + 3 + 9 + 27 - 4
    assert [node for node in nodes if node >= 4][:3] == [5, 6, 7]  # level 2 starts at node 4
    assert 13 + 5 in nodes and 13 + 1 not in nodes and 13 + 26 not in nodes


def test_special_floats_in_kept_blocks_match_oracle(tmp_path):
    F = sparse_martingale(3, 3, 2, seed=2, kept=9)
    values = np.concatenate([d.ravel() for d in F.diffs])
    values[: len(SPECIAL)] = SPECIAL
    F = Martingale(F.spec, np.array([1e22, -0.0]), [values[: d.size].reshape(d.shape) for d in F.diffs],
                   validate=False)
    F.diffs[1][1, 2] = 1e16
    F.diffs[2][3, 0] = [5e-324, -0.0]
    assert_martingale_bytes_match_oracle(F, tmp_path, package_reads=False)  # its blocks do not sum to zero


def test_non_finite_floats_match_oracle(tmp_path):
    # infinities only: the writer refuses a NaN, as the reader does (test_writers_refuse_what_readers_refuse)
    F = sparse_martingale(4, 3, 2, seed=3, kept=16)
    diffs = [d.copy() for d in F.diffs]
    diffs[0][0, 1] = [INF, -INF]
    diffs[2][7, 3, 0] = -INF
    diffs[2][9] = INF  # a block of nothing but infinities is not zero
    F = Martingale(F.spec, np.array([INF, -0.0]), diffs, validate=False)
    assert_martingale_bytes_match_oracle(F, tmp_path)  # the reader takes infinities
    text = (tmp_path / "bulk.json").read_text()
    assert "Infinity" in text and "-Infinity" in text


GOLDEN_COLUMNAR = GOLDEN_MARTINGALE.with_name("martingale_columnar.json")


def test_golden_martingale_rewrites_to_its_bytes(tmp_path):
    # the block oracle gives the golden its bytes back, and the writer its columnar form
    F = fileio.read_martingale(GOLDEN_MARTINGALE)
    assert_martingale_bytes_match_oracle(F, tmp_path)
    assert (tmp_path / "blocks.json").read_bytes() == GOLDEN_MARTINGALE.read_bytes()
    assert (tmp_path / "bulk.json").read_bytes() == GOLDEN_COLUMNAR.read_bytes()


def test_golden_columnar_martingale_reads_as_the_block_golden(tmp_path):
    old, new = fileio.read_martingale(GOLDEN_MARTINGALE), fileio.read_martingale(GOLDEN_COLUMNAR)
    assert [d.tobytes() for d in new.diffs] == [d.tobytes() for d in old.diffs]
    assert new.f0.tobytes() == old.f0.tobytes()
    fileio.write_martingale(tmp_path / "f.json", new)
    assert (tmp_path / "f.json").read_bytes() == GOLDEN_COLUMNAR.read_bytes()


def _set_nodes(doc, i, j, value):
    doc["nodes"][i:j] = value


def _set_field(name, value):
    return lambda doc: doc.update({name: value})


# (how the columnar golden is broken, what the error says after the file name)
COLUMNAR_PROBES = {
    "nodes-float": (lambda doc: _set_nodes(doc, 3, 4, [3.0]), "nodes holds 3.0, not an integer node id"),
    "nodes-bool": (lambda doc: _set_nodes(doc, 1, 2, [True]), "nodes holds True, not an integer node id"),
    "nodes-string": (lambda doc: _set_nodes(doc, 0, 1, ["0"]), "nodes holds '0', not an integer node id"),
    "nodes-negative": (lambda doc: _set_nodes(doc, 0, 1, [-1]), "nodes holds an id outside [0, 364)"),
    "nodes-past-last": (lambda doc: _set_nodes(doc, -1, None, [364]), "nodes holds an id outside [0, 364)"),
    "nodes-repeat": (lambda doc: _set_nodes(doc, 5, 6, [4]), "nodes is not ascending: 4 comes before 4"),
    "nodes-descending": (lambda doc: _set_nodes(doc, 5, 7, [6, 5]), "nodes is not ascending: 6 comes before 5"),
    "nodes-not-a-list": (_set_field("nodes", 5), "the martingale file's 'nodes' is 5, not a list"),
    "nodes-null": (_set_field("nodes", None), "the martingale file's 'nodes' is None, not a list"),
    "values-count": (lambda doc: doc["values"].pop(), "values holds 2183 numbers, not 364 x 3 x 2"),
    "values-nested": (lambda doc: doc.update(values=[doc["values"]]), "values is not a rectangular array"),
    "values-string": (lambda doc: doc["values"].__setitem__(7, "0.5"),
                      "could not convert string to float: '0.5' in values"),
    "values-null": (lambda doc: doc["values"].__setitem__(7, None), "could not convert null to float in values"),
    "values-bool": (lambda doc: doc["values"].__setitem__(7, True), "could not convert a bool to float: true in values"),
    "values-not-a-list": (_set_field("values", {}), "the martingale file's 'values' is {}, not a list"),
    "both-layouts": (lambda doc: doc.update(blocks=[]), "the martingale file holds both 'blocks' and 'nodes'"),
    "no-nodes": (lambda doc: doc.pop("nodes"), "the martingale file lacks the field 'nodes'"),
    "neither-layout": (lambda doc: [doc.pop("nodes"), doc.pop("values")],
                       "the martingale file lacks the field 'nodes'"),
    "blocks-null": (lambda doc: [doc.pop("nodes"), doc.pop("values"), doc.update(blocks=None)],
                    "the martingale file's 'blocks' is None, not a list"),
}


@pytest.mark.parametrize("probe", COLUMNAR_PROBES)
def test_columnar_martingale_fields_are_checked(probe, tmp_path):
    change, message = COLUMNAR_PROBES[probe]
    doc = json.loads(GOLDEN_COLUMNAR.read_text())
    assert len(doc["nodes"]) == 364 and doc["nodes"][:8] == list(range(8))  # depth 6: every block is kept
    change(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        fileio.read_martingale(path)


def _set_measure(doc, entry):
    doc["leaf_mass"][3] = entry(doc["leaf_mass"][3])


def _set_f0(doc, entry):
    doc["f0"][1] = entry(doc["f0"][1])


def _set_values(doc, entry):
    doc["blocks"][1]["values"][2][0] = entry(doc["blocks"][1]["values"][2][0])


def _set_basis(doc, entry):
    doc["basis"][1][2][0] = entry(doc["basis"][1][2][0])


def _set_fiber(doc, entry):
    doc["fibers"]["1"][0][0][1] = entry(doc["fibers"]["1"][0][0][1])


# (reader, golden file, where one entry goes, how the error names the field)
NUMBER_FIELDS = {
    "measure": (fileio.read_measure, "cascade.json", _set_measure, "leaf_mass"),
    "f0": (fileio.read_martingale, "martingale.json", _set_f0, "f0"),
    "values": (fileio.read_martingale, "martingale.json", _set_values,
               "the values of a blocks entry are not 3 x 2 numbers"),
    "basis": (fileio.read_subspace, "w_random.json", _set_basis, "the basis is not k x m x ell = 2 x 3 x 2 numbers"),
    "fiber": (fileio.read_fibers, "fibers.json", _set_fiber, "fiber 1"),
}
# (what replaces the entry, the reason a reader that names the entry gives)
NON_NUMBERS = {
    "string": (repr, "could not convert string to float: '"),
    "null": (lambda x: None, "could not convert null to float"),
    "object": (lambda x: {"value": x}, "could not convert an object to float"),
    "nested": (lambda x: [x], "not a rectangular array of numbers"),
    "bool": (lambda x: True, "could not convert a bool to float: true"),
}


@pytest.mark.parametrize("non_number", NON_NUMBERS)
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_number_fields_reject_non_numbers(field, non_number, tmp_path):
    reader, golden, put, names = NUMBER_FIELDS[field]
    entry, reason = NON_NUMBERS[non_number]
    doc = json.loads((GOLDEN / golden).read_text())
    reader(GOLDEN / golden)
    put(doc, entry)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as caught:
        reader(path)
    message = str(caught.value)
    assert message.startswith(f"{path}: ") and names in message
    if field in ("measure", "f0", "fiber"):  # the error names the entry too
        assert reason in message


@pytest.mark.parametrize("field", ["f0", "basis", "fiber"])
def test_number_fields_reject_a_uniformly_deeper_list(field, tmp_path):
    reader, golden, _, names = NUMBER_FIELDS[field]
    doc = json.loads((GOLDEN / golden).read_text())
    key = {"f0": ("f0",), "basis": ("basis",), "fiber": ("fibers", "1")}[field]
    parent = doc if len(key) == 1 else doc[key[0]]
    parent[key[-1]] = [parent[key[-1]]]  # every entry one list deeper, the same size
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")) as caught:
        reader(path)
    assert names in str(caught.value)


def test_numbers_beyond_int64_read_as_floats(tmp_path):
    doc = json.loads((GOLDEN / "cascade.json").read_text())
    doc["leaf_mass"][0] = 10**30
    doc["leaf_mass"][1] = 2**64
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    mass = fileio.read_measure(path).leaf_mass
    assert mass.dtype == np.float64 and mass[0] == 1e30 and mass[1] == 2.0**64
    doc["leaf_mass"][0] = 10**400
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"{path}: could not convert an integer beyond the float range "
                                                   "in leaf_mass")):
        fileio.read_measure(path)


# ---------------------------------------------------------------- the streaming writer

# around where repr turns to exponent form: from 1e16 up and below 1e-4
BOUNDARIES = [1e16, np.nextafter(1e16, 0.0), 1e-4, np.nextafter(1e-4, 0.0), 1e-5, -1e16, -1e-5]


def sliced_documents(size):
    """Documents whose arrays end just before, at and just after a slice of
    ``size`` entries, or hold several slices, in each array shape a writer
    hands over."""
    rng = np.random.default_rng(size)
    special = np.array(SPECIAL + BOUNDARIES + [5e-324, -5e-324, 1e-310])
    docs = [{"leaf_mass": rng.random(n)} for n in (size - 1, size, size + 1)]
    docs.append({"leaf_mass": np.resize(special, 3 * size + 2)})
    docs.append({"leaf_mass": np.resize(special, (4 * size + 1, 2))})   # a vector measure
    docs.append({"nodes": np.arange(2 * size + 1), "values": np.resize(special, 6 * size + 3)})  # a martingale
    docs.append({"basis": np.resize(special, (size + 1, 3, 2)), "fibers": {"1": np.resize(special, (2, 1, 2))}})
    docs.append([np.resize(special, (2, size, 3)), {"a": np.array([-0.0])}, np.resize(special, (3, 1, 1, size))])
    return docs


@pytest.mark.parametrize("size", [1, 2, 7])
def test_sliced_arrays_match_json(size, monkeypatch, tmp_path):
    monkeypatch.setattr(fileio, "SLICE", size)
    path = tmp_path / "doc.json"
    for document in sliced_documents(size):
        fileio._dump(path, document)
        assert path.read_bytes() == (json.dumps(listed(document), indent=1) + "\n").encode()


def test_failed_write_leaves_no_file(tmp_path):
    # json.dumps refuses the second field, after the first is written
    document = {"kind": "tree-measure", "unwritable": object(), "leaf_mass": np.ones(3)}
    with pytest.raises(TypeError):
        fileio._dump(tmp_path / "new.json", document)
    assert list(tmp_path.iterdir()) == []
    old = tmp_path / "old.json"
    old.write_text("older bytes\n")
    with pytest.raises(TypeError):
        fileio._dump(old, document)
    assert list(tmp_path.iterdir()) == [old] and old.read_text() == "older bytes\n"


def test_failed_array_write_leaves_no_file(monkeypatch, tmp_path):
    # an error in the second slice of an array, after the first slice is written
    texts = fileio._texts
    calls = []

    def failing(values):
        calls.append(values.size)
        if len(calls) == 2:
            raise MemoryError("second slice")
        return texts(values)

    monkeypatch.setattr(fileio, "_texts", failing)
    monkeypatch.setattr(fileio, "SLICE", 5)
    with pytest.raises(MemoryError):
        fileio.write_measure(tmp_path / "mu.json", TreeMeasure(FiltrationSpec(3, 2, 1), np.full(9, 1 / 9)))
    assert calls == [5, 4] and list(tmp_path.iterdir()) == []


def test_writer_memory_is_one_slice_not_the_file(tmp_path):
    # a depth-10 multiplicative measure, the kind of measure the sharpness experiments write
    import tracemalloc

    from martree.filtration import martingale_to_measure

    G = oracles.multiplicative_martingale(FiltrationSpec(3, 10, 1), np.array([0.5, -0.25, -0.25]))
    mu = martingale_to_measure(G)
    path = tmp_path / "mu.json"
    fileio.write_measure(path, mu)  # imports and caches settle before the traced write
    tracemalloc.start()
    try:
        fileio.write_measure(path, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 1_000_000 and peak < size / 4
    assert fileio.read_measure(path).leaf_mass.tobytes() == mu.leaf_mass.tobytes()


def _nan_martingale(where):
    F = sparse_martingale(3, 3, 2, seed=4, kept=9)
    if where == "f0":
        F.f0[1] = NAN
    else:
        F.diffs[2][5, 1, 0] = NAN
    return F


def _nan_subspace():
    W = SubspaceW.random(3, 2, 2, seed=1)
    W.basis[1, 2, 0] = NAN
    return W


def _nan_fibers(value):
    fibers = FiberFamily(FiniteAbelianGroup.cyclic(5), 1, {1: np.array([[0.6 + 0.8j]]), 3: np.array([[1.0 + 0j]])})
    fibers.fibers[3][0, 0] = value
    return fibers


# (writer, what it is handed, the field the error names)
REFUSED = {
    "measure-nan": (fileio.write_measure, lambda: TreeMeasure(FiltrationSpec(3, 2, 1), np.append(np.ones(8), NAN)),
                    "leaf_mass holds a non-finite value"),
    "measure-inf": (fileio.write_measure, lambda: TreeMeasure(FiltrationSpec(3, 2, 2), np.full((9, 2), INF)),
                    "leaf_mass holds a non-finite value"),
    "martingale-f0": (fileio.write_martingale, lambda: _nan_martingale("f0"), "f0 holds a NaN"),
    "martingale-values": (fileio.write_martingale, lambda: _nan_martingale("values"), "values holds a NaN"),
    "subspace": (fileio.write_subspace, _nan_subspace, "basis holds a non-finite value"),
    "fibers-nan": (fileio.write_fibers, lambda: _nan_fibers(complex(1.0, NAN)), "fiber 3 holds a non-finite value"),
    "fibers-inf": (fileio.write_fibers, lambda: _nan_fibers(complex(INF, 0.0)), "fiber 3 holds a non-finite value"),
}


@pytest.mark.parametrize("case", REFUSED)
def test_writers_refuse_what_readers_refuse(case, tmp_path):
    writer, value, message = REFUSED[case]
    path = tmp_path / "x.json"
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        writer(path, value())
    assert list(tmp_path.iterdir()) == []  # not a byte written


# ---------------------------------------------------------------- the streaming reader

# number texts beyond a float's repr: exponent forms, integers (past int64 too) and signed zeros
TOKENS = ["1E5", "1e+5", "1e5", "2.5E-3", "-0.0", "-0", "0", "12", "-7", "9223372036854775808",
          "18446744073709551617", "123456789012345678901234567890", "4.9e-324", "1E-320"]
TEXTS = [repr(float(x)) for x in SPECIAL + BOUNDARIES + list(np.random.default_rng(5).random(9))] + TOKENS


def array_texts(entries):
    """A flat JSON list of these entry texts, laid out as json.dumps, compactly
    and as json.dumps(indent=1) lays out a field."""
    if not entries:
        return ["[]", "[ ]", "[\n ]"]
    return ["[" + ", ".join(entries) + "]", "[" + ",".join(entries) + "]", "[\n  " + ",\n  ".join(entries) + "\n ]"]


def as_json(path, field):
    """The oracle: json.load's numbers of ``field``, as float64."""
    return np.asarray(json.loads(Path(path).read_text())[field]).astype(float)


@pytest.mark.parametrize("size", [1, 2, 7])
def test_sliced_reads_match_json(size, monkeypatch, tmp_path):
    monkeypatch.setattr(fileio, "SLICE", size)
    path = tmp_path / "doc.json"
    for n in (size - 1, size, size + 1, 3 * size + 2, 45):
        for first in (0, 1, 5):
            entries = [TEXTS[(first + i) % len(TEXTS)] for i in range(n)]
            for text in array_texts(entries):
                path.write_text('{"kind": "martingale", "nested": {"values": [1, 2]}, "values": ' + text
                                + ', "after": [0.5, {"a": "]"}]}')
                doc = fileio._load(path, "martingale", (), flat="values")
                assert isinstance(doc["values"], np.ndarray) and doc["nested"] == {"values": [1, 2]}
                assert doc["values"].view(np.uint64).tolist() == as_json(path, "values").view(np.uint64).tolist()
                assert doc["after"] == [0.5, {"a": "]"}]


def _negated(text):
    return text[1:] if text.startswith("-") else "-" + text


def _blocks(entries):
    """Martingale values of one zero-sum block (x, -x, 0) per entry text x."""
    return [text for entry in entries for text in (entry, _negated(entry), "0")]


def reader_files(tmp_path, entry=None):
    """A scalar measure and a martingale holding TEXTS, as the writers lay them
    out and compactly, with ``entry`` as the measure's sixth mass and the
    martingale's second block's first value where given: (reader, path,
    field, where ``entry`` is, what the reader returns of the field)."""
    leaves = [TEXTS[i % len(TEXTS)] for i in range(27)]
    values = _blocks([TEXTS[(i + 7) % len(TEXTS)] for i in range(9)])
    if entry is not None:  # the second block (entry, 0, 0) sums to +-inf, which the martingale check lets pass
        leaves[5], values[3:6] = entry, [entry, "0", "0"]
    cases = []
    for i, text in enumerate(array_texts(leaves)):
        path = tmp_path / f"mu{i}.json"
        path.write_text(f'{{"kind": "tree-measure", "m": 3, "depth": 3, "ell": 1, "scalar": true, "leaf_mass": {text}}}')
        cases.append((fileio.read_measure, path, "leaf_mass", 5, lambda mu: mu.leaf_mass))
    nodes = [0, 1, 2, 3, 5, 8, 9, 11, 12]
    for i, text in enumerate(array_texts(values)):
        path = tmp_path / f"f{i}.json"
        path.write_text(f'{{"kind": "martingale", "m": 3, "depth": 3, "ell": 1, "f0": [1E5], "nodes": {nodes}, '
                        f'"values": {text}}}')
        kept = lambda F: np.concatenate([d.reshape(-1, 3) for d in F.diffs])[nodes].ravel()  # noqa: E731
        cases.append((fileio.read_martingale, path, "values", 3, kept))
    return cases


@pytest.mark.parametrize("size", [1, 2, 7, fileio.SLICE])
def test_readers_match_json(size, monkeypatch, tmp_path):
    monkeypatch.setattr(fileio, "SLICE", size)
    for reader, path, field, _, numbers in reader_files(tmp_path):
        got = numbers(reader(path))
        assert got.view(np.uint64).tolist() == as_json(path, field).view(np.uint64).tolist()
    written = tmp_path / "written.json"
    mu = TreeMeasure(FiltrationSpec(3, 4, 1), np.resize(np.array(SPECIAL + BOUNDARIES), 81))
    fileio.write_measure(written, mu)
    assert fileio.read_measure(written).leaf_mass.tobytes() == mu.leaf_mass.tobytes()


BEYOND_FLOATS = "1" + "0" * 400  # an integer beyond the float range


@pytest.mark.parametrize("entry, measure_error, martingale_error", [
    (BEYOND_FLOATS, "could not convert an integer beyond the float range in leaf_mass",
     "could not convert an integer beyond the float range in values"),
    ("NaN", "NaN is not a number", "NaN is not a number"),
    ("Infinity", "leaf_mass holds a non-finite value", None),  # a martingale reads an infinity
    ("-Infinity", "leaf_mass holds a non-finite value", None),
], ids=["beyond-floats", "nan", "infinity", "minus-infinity"])
def test_sliced_reads_refuse_as_json_reads(entry, measure_error, martingale_error, monkeypatch, tmp_path):
    monkeypatch.setattr(fileio, "SLICE", 2)
    for reader, path, field, where, numbers in reader_files(tmp_path, entry):
        error = measure_error if field == "leaf_mass" else martingale_error
        if error is None:
            assert numbers(reader(path))[where] == as_json(path, field)[where] == float(entry)
        else:
            with pytest.raises(ValueError, match=re.escape(f"{path}: {error}")):
                reader(path)


def test_empty_vector_and_repeated_fields_read_as_json(tmp_path):
    path = tmp_path / "doc.json"
    for empty in array_texts([]):  # a martingale of no kept block
        path.write_text(f'{{"kind": "martingale", "m": 3, "depth": 2, "ell": 1, "f0": [0.5], "nodes": [], '
                        f'"values": {empty}}}')
        F = fileio.read_martingale(path)
        assert F.f0.tolist() == [0.5] and not any(d.any() for d in F.diffs)
    vector = np.resize(np.array(SPECIAL), (9, 2))  # a list of lists, read whole
    fileio.write_measure(path, TreeMeasure(FiltrationSpec(3, 2, 2), vector))
    assert fileio.read_measure(path).leaf_mass.tobytes() == vector.tobytes() == as_json(path, "leaf_mass").tobytes()
    head = '{"kind": "tree-measure", "m": 3, "depth": 1, "ell": 1'
    for first, last in (("[1, 2, 3]", "[0.5, 0.25, 0.25]"), ('"masses"', "[0.5, 0.25, 0.25]"),
                        ("[1, 2, 3]", "[[0.5], [0.25], [0.25]]")):
        path.write_text(f'{head}, "leaf_mass": {first}, "scalar": true, "leaf_mass": {last}}}')  # the last one wins
        got = fileio.read_measure(path).leaf_mass
        assert got.tobytes() == as_json(path, "leaf_mass").tobytes()


@pytest.mark.parametrize("text", [
    "[1,,2]", "[1,]", "[,1]", "[1 2]", "[1, 2", "[1, 2]]", "[1, -]", "[01]", "[1.]", "[.5]", "[1, 2] x", "[-NaN]",
    "[1, 2], 3", "[0.5, 0.25,, 0.25]", "[0.5, 0.25, 0.25, ]", "[0.5 , , 0.25, 0.25]",
])
@pytest.mark.parametrize("size", [1, 2, fileio.SLICE])
def test_malformed_arrays_fail_as_json_fails(text, size, monkeypatch, tmp_path):
    monkeypatch.setattr(fileio, "SLICE", size)  # a slice may end at the fault
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "tree-measure", "m": 3, "depth": 1, "ell": 1, "leaf_mass": ' + text + "}")
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(path.read_text())
    with pytest.raises(json.JSONDecodeError) as caught:
        fileio.read_measure(path)
    assert str(caught.value) == str(expected.value)


@pytest.mark.parametrize("v", [[1.0, -1.0, 0.0], [0.5, -0.25, -0.25]], ids=["sharpness", "dense"])
def test_reader_memory_is_the_text_and_the_array(v, tmp_path):
    # depth-10 product measures: the span sharpness measure the Frostman certificates read (a
    # few characters a mass) and one of distinct masses (about 21 characters each).  Decoding
    # holds the file's bytes and its text, parsing the text, the array and one slice; the
    # half array covers the slice and the finiteness mask.  For the sharpness measure the
    # bound is the file size plus 1.5 times the array's bytes.
    import tracemalloc

    from martree.dimension import multiplicative_measure

    mu = multiplicative_measure(FiltrationSpec(3, 10, 1), np.array(v)).measure
    path = tmp_path / "mu.json"
    fileio.write_measure(path, mu)
    fileio.read_measure(path)  # imports and caches settle before the traced read
    tracemalloc.start()
    try:
        read = fileio.read_measure(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size, array = path.stat().st_size, mu.leaf_mass.nbytes
    assert read.leaf_mass.tobytes() == mu.leaf_mass.tobytes()
    assert peak < max(2 * size, size + array) + array / 2
    assert (2 * size < size + array) == (v == [1.0, -1.0, 0.0])
