"""CLI surface: subcommands, file formats, exit codes, byte reproducibility."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from martree import cli
from martree.cli import main
from martree.fileio import (
    read_fibers,
    read_martingale,
    read_measure,
    read_subspace,
    write_fibers,
    write_martingale,
    write_measure,
    write_subspace,
)
from martree.filtration import FiltrationSpec, Martingale, TreeMeasure
from martree.groupfourier import FiberFamily, FiniteAbelianGroup
from martree.spacew import SubspaceW, delta_vector
import oracles
from tests.test_filtration import random_martingale

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def w_file(tmp_path):
    path = tmp_path / "w.json"
    W = SubspaceW.from_blocks([delta_vector(3)[:, None]], 3, 1)
    write_subspace(path, W)
    return str(path)


@pytest.fixture
def martingale_file(tmp_path):
    spec = FiltrationSpec(3, 4, 2)
    F = random_martingale(spec, seed=3)
    path = tmp_path / "f.json"
    write_martingale(path, F)
    return str(path)


class TestFileRoundtrips:
    def test_measure(self, tmp_path):
        spec = FiltrationSpec(3, 3, 1)
        rng = np.random.default_rng(0)
        mu = TreeMeasure(spec, rng.random(27))
        path = tmp_path / "mu.json"
        write_measure(path, mu)
        back = read_measure(path)
        assert np.array_equal(back.leaf_mass, mu.leaf_mass)
        assert back.spec == spec

    def test_martingale(self, tmp_path):
        spec = FiltrationSpec(3, 3, 2)
        F = random_martingale(spec, seed=1)
        path = tmp_path / "f.json"
        write_martingale(path, F)
        back = read_martingale(path)
        assert np.array_equal(back.f0, F.f0)
        for a, b in zip(back.diffs, F.diffs):
            assert np.array_equal(a, b)

    def test_subspace(self, tmp_path):
        W = SubspaceW.random(3, 2, 2, seed=5)
        path = tmp_path / "w.json"
        write_subspace(path, W)
        back = read_subspace(path)
        assert np.array_equal(back.basis, W.basis)

    def test_fibers(self, tmp_path):
        G = FiniteAbelianGroup.cyclic(3)
        rng = np.random.default_rng(2)
        vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vec /= np.linalg.norm(vec)
        fibers = FiberFamily(G, 2, {1: vec[None, :], 2: np.zeros((0, 2), dtype=complex)})
        path = tmp_path / "fibers.json"
        write_fibers(path, fibers)
        back = read_fibers(path)
        assert np.allclose(back.fibers[1], fibers.fibers[1])
        assert back.fibers[2].shape == (0, 2)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"kind": "nonsense"}))
        with pytest.raises(ValueError):
            read_measure(path)


def _write_sample(kind, path):
    """A small valid file of each on-disk kind."""
    if kind == "tree-measure":
        write_measure(path, TreeMeasure(FiltrationSpec(3, 2, 1), np.full(9, 1 / 9)))
    elif kind == "martingale":
        write_martingale(path, random_martingale(FiltrationSpec(3, 2, 1), seed=0))
    elif kind == "subspace-w":
        write_subspace(path, SubspaceW.random(3, 1, 1, seed=0))
    else:
        G = FiniteAbelianGroup.cyclic(3)
        write_fibers(path, FiberFamily(G, 1, {1: np.ones((1, 1), dtype=complex), 2: np.zeros((0, 1))}))


READERS = [
    (read_measure, "tree-measure", ["m", "depth", "ell", "leaf_mass"]),
    (read_martingale, "martingale", ["m", "depth", "ell", "f0", "nodes", "values"]),
    (read_subspace, "subspace-w", ["m", "ell", "k", "basis"]),
    (read_fibers, "fiber-family", ["factors", "ell", "fibers"]),
]
# (reader, kind, field) for each header field that sizes a file's arrays
SIZE_FIELDS = [(r, kind, f) for r, kind, fields in READERS for f in fields if f in ("m", "depth", "ell", "k")]


class TestMalformedFiles:
    @pytest.mark.parametrize("reader, kind, fields", READERS, ids=[r[1] for r in READERS])
    def test_missing_field_names_file_and_field(self, reader, kind, fields, tmp_path):
        path = tmp_path / "x.json"
        _write_sample(kind, path)
        reader(path)
        for field in fields:
            doc = json.loads(path.read_text())
            del doc[field]
            broken = tmp_path / f"no_{field}.json"
            broken.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=f"no_{field}.json.*'{field}'"):
                reader(broken)

    @pytest.mark.parametrize("reader, kind, fields", READERS, ids=[r[1] for r in READERS])
    def test_top_level_list_is_value_error(self, reader, kind, fields, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps([kind]))
        with pytest.raises(ValueError, match="x.json.*JSON object, got list"):
            reader(path)

    def test_martingale_block_without_values(self, tmp_path):
        path = tmp_path / "f.json"
        doc = json.loads((GOLDEN / "martingale.json").read_text())  # the block layout
        del doc["blocks"][0]["values"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="f.json.*blocks entry lacks the field 'values'"):
            read_martingale(path)

    @pytest.mark.parametrize("reader, kind, fields", READERS, ids=[r[1] for r in READERS])
    def test_nan_names_file(self, reader, kind, fields, tmp_path):
        path = tmp_path / "x.json"
        _write_sample(kind, path)
        doc = json.loads(path.read_text())
        numbers = {"tree-measure": "leaf_mass", "martingale": "f0", "subspace-w": "basis",
                   "fiber-family": "fibers"}[kind]
        doc[numbers] = {"1": [[[float("nan"), 0.0]]]} if kind == "fiber-family" else [float("nan")]
        broken = tmp_path / "nan.json"
        broken.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="nan.json: NaN is not a number"):
            reader(broken)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinite_leaf_mass_names_file(self, value, tmp_path):
        doc = json.loads((Path(__file__).parent / "golden" / "cascade.json").read_text())
        doc["leaf_mass"][5] = value
        broken = tmp_path / "inf.json"
        broken.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="inf.json: leaf_mass holds a non-finite value"):
            read_measure(broken)

    @pytest.mark.parametrize("kind", ["frostman", "trace-constant"])
    def test_infinite_leaf_mass_exits_two(self, kind, tmp_path, capsys):
        doc = json.loads((Path(__file__).parent / "golden" / "cascade.json").read_text())
        doc["leaf_mass"][0] = float("inf")
        broken = tmp_path / "inf.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["--out", str(out), kind, "--measure", str(broken)]) == 2
        err = capsys.readouterr().err
        assert "inf.json: leaf_mass holds a non-finite value" in err and err.count("\n") == 1
        assert not out.exists()

    def test_bool_leaf_mass_exits_two(self, tmp_path, capsys):
        # true passes for a number to numpy, and used to read as a mass of 1
        doc = json.loads((Path(__file__).parent / "golden" / "cascade.json").read_text())
        doc["leaf_mass"][0] = True
        broken = tmp_path / "bool.json"
        broken.write_text(json.dumps(doc, indent=1))
        out = tmp_path / "out"
        assert main(["--out", str(out), "frostman", "--measure", str(broken)]) == 2
        err = capsys.readouterr().err
        assert "bool.json: could not convert a bool to float: true in leaf_mass" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["check-w", "kappa"])
    def test_infinite_basis_exits_two_naming_file(self, kind, tmp_path, capsys):
        # inf - inf is NaN, which no tolerance comparison of SubspaceW used to catch
        broken = tmp_path / "inf.json"
        broken.write_text('{"kind":"subspace-w","m":3,"ell":2,"k":2,"basis":[[[Infinity,0.0],[-Infinity,0.0],'
                          '[0.0,0.0]],[[0.0,0.5],[0.0,-0.5],[0.0,0.0]]]}')
        with pytest.raises(ValueError, match="inf.json: basis holds a non-finite value"):
            read_subspace(broken)
        out = tmp_path / "out"
        assert main(["--out", str(out), kind, "--w", str(broken)]) == 2
        err = capsys.readouterr().err
        assert "inf.json: basis holds a non-finite value" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["group-cancel", "group-antisym", "group-subgroup-bound"])
    def test_infinite_fiber_exits_two_naming_file(self, kind, tmp_path, capsys):
        broken = tmp_path / "inf.json"
        broken.write_text('{"kind":"fiber-family","factors":[3],"ell":1,"fibers":{"1":[[[Infinity,0.0]]],"2":[]}}')
        with pytest.raises(ValueError, match="inf.json: fiber 1 holds a non-finite value"):
            read_fibers(broken)
        out = tmp_path / "out"
        assert main(["--out", str(out), kind, "--fibers", str(broken)]) == 2
        err = capsys.readouterr().err
        assert "inf.json: fiber 1 holds a non-finite value" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("rows", [[[[0.5], [0.5]]], [[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]], [[0.5]], 0.5],
                             ids=["one-number", "three-numbers", "flat", "a-number"])
    def test_fiber_entries_must_be_pairs(self, rows, tmp_path, capsys):
        doc = json.loads((GOLDEN / "fibers.json").read_text())  # ell 2
        doc["fibers"]["1"] = rows
        broken = tmp_path / "bad.json"
        broken.write_text(json.dumps(doc))
        message = "bad.json: fiber 1 holds entries that are not [re, im] pairs"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_fibers(broken)
        assert main(["--out", str(tmp_path / "out"), "group-cancel", "--fibers", str(broken)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    def test_check_w_without_k_exits_two(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        _write_sample("subspace-w", path)
        doc = json.loads(path.read_text())
        del doc["k"]
        path.write_text(json.dumps(doc))
        assert main(["--out", str(tmp_path / "out"), "check-w", "--w", str(path)]) == 2
        assert "'k'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [10.0, "10", True, None], ids=["float", "string", "bool", "null"])
    @pytest.mark.parametrize("reader, kind, field", SIZE_FIELDS, ids=[f"{k}-{f}" for _, k, f in SIZE_FIELDS])
    def test_size_field_must_be_an_int(self, reader, kind, field, value, tmp_path):
        path = tmp_path / "x.json"
        _write_sample(kind, path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"x.json: the {kind} file's {field!r} is {value!r}, "
                                                       "not an integer")):
            reader(path)

    @pytest.mark.parametrize("value", [[4.0], [4, "2"], [True], 4, "4", None],
                             ids=["float", "string", "bool", "not-a-list", "string-not-a-list", "null"])
    def test_fiber_factors_must_be_ints(self, value, tmp_path, capsys):
        doc = json.loads((GOLDEN / "fibers.json").read_text())
        doc["factors"] = value
        broken = tmp_path / "bad.json"
        broken.write_text(json.dumps(doc))
        message = f"bad.json: the fiber-family file's 'factors' is {value!r}, not a list of integers"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_fibers(broken)
        assert main(["--out", str(tmp_path / "out"), "group-cancel", "--fibers", str(broken)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv, golden, field, value", [
        (["frostman", "--measure"], "span_measure.json", "depth", 6.0),
        (["norm", "--name", "lp", "--p", "2", "--martingale"], "martingale.json", "m", 3.0),
        (["check-w", "--w"], "w_random.json", "ell", 2.0),
    ], ids=["frostman-depth", "norm-m", "check-w-ell"])
    def test_float_size_field_exits_two_naming_file(self, argv, golden, field, value, tmp_path, capsys):
        doc = json.loads((GOLDEN / golden).read_text())
        doc[field] = value
        broken = tmp_path / "float.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["--out", str(out), *argv, str(broken)]) == 2
        err = capsys.readouterr().err
        assert f"float.json: the {doc['kind']} file's {field!r} is {value!r}, not an integer" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("change", [{"m": 4}, {"k": 3}, {"k": -2}, {"basis": [[[0.0, 0.0]], [[0.0]]]}],
                             ids=["m", "k", "k-negative", "ragged"])
    def test_subspace_basis_must_match_its_header(self, change, tmp_path, capsys):
        doc = json.loads((GOLDEN / "w_random.json").read_text())  # m 3, ell 2, k 2
        doc.update(change)
        broken = tmp_path / "w.json"
        broken.write_text(json.dumps(doc))
        shape = " x ".join(str(doc[f]) for f in ("k", "m", "ell"))
        message = f"w.json: the basis is not k x m x ell = {shape} numbers"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_subspace(broken)
        assert main(["--out", str(tmp_path / "out"), "check-w", "--w", str(broken)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("change, message", [
        ({"level": -1}, "(level -1, atom 0) names no atom"),
        ({"atom": True}, "(level 1, atom True) names no atom"),
        ({"atom": 9}, "(level 1, atom 9) names no atom"),
        ({"level": 1.0}, "(level 1.0, atom 0) names no atom"),
        ({"level": 0}, "(level 0, atom 0) repeats an earlier entry"),
    ], ids=["level-negative", "atom-bool", "atom-out-of-range", "level-float", "repeated"])
    def test_bad_martingale_block_exits_two_naming_file(self, change, message, tmp_path, capsys):
        doc = json.loads((Path(__file__).parent / "golden" / "martingale.json").read_text())
        doc["blocks"][1].update(change)  # the entry of level 1, atom 0
        broken = tmp_path / "bad.json"
        broken.write_text(json.dumps(doc))
        assert main(["norm", "--martingale", str(broken), "--name", "lp", "--p", "2"]) == 2
        err = capsys.readouterr().err
        assert f"bad.json: blocks entry {message}" in err and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["9", "4", "0", "01", "1.5", "-1", " 1", ""],
                             ids=["beyond", "order", "zero", "leading-zero", "fraction", "negative", "space", "empty"])
    def test_fiber_key_must_name_a_character(self, key, tmp_path, capsys):
        doc = json.loads((GOLDEN / "fibers.json").read_text())  # Z_4, keys "1" to "3"
        doc["fibers"][key] = []
        broken = tmp_path / "bad.json"
        broken.write_text(json.dumps(doc))
        message = f"bad.json: fiber key {key!r} names no character of the group"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_fibers(broken)
        assert main(["--out", str(tmp_path / "out"), "group-cancel", "--fibers", str(broken)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("change, message", [
        ({"m": 2}, "branching factor must be >= 3, got 2"),
        ({"depth": 7}, "leaf_mass shape (729,) does not match 2187 leaves"),
        ({"ell": 0}, "value dimension must be >= 1, got 0"),
        ({"leaf_mass": "heavy"}, "could not convert string to float"),
    ], ids=["m", "depth", "ell", "leaf-mass-text"])
    def test_measure_checks_name_the_file(self, change, message, tmp_path, monkeypatch, capsys):
        doc = json.loads((GOLDEN / "cascade.json").read_text())  # m 3, depth 6, ell 1
        doc.update(change)
        monkeypatch.chdir(tmp_path)
        Path("bad.json").write_text(json.dumps(doc))
        Path("frostman.json").write_text(json.dumps({"kind": "frostman", "measure_file": "bad.json",
                                                     "out": "out", "params": {"beta": 0.5}}))
        assert main(["run", "frostman.json"]) == 2
        err = capsys.readouterr().err
        assert f"bad.json: {message}" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_frostman_on_string_masses_exits_two(self, tmp_path, capsys):
        # numpy would parse the strings, and the measure used to certify
        doc = json.loads((GOLDEN / "cascade.json").read_text())
        doc["leaf_mass"] = [repr(mass) for mass in doc["leaf_mass"]]
        broken = tmp_path / "text.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["--out", str(out), "frostman", "--measure", str(broken), "--beta", "0.5"]) == 2
        err = capsys.readouterr().err
        assert f"text.json: could not convert string to float: {doc['leaf_mass'][0]!r} in leaf_mass" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_decompose_on_null_block_entry_exits_two(self, tmp_path, capsys):
        # numpy would read null as NaN, and decompose used to write increment_sum,nan
        doc = json.loads((GOLDEN / "martingale.json").read_text())
        doc["blocks"][3]["values"][1][0] = None
        broken = tmp_path / "null.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["--out", str(out), "decompose", "--martingale", str(broken)]) == 2
        err = capsys.readouterr().err
        assert "null.json: the values of a blocks entry are not 3 x 2 numbers" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("golden, change, message", [
        ("martingale.json", {"blocks": None}, "the martingale file's 'blocks' is None, not a list"),
        ("martingale.json", {"blocks": 5}, "the martingale file's 'blocks' is 5, not a list"),
        ("martingale_columnar.json", {"nodes": {}}, "the martingale file's 'nodes' is {}, not a list"),
        ("martingale_columnar.json", {"values": None}, "the martingale file's 'values' is None, not a list"),
        ("martingale_columnar.json", {"values": 0.5}, "the martingale file's 'values' is 0.5, not a list"),
        ("fibers.json", {"fibers": None}, "the fiber-family file's 'fibers' is None, not an object"),
        ("fibers.json", {"fibers": []}, "the fiber-family file's 'fibers' is [], not an object"),
        ("fibers.json", {"ell": -1}, "the fiber-family file's 'ell' is -1, want at least 1"),
        ("fibers.json", {"ell": 0}, "the fiber-family file's 'ell' is 0, want at least 1"),
    ], ids=["blocks-null", "blocks-number", "nodes-object", "values-null", "values-number",
            "fibers-null", "fibers-list", "fibers-ell-negative", "fibers-ell-zero"])
    def test_wrongly_typed_field_exits_two_writing_nothing(self, golden, change, message, tmp_path, capsys):
        # these used to escape as a TypeError, an AttributeError or a message naming no file
        doc = json.loads((GOLDEN / golden).read_text())
        doc.update(change)
        broken = tmp_path / "bad.json"
        broken.write_text(json.dumps(doc))
        reader, argv = ((read_fibers, ["group-cancel", "--fibers"]) if golden == "fibers.json"
                        else (read_martingale, ["decompose", "--martingale"]))
        with pytest.raises(ValueError, match=re.escape(f"bad.json: {message}")):
            reader(broken)
        out = tmp_path / "out"
        assert main(["--out", str(out), *argv, str(broken)]) == 2
        err = capsys.readouterr().err
        assert f"bad.json: {message}" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("reader, golden, change, message", [
        (read_martingale, "martingale.json", {"m": 2}, "branching factor must be >= 3, got 2"),
        (read_martingale, "martingale.json", {"f0": [0.0]}, "cannot reshape array of size 1 into shape (2,)"),
        (read_subspace, "w_random.json", {"m": 2, "k": 3}, "basis blocks leave V^ell"),
    ], ids=["martingale-m", "martingale-f0", "subspace-blocks"])
    def test_martingale_and_subspace_checks_name_the_file(self, reader, golden, change, message, tmp_path):
        doc = json.loads((GOLDEN / golden).read_text())
        doc.update(change)
        broken = tmp_path / "bad.json"
        broken.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"bad.json: {message}")):
            reader(broken)


class TestSubcommands:
    def test_gen_w_and_check_w(self, tmp_path, capsys):
        w_path = tmp_path / "w.json"
        assert main(["gen-w", "--kind", "delta", "--m", "3", "--ell", "1", "--w", str(w_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["--out", str(out), "check-w", "--w", str(w_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["second_condition"] is False
        assert json.loads((out / "check_w.json").read_text()) == report

    def test_norm_prints_value(self, martingale_file, capsys):
        assert main(["norm", "--martingale", martingale_file, "--name", "lp", "--p", "2"]) == 0
        value = float(capsys.readouterr().out.strip())
        F = read_martingale(martingale_file)
        from martree.norms import lp_norm

        assert value == pytest.approx(lp_norm(*oracles.level(F, 4), 2.0), rel=1e-15)

    def test_kappa_writes_csv(self, w_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), "kappa", "--w", w_file, "--grid", "5"]) == 0
        text = (out / "kappa.csv").read_text()
        assert text.startswith("# martree=")
        assert "theta,kappa" in text
        assert "dimension_bound=0" in capsys.readouterr().out

    def test_embed_delta(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["--out", str(out), "delta-counterexample", "--p", "2", "--m", "3",
             "--depths", "4", "9"]
        )
        assert code == 0
        assert "verdict=GROWING" in capsys.readouterr().out

    def test_decompose(self, martingale_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), "decompose", "--martingale", martingale_file, "--eps", "0.1"]) == 0
        forest = json.loads((out / "forest.json").read_text())
        assert "labels_rle" in forest
        assert (out / "decompose.csv").exists()

    @pytest.mark.parametrize("case, eps, n_trees", [("random", 0.1, 11), ("all-convex", 1.0, 0)])
    def test_forest_json_is_the_json_text_of_its_document(self, case, eps, n_trees, tmp_path, capsys):
        # the trees list is rendered from count arrays; json itself must give the same bytes
        spec = FiltrationSpec(3, 4, 2)
        if case == "random":
            F = random_martingale(spec, seed=3)
        else:  # blocks (2, -1, -1) scaled by 10^n: every atom is convex at eps 1
            block = np.array([[2.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
            F = Martingale(spec, np.zeros(2), [10.0**n * np.tile(block, (3**n, 1, 1)) for n in range(4)])
        write_martingale(tmp_path / "f.json", F)
        out = tmp_path / "out"
        assert main(["--out", str(out), "decompose", "--martingale", str(tmp_path / "f.json"), "--eps", str(eps)]) == 0
        text = (out / "forest.json").read_text()
        doc = json.loads(text)
        assert doc["n_trees"] == len(doc["trees"]) == n_trees
        assert cli._json_text(doc) == text

    def test_forest_json_labels_of_eleven_levels(self, tmp_path, capsys):
        # json sorts the level keys as text: "10" comes between "1" and "2"
        write_martingale(tmp_path / "f.json", random_martingale(FiltrationSpec(3, 11, 1), seed=3))
        out = tmp_path / "out"
        assert main(["--out", str(out), "decompose", "--martingale", str(tmp_path / "f.json"), "--eps", "0.1"]) == 0
        text = (out / "forest.json").read_text()
        doc = json.loads(text)
        assert list(doc["labels_rle"])[:3] == ["0", "1", "10"]
        assert cli._json_text(doc) == text

    def test_rle_matches_the_loop(self):
        rng = np.random.default_rng(11)
        masks = [np.zeros(0, dtype=bool), np.ones(1, dtype=bool), np.zeros(5, dtype=bool)]
        masks += [rng.random(size) < share for size in (2, 7, 100, 3**8) for share in (0.05, 0.5, 0.95)]
        for mask in masks:
            runs = cli._rle(mask)
            assert runs == oracles.rle(mask)
            assert all(type(x) is int for run in runs for x in run)

    def test_dimension_frostman(self, tmp_path, capsys):
        spec = FiltrationSpec(3, 6, 1)
        mu = TreeMeasure(spec, np.full(spec.leaves, 1 / spec.leaves))
        mu_path = tmp_path / "mu.json"
        write_measure(mu_path, mu)
        out = tmp_path / "out"
        code = main(
            ["--out", str(out), "frostman", "--measure", str(mu_path), "--beta", "0.9",
             "--gamma", "0.5"]
        )
        assert code == 0
        assert "verdict=CERTIFIED" in capsys.readouterr().out

    def test_dimension_sharpness(self, w_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["--out", str(out), "dimension-sharpness", "--w", w_file, "--depth", "6"])
        assert code == 0
        assert (out / "sharpness_measure.json").exists()

    def test_group_actions(self, tmp_path, capsys):
        G = FiniteAbelianGroup.cyclic(3)
        a = np.array([1.0 + 0j, 0.0])
        fibers = FiberFamily(G, 2, {1: a[None, :], 2: a[None, :]})
        path = tmp_path / "fibers.json"
        write_fibers(path, fibers)
        out = ["--out", str(tmp_path / "out")]
        assert main([*out, "group-cancel", "--fibers", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cancellation"] is False
        assert main([*out, "group-antisym", "--fibers", str(path)]) == 0
        assert main([*out, "group-subgroup-bound", "--fibers", str(path)]) == 0
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == ["group_check_antisym.json", "group_check_cancel.json", "group_subgroup_bound.json"]

    def test_trace_sharpness(self, w_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["--out", str(out), "trace-sharpness", "--w", w_file, "--gamma", "0.4",
             "--depth", "8", "--depths", "4", "8"]
        )
        assert code == 0
        assert (out / "trace_sharpness.csv").exists()

    def test_cascade_and_trace_embed(self, tmp_path, capsys):
        nu_path = tmp_path / "nu.json"
        assert main(["cascade", "--m", "3", "--depth", "7", "--alpha", "0.9", "--p", "1",
                     "--measure", str(nu_path)]) == 0
        w_path = tmp_path / "w.json"
        assert main(["gen-w", "--kind", "span", "--m", "3", "--ell", "1", "--w", str(w_path)]) == 0
        out = tmp_path / "out"
        code = main(
            ["--out", str(out), "trace-embed-l1", "--measure", str(nu_path), "--w", str(w_path),
             "--alpha", "0.9", "--trials", "3", "--depths", "4", "7"]
        )
        assert code == 0
        assert (out / "trace_embed_l1.csv").exists()

    def test_trace_embed_p_and_constant(self, tmp_path, capsys):
        nu_path = tmp_path / "nu.json"
        assert main(["cascade", "--m", "3", "--depth", "7", "--alpha", "0.7", "--p", "2",
                     "--measure", str(nu_path)]) == 0
        capsys.readouterr()
        assert main(["trace-constant", "--measure", str(nu_path), "--alpha", "0.7", "--p", "2"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value <= 1.0 + 1e-9
        w_path = tmp_path / "w.json"
        main(["gen-w", "--kind", "random", "--m", "3", "--ell", "2", "--dim", "2", "--w", str(w_path)])
        out = tmp_path / "out"
        code = main(
            ["--out", str(out), "trace-embed-p", "--measure", str(nu_path), "--w", str(w_path),
             "--alpha", "0.7", "--p", "2", "--trials", "3", "--depths", "4", "7"]
        )
        assert code == 0
        assert (out / "trace_embed_p.csv").exists()

    def test_norm_lpnu(self, martingale_file, tmp_path, capsys):
        spec = FiltrationSpec(3, 4, 1)
        nu = TreeMeasure(spec, np.full(spec.leaves, 1.0 / spec.leaves))
        nu_path = tmp_path / "nu.json"
        write_measure(nu_path, nu)
        assert main(["norm", "--martingale", martingale_file, "--name", "lpnu", "--p", "2",
                     "--measure", str(nu_path)]) == 0
        value = float(capsys.readouterr().out.strip())
        F = read_martingale(martingale_file)
        from martree.norms import lp_norm

        assert value == pytest.approx(lp_norm(*oracles.level(F, 4), 2.0), rel=1e-12)

    def test_norm_lpnu_refuses_another_branching(self, martingale_file, tmp_path, capsys):
        # the 81 atoms of F_4 on the ternary tree are as many as the leaves of a depth-2 tree with m = 9
        nu_path = tmp_path / "nu.json"
        write_measure(nu_path, TreeMeasure(FiltrationSpec(9, 2, 1), np.full(81, 1.0 / 81)))
        assert main(["norm", "--martingale", martingale_file, "--name", "lpnu", "--p", "2",
                     "--measure", str(nu_path)]) == 2
        assert "the measure's tree branches 9 ways, the martingale's 3" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_file_is_config_error(self, capsys):
        assert main(["check-w", "--w", "/nonexistent/w.json"]) == 2

    def test_numeric_failure_is_exit_three(self, tmp_path, capsys):
        # a martingale file carrying an infinity drives the norm to a
        # non-finite value, which is a numeric failure, not a config error
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "martingale",
                    "m": 3,
                    "depth": 1,
                    "ell": 1,
                    "f0": [float("inf")],
                    "blocks": [],
                }
            )
        )
        assert main(["norm", "--martingale", str(path), "--name", "lp", "--p", "2"]) == 3

    def test_linalg_error_is_exit_three(self, martingale_file, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, yet it is a numeric failure
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli.decomp, "verify_stepwise_identity", singular)
        assert main(["--out", str(tmp_path), "decompose", "--martingale", martingale_file]) == 3
        assert "numeric failure: Singular matrix" in capsys.readouterr().err

    def test_negative_sharpness_masses_are_exit_three(self, w_file, tmp_path, monkeypatch, capsys):
        class NegativeLeaf(cli.trace.Product):  # G's last level moved, within its block, so that nu's first leaf is < 0
            def levels(self, depth, scale=None):
                for n, level in enumerate(super().levels(depth, scale), start=1):
                    if n == depth:
                        level[0, :, 0] += [-1e6, 1e6] + [0.0] * (self.m - 2)
                    yield level

        monkeypatch.setattr(cli.trace, "Product", NegativeLeaf)
        argv = ["--out", str(tmp_path), "trace-sharpness", "--w", w_file, "--gamma", "0.4", "--depth", "4"]
        assert main(argv) == 3
        assert "numeric failure: construction produced genuinely negative masses" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind, flags", [
        ("delta-counterexample", ["--p", "2"]),
        ("hls", ["--p", "1.5", "--q", "3", "--trials", "1"]),
        ("main-inequality", ["--w", "{w}", "--trials", "1"]),
        ("trace-embed-p", ["--measure", "{nu}", "--w", "{w}", "--p", "2", "--trials", "1"]),
        ("trace-embed-l1", ["--measure", "{nu}", "--w", "{w}", "--trials", "1"]),
    ])
    @pytest.mark.parametrize("depths", [["--depth", "4"], ["--depth", "5", "--depths", "5", "5"]])
    def test_one_depth_is_exit_two_writing_nothing(self, w_file, tmp_path, capsys, kind, flags, depths):
        # the trend of every ratio experiment needs two depths; one used to give predicted_rate=nan and exit 0
        nu = tmp_path / "nu.json"
        write_measure(nu, TreeMeasure(FiltrationSpec(3, 6, 1), np.full(3**6, 3.0**-6)))
        out = tmp_path / "out"
        argv = ["--out", str(out), kind, *(flag.format(w=w_file, nu=nu) for flag in flags), *depths]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: a trend needs at least two distinct depths, got [")
        assert not out.exists()

    def test_bad_norm_parameters(self, martingale_file, capsys):
        assert main(["norm", "--martingale", martingale_file, "--name", "lorentz", "--p", "1.0"]) == 2

    @pytest.mark.parametrize("eps", ["0", "nan", "inf"])
    def test_decompose_rejects_bad_eps(self, martingale_file, tmp_path, capsys, eps):
        assert main(["--out", str(tmp_path), "decompose", "--martingale", martingale_file, "--eps", eps]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_unknown_config_kind(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "does-not-exist"}))
        assert main(["run", str(cfg)]) == 2

    def test_config_schema_violation(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "kappa", "bogus_field": 1}))
        assert main(["run", str(cfg)]) == 2

    def test_missing_config_file(self, capsys):
        assert main(["run", "/nonexistent/cfg.json"]) == 2

    @pytest.fixture(params=["jsonschema", "fallback"])
    def validator(self, request, monkeypatch):
        """Run each config test as installed and with jsonschema hidden: the
        experiment table's check must not depend on that package."""
        if request.param == "fallback":
            monkeypatch.setitem(sys.modules, "jsonschema", None)
        return request.param

    def test_misspelt_param_is_rejected(self, validator, martingale_file, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "decompose", "martingale_file": martingale_file,
                                   "params": {"epss": 0.5}, "out": str(out)}))
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "'epss'" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"kind": "kappa", "bogus_field": 1},
        {"kind": "kappa", "filtration": {"m": 3, "depth": 4, "dpeth": 5}},
        {"kind": "kappa", "params": {"trails": 5}},
        {"kind": "kappa", "params": []},
        ["kappa"],
        {"params": {"grid": 5}},
    ])
    def test_malformed_configs_exit_two_with_one_line(self, validator, doc, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("kind", sorted(cli.EXPERIMENTS))
    def test_each_kind_accepts_its_params_only(self, kind, tmp_path, capsys):
        # Every declared field, set to a value other than its default, reaches
        # the handler unchanged; a param declared by another kind is rejected.
        fields = cli.EXPERIMENTS[kind].fields
        sample = {str: "x.json", int: 7, float: 0.25, list: [3, 7]}
        doc = {"kind": kind}
        for path, field in fields.items():
            section, _, key = path.rpartition(".")
            (doc.setdefault(section, {}) if section else doc)[key] = sample[field.type]
        _, c = cli._resolve(doc)
        for path, field in fields.items():
            key = path.rpartition(".")[2]
            expected = [3, 4, 5, 6, 7] if field.type is list else sample[field.type]
            assert getattr(c, key.removesuffix("_file")) == expected, path

        every_param = {path for e in cli.EXPERIMENTS.values() for path in e.fields if "params." in path}
        foreign = sorted(every_param - set(fields))
        out = tmp_path / "out"
        params = {**doc.get("params", {}), foreign[0].removeprefix("params."): 1}
        doc = dict(doc, out=str(out), params=params)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{foreign[0].removeprefix('params.')!r} in params" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "decompose", "martingale_file": "f.json", "params": {"eps": "0.1"}},
         "params.eps must be a number"),
        ({"kind": "kappa", "w_file": "w.json", "params": {"grid": 2.5}}, "params.grid must be an integer"),
        ({"kind": "kappa", "w_file": "w.json", "params": {"grid": True}}, "params.grid must be an integer"),
        ({"kind": "trace-embed-l1", "measure_file": "nu.json", "w_file": "w.json",
          "params": {"trials": 2.0}}, "params.trials must be an integer"),
        ({"kind": "frostman", "measure_file": "mu.json", "params": {"grid": 7}}, "'grid' in params"),
        ({"kind": "kappa", "w_file": "w.json", "filtration": {"m": 3, "depth": 4}}, "'m' in filtration"),
        ({"kind": "delta-counterexample", "seed": 3}, "'seed' in config"),
        ({"kind": "hls", "params": {"p": 2.0}}, "needs params.q"),
        ({"kind": "hls", "params": {"q": 4.0, "depths": [4, 5, 6]}}, "two integers"),
        ({"kind": "hls", "params": {"q": 4.0, "depths": [6, 4]}}, "backwards"),
        ({"kind": "delta-counterexample", "filtration": {"depth": 10}, "params": {"depths": [4, 6]}},
         "params.depths ends at 6, filtration.depth is 10"),
        ({"kind": "trace-embed-p", "measure_file": "nu.json", "w_file": "w.json",
          "filtration": {"depth": 5}, "params": {"depths": [4, 6]}},
         "params.depths ends at 6, filtration.depth is 5"),
        ({"kind": "hls", "params.q": 4.0}, "'params.q' in config"),
        ({"kind": "hls", "params": {"q": 4.0}, "filtration.depth": 6}, "'filtration.depth' in config"),
        ({"kind": "dimension-sharpness", "w_file": "w.json", "filtration": {"m": 5, "depth": 4}},
         "filtration.m=5, W has m=3"),
        ({"kind": "trace-sharpness", "w_file": "w.json", "filtration": {"ell": 2, "depth": 4}},
         "filtration.ell=2, W has ell=1"),
        ({"kind": "check-w", "w_file": "w_no_k.json"}, "lacks the field 'k'"),
        ({"kind": "trace-constant", "measure_file": "nu.json", "params": {"alpha": float("nan")}},
         "params.alpha must be finite, got alpha=nan"),
        ({"kind": "frostman", "measure_file": "mu.json", "params": {"beta": float("inf")}},
         "params.beta must be finite, got beta=inf"),
        ({"kind": "main-inequality", "w_file": "w.json", "params": {"p": float("-inf")}},
         "params.p must be finite, got p=-inf"),
        ({"kind": "check-w", "w_file": "w_nan.json"}, "w_nan.json: NaN is not a number"),
        ({"kind": "trace-embed-p", "measure_file": "nu.json", "w_file": "w.json", "params": {"trials": 0}},
         "params.trials must be at least 1, got 0"),
        ({"kind": "hls", "params": {"q": 4.0, "trials": -2}}, "params.trials must be at least 1, got -2"),
        ({"kind": "kappa", "w_file": "w.json", "params": {"grid": 0}}, "params.grid must be at least 2, got 0"),
        ({"kind": "kappa", "w_file": "w.json", "params": {"grid": 1}}, "params.grid must be at least 2, got 1"),
        ({"kind": "check-w", "w_file": "w_inf.json"}, "w_inf.json: basis holds a non-finite value"),
    ])
    def test_rejected_configs_write_nothing(self, doc, message, w_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        W = json.loads(open(w_file).read())
        (tmp_path / "w.json").write_text(json.dumps(W))
        (tmp_path / "w_nan.json").write_text(json.dumps(dict(W, basis=[[[float("nan")]] * 3])))
        (tmp_path / "w_inf.json").write_text(json.dumps(dict(W, basis=[[[float("inf")]], [[-float("inf")]], [[0.0]]])))
        del W["k"]
        (tmp_path / "w_no_k.json").write_text(json.dumps(W))
        (tmp_path / "cfg.json").write_text(json.dumps(dict(doc, out="out")))
        assert main(["run", "cfg.json"]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["trace-embed-p", "trace-embed-l1"])
    def test_trace_depths_beyond_the_measure_exit_two(self, kind, tmp_path, capsys):
        # the default depths [4, 8] against the depth-6 golden cascade
        golden = Path(__file__).parent / "golden"
        out = tmp_path / "out"
        assert main(["--out", str(out), kind, "--measure", str(golden / "cascade.json"),
                     "--w", str(golden / "w_span.json"), "--alpha", "0.9"]) == 2
        err = capsys.readouterr().err
        assert "depths end at 8, beyond the measure's depth 6" in err and err.count("\n") == 1
        assert not out.exists()

    def test_depth_flag_must_end_depths(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["--out", str(out), "delta-counterexample", "--depth", "10", "--depths", "4", "6"]
        assert main(argv) == 2
        assert "filtration.depth is 10" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_embed_depth_is_the_default_top_depth(self, tmp_path, capsys):
        nu_path, w_path = tmp_path / "nu.json", tmp_path / "w.json"
        assert main(["cascade", "--m", "3", "--depth", "6", "--alpha", "0.9", "--p", "1",
                     "--measure", str(nu_path)]) == 0
        assert main(["gen-w", "--kind", "span", "--m", "3", "--ell", "1", "--w", str(w_path)]) == 0
        out = tmp_path / "out"
        assert main(["--out", str(out), "trace-embed-l1", "--measure", str(nu_path),
                     "--w", str(w_path), "--trials", "2", "--depth", "6"]) == 0
        lines = (out / "trace_embed_l1.csv").read_text().splitlines()
        rows = [line for line in lines if not line.startswith("#")][1:]
        assert sorted({row.split(",")[0] for row in rows}) == ["4", "5", "6"]

    def test_sharpness_kinds_accept_their_w_filtration(self, w_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), "dimension-sharpness", "--w", w_file, "--m", "3",
                     "--ell", "1", "--depth", "4"]) == 0
        assert (out / "sharpness.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["gen-w", "--kind", "delta", "--ell", "0"], "filtration.ell must be at least 1, got 0"),
        (["gen-w", "--kind", "span", "--m", "1"], "filtration.m must be at least 2, got 1"),
        (["gen-w", "--kind", "plane"], "params.kind must be zero, delta, span or random, got 'plane'"),
        (["gen-w", "--kind", "random", "--m", "3", "--ell", "1", "--dim", "5"],
         "dimension 5 outside [0, (m-1)*ell] = [0, 2]"),
        (["cascade", "--alpha", "nan"], "params.alpha must be finite, got alpha=nan"),
        (["cascade", "--alpha", "inf"], "params.alpha must be finite, got alpha=inf"),
        (["cascade", "--alpha", "0.9", "--p", "nan"], "params.p must be finite, got p=nan"),
        (["norm", "--name", "lp", "--p", "nan"], "params.p must be finite, got p=nan"),
        (["norm", "--name", "lorentz", "--p", "inf"], "params.p must be finite, got p=inf"),
        (["norm", "--name", "lp", "--p", "inf"], "params.p must be finite, got p=inf"),
        (["norm", "--name", "lp", "--measure", str(GOLDEN / "cascade.json")], "norm lp reads no measure_file"),
        (["norm", "--name", "lpnu"], "norm lpnu needs measure_file"),
        (["norm", "--name", "l2"], "params.name must be one of lp, lorentz, weak, besov, h1, lpnu, got 'l2'"),
        (["cascade", "--depth", "4", "--alpha", "0.5", "--p", "0"], "p must be >= 1, got 0.0"),
        (["cascade", "--depth", "4", "--alpha", "0.5", "--p", "-2"], "p must be >= 1, got -2.0"),
        (["cascade", "--depth", "4", "--alpha", "0.5", "--p", "0.5"], "p must be >= 1, got 0.5"),
        (["gen-w", "--kind", "zero", "--dim", "5"], "gen-w zero reads no params.dim"),
        (["norm", "--name", "h1", "--p", "7"], "norm h1 reads no params.p"),
        (["norm", "--name", "lp", "--beta", "3"], "norm lp reads no params.beta"),
    ])
    def test_utility_inputs_exit_two_writing_nothing(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        target = {"gen-w": ["--w", "made.json"], "cascade": ["--measure", "made.json"],
                  "norm": ["--martingale", str(GOLDEN / "martingale.json")]}[argv[0]]
        assert main(["--out", "out", *argv, *target]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("beta", ["0.3", "0.9"])
    def test_frostman_on_a_signed_measure_exits_two(self, beta, tmp_path, capsys):
        doc = json.loads((GOLDEN / "cascade.json").read_text())
        doc["leaf_mass"][::3] = [-x for x in doc["leaf_mass"][::3]]
        signed = tmp_path / "signed.json"
        signed.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["--out", str(out), "frostman", "--measure", str(signed), "--beta", beta]) == 2
        err = capsys.readouterr().err
        assert "antichain DP requires a nonnegative measure" in err and err.count("\n") == 1
        assert not out.exists()


class TestParser:
    def test_one_parser_serves_every_call(self):
        assert cli.build_parser() is cli.build_parser()

    def test_flags_do_not_leak_into_the_next_call(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "_run_document", lambda doc, args: seen.append((doc, args.seed, args.out)))
        assert main(["--seed", "5", "--out", "o", "gen-w", "--kind", "random", "--m", "4", "--dim", "2",
                     "--w", "w.json"]) == 0
        assert main(["gen-w", "--kind", "span", "--w", "w.json"]) == 0
        assert seen == [
            ({"kind": "gen-w", "w_file": "w.json", "filtration": {"m": 4}, "params": {"kind": "random", "dim": 2}},
             5, "o"),
            ({"kind": "gen-w", "w_file": "w.json", "params": {"kind": "span"}}, 0, "."),
        ]

    def test_help_and_a_bad_flag_exit_as_before(self, capsys):
        for _ in range(2):  # and again, on the parser the first calls used
            with pytest.raises(SystemExit) as caught:
                main(["--help"])
            assert caught.value.code == 0 and "m-adic tree martingale laboratory" in capsys.readouterr().out
            with pytest.raises(SystemExit) as caught:
                main(["decompose", "--no-such-flag"])
            assert caught.value.code == 2 and "unrecognized arguments: --no-such-flag" in capsys.readouterr().err


class TestRunConfig:
    def test_kappa_config_on_zero_w(self, tmp_path, capsys):
        w_path = tmp_path / "w.json"
        main(["gen-w", "--kind", "zero", "--m", "3", "--ell", "1", "--w", str(w_path)])
        out = tmp_path / "out"
        cfg = {
            "kind": "kappa",
            "w_file": str(w_path),
            "params": {"grid": 5},
            "seed": 1,
            "out": str(out),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 0
        text = (out / "kappa.csv").read_text()
        assert "# config_hash=" in text
        assert "# dimension_bound=1" in text
        stdout = capsys.readouterr().out
        assert "dimension_bound=1" in stdout

    def test_delta_config_growing_verdict(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = {
            "kind": "delta-counterexample",
            "filtration": {"m": 3, "depth": 10},
            "params": {"p": 2.0, "depths": [4, 10]},
            "out": str(out),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 0
        assert "verdict=GROWING" in capsys.readouterr().out
        assert (out / "embed_delta.csv").exists()

    def test_rerun_byte_reproducible(self, tmp_path, capsys):
        w_path = tmp_path / "w.json"
        main(["gen-w", "--kind", "random", "--m", "3", "--ell", "2", "--dim", "2",
              "--w", str(w_path)])
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            cfg = {
                "kind": "main-inequality",
                "filtration": {"m": 3, "depth": 7, "ell": 2},
                "w_file": str(w_path),
                "params": {"p": 2.0, "trials": 5, "depths": [4, 7]},
                "seed": 11,
                "out": str(out),
            }
            cfg_path = tmp_path / f"cfg_{run}.json"
            cfg_path.write_text(json.dumps(cfg))
            assert main(["run", str(cfg_path)]) == 0
            outs.append((out / "embed_main.csv").read_bytes())
        # identical bytes apart from the differing output path inside the hash
        a = b"\n".join(l for l in outs[0].split(b"\n") if not l.startswith(b"# config_hash"))
        b = b"\n".join(l for l in outs[1].split(b"\n") if not l.startswith(b"# config_hash"))
        assert a == b

    def test_same_config_same_bytes(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "kind": "delta-counterexample",
            "filtration": {"m": 3, "depth": 8},
            "params": {"p": 2.0, "depths": [4, 8]},
            "out": str(out),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 0
        first = (out / "embed_delta.csv").read_bytes()
        assert main(["run", str(cfg_path)]) == 0
        assert (out / "embed_delta.csv").read_bytes() == first
