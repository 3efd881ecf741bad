"""On-disk formats: tree measures, martingales, subspaces, fiber families.

Everything is JSON with an explicit ``kind`` tag and the (m, depth/ell)
header, floats written through Python's shortest-roundtrip repr (at most 17
significant digits, bit-exact on reload).  Complex fiber entries are stored
as [re, im] pairs.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .filtration import FiltrationSpec, Martingale, TreeMeasure
from .groupfourier import FiberFamily, FiniteAbelianGroup
from .spacew import SubspaceW


def _dump(path, document):
    Path(path).write_text(_encode(document, "") + "\n")


def _encode(obj, indent: str) -> str:
    """``json.dumps(obj, indent=1)`` of a value nested at ``indent``, the same bytes.

    Dicts (string keys) and lists are laid out as json lays them out; a flat
    float64 array is laid out as the list of its floats; a flat list of
    finite floats is written as one join of ``float.__repr__``, which is what
    json writes for each, and everything else goes to json itself.
    """
    inner = indent + " "
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype == np.float64 and obj.size:
            return f"[\n{inner}" + f",\n{inner}".join(_float_texts(obj)) + f"\n{indent}]"
        return _encode(obj.tolist(), indent)
    if isinstance(obj, list) and obj:
        if all(type(v) is float for v in obj):
            text = f",\n{inner}".join(map(float.__repr__, obj))
            if "n" not in text:  # no inf or nan, which json spells Infinity and NaN
                return f"[\n{inner}{text}\n{indent}]"
        return f"[\n{inner}" + f",\n{inner}".join(_encode(v, inner) for v in obj) + f"\n{indent}]"
    if isinstance(obj, dict) and obj:
        items = (f"{json.dumps(key)}: {_encode(value, inner)}" for key, value in obj.items())
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    return json.dumps(obj)


# json's spelling of the floats that float.__repr__ spells inf, -inf and nan
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _float_texts(values: np.ndarray) -> list[str]:
    """json's text of each float of a flat float64 array.

    Each distinct bit pattern (so 0.0 and -0.0 stay apart) is formatted once
    and mapped back.
    """
    distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    floats = distinct.view(np.float64)
    texts = list(map(float.__repr__, floats.tolist()))
    if not np.isfinite(floats).all():
        texts = [_NON_FINITE.get(t, t) for t in texts]
    return np.array(texts, dtype=object)[inverse].tolist()


def _require(obj, fields, path, what):
    """ValueError naming the file and the first field ``obj`` lacks."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected {what} as a JSON object, got {type(obj).__name__}")
    for name in fields:
        if name not in obj:
            raise ValueError(f"{path}: {what} lacks the field {name!r}")


@contextmanager
def _named(path):
    """Re-raise a ValueError or TypeError raised while building an object from
    the file ``path`` (a range check of ``FiltrationSpec``, an array of the
    wrong shape) as a ValueError naming the file."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


# header fields that size the arrays of a file
_SIZE_FIELDS = frozenset({"m", "depth", "ell", "k"})


def _load(path, expected_kind, fields):
    def constant(name):  # NaN names no value; an infinity loads and fails as a numeric failure
        if name == "NaN":
            raise ValueError(f"{path}: NaN is not a number")
        return float(name)

    doc = json.loads(Path(path).read_text(), parse_constant=constant)
    _require(doc, (), path, f"a {expected_kind} file")
    if doc.get("kind") != expected_kind:
        raise ValueError(f"{path}: expected kind {expected_kind!r}, got {doc.get('kind')!r}")
    _require(doc, fields, path, f"the {expected_kind} file")
    for name in fields:
        # a float, string or null would fail later as a TypeError; a bool passes for an int
        if name in _SIZE_FIELDS and type(doc[name]) is not int:
            raise ValueError(f"{path}: the {expected_kind} file's {name!r} is {doc[name]!r}, not an integer")
    return doc


def write_measure(path, mu: TreeMeasure) -> None:
    _dump(
        path,
        {
            "kind": "tree-measure",
            "m": mu.spec.m,
            "depth": mu.spec.depth,
            "ell": mu.spec.ell,
            "scalar": mu.is_scalar,
            "leaf_mass": mu.leaf_mass if mu.is_scalar else mu.leaf_mass.tolist(),
        },
    )


def read_measure(path) -> TreeMeasure:
    doc = _load(path, "tree-measure", ("m", "depth", "ell", "leaf_mass"))
    with _named(path):
        spec = FiltrationSpec(doc["m"], doc["depth"], doc["ell"])
        leaf_mass = np.asarray(doc["leaf_mass"], dtype=float)
    if not np.isfinite(leaf_mass).all():  # an infinite mass would pass for a certified measure
        raise ValueError(f"{path}: leaf_mass holds a non-finite value")
    with _named(path):
        return TreeMeasure(spec, leaf_mass)


def write_martingale(path, F: Martingale) -> None:
    blocks = []
    for n, level in enumerate(F.diffs):
        for i, block in enumerate(level):
            if np.any(block != 0):
                blocks.append({"level": n, "atom": i, "values": block.tolist()})
    _dump(
        path,
        {
            "kind": "martingale",
            "m": F.spec.m,
            "depth": F.spec.depth,
            "ell": F.spec.ell,
            "f0": F.f0.tolist(),
            "blocks": blocks,
        },
    )


def read_martingale(path) -> Martingale:
    doc = _load(path, "martingale", ("m", "depth", "ell", "f0", "blocks"))
    with _named(path):
        spec = FiltrationSpec(doc["m"], doc["depth"], doc["ell"])
    m, depth, ell = spec.m, spec.depth, spec.ell
    starts = [(m**n - 1) // (m - 1) for n in range(depth + 1)]  # the first node of each level
    nodes, values = [], []
    for row in doc["blocks"]:
        _require(row, ("level", "atom", "values"), path, "a blocks entry")
        level, atom = row["level"], row["atom"]
        # a bool passes for an int and a negative index picks another atom
        if not (type(level) is int and type(atom) is int and 0 <= level < depth and 0 <= atom < m**level):
            raise ValueError(f"{path}: blocks entry (level {level!r}, atom {atom!r}) names no atom; "
                             f"want ints 0 <= level < {depth} and 0 <= atom < {m}^level")
        nodes.append(starts[level] + atom)
        values.append(row["values"])
    nodes = np.array(nodes, dtype=np.int64)
    if np.bincount(nodes).max(initial=0) > 1:
        firsts = np.unique(nodes, return_index=True)[1]
        row = doc["blocks"][np.setdiff1d(np.arange(nodes.size), firsts)[0]]
        raise ValueError(f"{path}: blocks entry (level {row['level']}, atom {row['atom']}) "
                         "repeats an earlier entry")
    flat = np.zeros((starts[-1], m, ell))
    if nodes.size:
        try:
            blocks = np.asarray(values, dtype=float)
        except (TypeError, ValueError):
            blocks = None
        if blocks is None or blocks.shape[1:] != (m, ell):
            raise ValueError(f"{path}: the values of a blocks entry are not {m} x {ell} numbers")
        flat[nodes] = blocks
    diffs = [flat[a:b] for a, b in zip(starts, starts[1:])]
    with _named(path):
        return Martingale(spec, np.asarray(doc["f0"], dtype=float), diffs)


def write_subspace(path, W: SubspaceW) -> None:
    _dump(
        path,
        {
            "kind": "subspace-w",
            "m": W.m,
            "ell": W.ell,
            "k": W.dim,
            "basis": W.basis.tolist(),
        },
    )


def read_subspace(path) -> SubspaceW:
    doc = _load(path, "subspace-w", ("m", "ell", "k", "basis"))
    shape = (doc["k"], doc["m"], doc["ell"])
    try:
        basis = np.asarray(doc["basis"], dtype=float)
    except (TypeError, ValueError):
        basis = None
    if basis is None or min(shape) < 0 or basis.size != np.prod(shape):
        raise ValueError(f"{path}: the basis is not k x m x ell = {' x '.join(map(str, shape))} numbers")
    basis = basis.reshape(shape)
    if not np.isfinite(basis).all():  # as read_measure does, name the file
        raise ValueError(f"{path}: basis holds a non-finite value")
    with _named(path):
        return SubspaceW(doc["m"], doc["ell"], basis)


def write_fibers(path, fibers: FiberFamily) -> None:
    packed = {}
    for gamma, basis in fibers.fibers.items():
        packed[str(gamma)] = np.stack([basis.real, basis.imag], axis=-1).tolist()
    _dump(
        path,
        {
            "kind": "fiber-family",
            "factors": list(fibers.group.factors),
            "ell": fibers.ell,
            "fibers": packed,
        },
    )


def read_fibers(path) -> FiberFamily:
    doc = _load(path, "fiber-family", ("factors", "ell", "fibers"))
    factors = doc["factors"]
    if not (type(factors) is list and all(type(d) is int for d in factors)):
        raise ValueError(f"{path}: the fiber-family file's 'factors' is {factors!r}, not a list of integers")
    with _named(path):
        group = FiniteAbelianGroup(tuple(factors))
    fibers = {}
    for key, rows in doc["fibers"].items():
        # a character's canonical decimal text: "01", " 1", "1.5" and "-1" name none
        if not (key.isascii() and key.isdecimal() and str(int(key)) == key and 0 < int(key) < group.order):
            raise ValueError(f"{path}: fiber key {key!r} names no character of the group; "
                             f"want an integer in [1, {group.order}) in decimal")
        with _named(path):
            arr = np.asarray(rows, dtype=float)
        if not np.isfinite(arr).all():  # as read_measure does, name the file
            raise ValueError(f"{path}: fiber {key} holds a non-finite value")
        if arr.size == 0:
            fibers[int(key)] = np.zeros((0, doc["ell"]), dtype=complex)
        else:
            fibers[int(key)] = arr[..., 0] + 1j * arr[..., 1]
    with _named(path):
        return FiberFamily(group=group, ell=doc["ell"], fibers=fibers)
