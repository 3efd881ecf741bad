"""On-disk formats: tree measures, martingales, subspaces, fiber families.

Everything is JSON with an explicit ``kind`` tag and the (m, depth/ell)
header, floats written through Python's shortest-roundtrip repr (at most 17
significant digits, bit-exact on reload).  Complex fiber entries are stored
as [re, im] pairs.

Each file has the bytes of ``json.dumps(document, indent=1)``.  Each writer
formats all its floats in one ``_float_texts`` pass and lays each array out
with one join per row of its last axis; the martingale writer fills one text
template per blocks entry.
Readers take numbers only: a string, null or object where a number belongs
is a ValueError naming the file and the field.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .filtration import FiltrationSpec, Martingale, TreeMeasure
from .groupfourier import FiberFamily, FiniteAbelianGroup
from .spacew import SubspaceW


def _dump(path, document):
    Path(path).write_text(_encode(document, "") + "\n")


class _Laid(list):
    """A list kept with its JSON text, laid out already for its place in a
    document; ``_encode`` writes the text."""

    def __init__(self, items, text: str):
        super().__init__(items)
        self.text = text


def _encode(obj, indent: str) -> str:
    """``json.dumps(obj, indent=1)`` of a value nested at ``indent``, the same bytes.

    Dicts (string keys) and lists are laid out as json lays them out; a
    non-empty float64 array of any shape is laid out as its nested list, its
    floats formatted in one ``_float_texts`` pass; a ``_Laid`` list is its
    text, and everything else goes to json itself.
    """
    inner = indent + " "
    if isinstance(obj, _Laid):
        return obj.text
    if isinstance(obj, np.ndarray):
        if obj.dtype == np.float64 and obj.ndim and obj.size:
            return _layout(obj.shape, indent, _float_texts(obj.ravel()))
        return _encode(obj.tolist(), indent)
    if isinstance(obj, list) and obj:
        return f"[\n{inner}" + f",\n{inner}".join(_encode(v, inner) for v in obj) + f"\n{indent}]"
    if isinstance(obj, dict) and obj:
        items = (f"{json.dumps(key)}: {_encode(value, inner)}" for key, value in obj.items())
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    return json.dumps(obj)


def _layout(shape: tuple, indent: str, texts: list[str]) -> str:
    """json's layout, nested at ``indent``, of a non-empty array of ``shape``
    whose entries, in C order, have the texts ``texts``.

    The text between two neighbouring entries depends only on how many
    trailing axes end there: each row of the last axis is one join, and the
    rows are joined with the text looked up for each gap between them.
    """
    ndim = len(shape)
    opens = ["[\n" + indent + " " * (a + 1) for a in range(ndim)]
    closes = ["\n" + indent + " " * a + "]" for a in range(ndim)]
    between = []  # between two entries where the last ``ndim - going_on`` axes end
    for going_on in range(ndim, 0, -1):
        between.append("".join(reversed(closes[going_on:])) + ",\n" + indent + " " * going_on
                       + "".join(opens[going_on:]))
    width = shape[-1]
    # a flat array is one row, joined without a copy of its texts
    rows = [texts[i:i + width] for i in range(0, len(texts), width)] if ndim > 1 else [texts]
    starts = np.arange(1, len(rows)) * width  # the C index of each row after the first
    ended = np.ones(starts.size, dtype=np.intp)
    for a in range(1, ndim - 1):
        ended += starts % int(np.prod(shape[a:])) == 0
    parts = [""] * (2 * len(rows) + 1)
    parts[0], parts[-1] = "".join(opens), "".join(reversed(closes))
    parts[1::2] = map(between[0].join, rows)
    parts[2:-1:2] = np.array(between, dtype=object)[ended].tolist()
    return "".join(parts)


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


def _numbers(values, path, field: str, ndim: int) -> np.ndarray:
    """The float64 array of the JSON numbers ``values``, read from ``path``,
    nested at most ``ndim`` lists deep.

    numpy's inferred dtype is the test, so numbers cost one conversion and
    no pass of their own; a bool among them reads as 0/1.  Entries are looked
    at one by one only when the dtype is not numeric: a string, null or
    object is a ValueError naming the file and ``field``, and integers beyond
    int64 still read as floats.  A ragged or deeper list is a ValueError too.
    """
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged list
        array = None
    if array is None or array.dtype.kind not in "biuf":
        reason = _non_number(values)
        if reason is not None:
            raise ValueError(f"{path}: could not convert {reason} in {field}")
        try:
            array = np.asarray(values, dtype=float)
        except OverflowError:
            raise ValueError(f"{path}: could not convert an integer beyond the float range in {field}") from None
        except ValueError:
            array = None
    if array is None or array.ndim > ndim:
        raise ValueError(f"{path}: {field} is not a rectangular array of numbers, nested at most {ndim} deep")
    return array.astype(float, copy=False)


def _non_number(value):
    """What ``_numbers`` names for the first entry of ``value``, a JSON value
    of nested lists, that is not a number; None if each is one."""
    if isinstance(value, list):
        return next(filter(None, map(_non_number, value)), None)
    if isinstance(value, str):
        return f"string to float: {value!r}"
    if value is None:
        return "null to float"
    if isinstance(value, dict):
        return "an object to float"
    return None


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
            "leaf_mass": mu.leaf_mass,
        },
    )


def read_measure(path) -> TreeMeasure:
    doc = _load(path, "tree-measure", ("m", "depth", "ell", "leaf_mass"))
    with _named(path):
        spec = FiltrationSpec(doc["m"], doc["depth"], doc["ell"])
    leaf_mass = _numbers(doc["leaf_mass"], path, "leaf_mass", 2)
    if not np.isfinite(leaf_mass).all():  # an infinite mass would pass for a certified measure
        raise ValueError(f"{path}: leaf_mass holds a non-finite value")
    with _named(path):
        return TreeMeasure(spec, leaf_mass)


def write_martingale(path, F: Martingale) -> None:
    """Write ``F`` with one blocks entry per block that is not all zero
    (-0.0 counts as zero), level by level and atom by atom.

    The kept blocks are gathered level by level, all their floats formatted
    in one pass and filled into one text template per entry.
    """
    m, ell = F.spec.m, F.spec.ell
    kept = [np.flatnonzero(np.any(level != 0, axis=(1, 2))) for level in F.diffs]
    levels = np.repeat(np.arange(len(kept)), [ids.size for ids in kept])
    atoms = np.concatenate(kept)
    values = np.concatenate([level[ids] for level, ids in zip(F.diffs, kept)])
    blocks = []
    if atoms.size:
        size = m * ell
        # one entry, with %s where its level, atom and floats go
        entry = '{\n   "level": %s,\n   "atom": %s,\n   "values": ' + _layout((m, ell), "   ", ["%s"] * size)
        texts = _float_texts(values.ravel())
        fields = zip(levels.tolist(), atoms.tolist(), *(texts[j::size] for j in range(size)))  # entry by entry
        text = "[\n  " + "\n  },\n  ".join([entry] * atoms.size) % tuple(chain.from_iterable(fields)) + "\n  }\n ]"
        # the document keeps the entries, so json.dumps(document, indent=1) still gives these bytes
        items = [{"level": n, "atom": i, "values": v} for n, i, v in zip(levels.tolist(), atoms.tolist(), values)]
        blocks = _Laid(items, text)
    _dump(
        path,
        {
            "kind": "martingale",
            "m": F.spec.m,
            "depth": F.spec.depth,
            "ell": F.spec.ell,
            "f0": F.f0,
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
            blocks = _numbers(values, path, "blocks", 3)
        except ValueError:
            blocks = None
        if blocks is None or blocks.shape[1:] != (m, ell):
            raise ValueError(f"{path}: the values of a blocks entry are not {m} x {ell} numbers")
        flat[nodes] = blocks
    diffs = [flat[a:b] for a, b in zip(starts, starts[1:])]
    f0 = _numbers(doc["f0"], path, "f0", 1)
    with _named(path):
        return Martingale(spec, f0, diffs)


def write_subspace(path, W: SubspaceW) -> None:
    _dump(
        path,
        {
            "kind": "subspace-w",
            "m": W.m,
            "ell": W.ell,
            "k": W.dim,
            "basis": W.basis,
        },
    )


def read_subspace(path) -> SubspaceW:
    doc = _load(path, "subspace-w", ("m", "ell", "k", "basis"))
    shape = (doc["k"], doc["m"], doc["ell"])
    try:
        basis = _numbers(doc["basis"], path, "basis", 3)
    except ValueError:
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
        packed[str(gamma)] = np.stack([basis.real, basis.imag], axis=-1)
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
        arr = _numbers(rows, path, f"fiber {key}", 3)
        if not np.isfinite(arr).all():  # as read_measure does, name the file
            raise ValueError(f"{path}: fiber {key} holds a non-finite value")
        if arr.size == 0:
            fibers[int(key)] = np.zeros((0, doc["ell"]), dtype=complex)
        elif arr.shape[-1:] != (2,):  # arr[..., 1] would be an IndexError, which names no file
            raise ValueError(f"{path}: fiber {key} holds entries that are not [re, im] pairs")
        else:
            fibers[int(key)] = arr[..., 0] + 1j * arr[..., 1]
    with _named(path):
        return FiberFamily(group=group, ell=doc["ell"], fibers=fibers)
