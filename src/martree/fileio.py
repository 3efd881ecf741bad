"""On-disk formats: tree measures, martingales, subspaces, fiber families.

Everything is JSON with an explicit ``kind`` tag and the (m, depth/ell)
header, floats written through Python's shortest-roundtrip repr (at most 17
significant digits, bit-exact on reload).  Complex fiber entries are stored
as [re, im] pairs.

Each file has the bytes of ``json.dumps(document, indent=1)``, streamed to
a temporary sibling that replaces the file once complete.  Arrays go
``SLICE`` entries at a time, each slice formatted in one ``_texts`` pass, so
a writer never holds the file's text.  Before any byte, a writer refuses
what its reader refuses (a non-finite mass, basis or fiber entry; a NaN in
a martingale), by the one rule ``_refuse`` that the readers apply too.  A
martingale has one layout: ``nodes``, the level-order id of each block
that is not all zero, and ``values``, those blocks' floats in one flat list.
A scalar measure's ``leaf_mass`` and a martingale's ``values``, when flat
lists of numbers, are read ``SLICE`` entries at a time by json's own scanner
into float64.  A slice that repeats one entry's text (the zero runs of a
product measure's emptied subtrees) is parsed, or one float is formatted,
once, and a written slice of one float is that text repeated by string
repetition, not joined entry by entry.  A read slice that does not repeat
one text, but whose first entry's text fills a quarter of it, is read in
sixteen parts that each take that test, so that a run inside the slice is
parsed once too.  Readers take numbers only: a bool, string, null or object
where a number belongs is a ValueError naming the file and the field.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from .filtration import FiltrationSpec, Martingale, TreeMeasure
from .groupfourier import FiberFamily, FiniteAbelianGroup
from .spacew import SubspaceW

SLICE = 2_048  # entries of a numeric array formatted and written, or parsed, at once


def _dump(path, document):
    """Write ``json.dumps(document, indent=1) + "\\n"`` to ``path`` piece by
    piece, through a sibling that replaces ``path`` once the text is whole."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w") as out:
            _write(out.write, document, "")
            out.write("\n")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _write(write, obj, indent: str) -> None:
    """Write ``json.dumps(obj, indent=1)`` of a value nested at ``indent``.

    Dicts (string keys) and lists are laid out as json lays them out; a
    non-empty numeric array of any shape is laid out as its nested list by
    ``_write_array``, and everything else goes to json itself.
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biuf" and obj.ndim and obj.size:
            return _write_array(write, obj, indent)
        obj = obj.tolist()
    if isinstance(obj, (list, dict)) and obj:
        brackets, items = ("{}", obj.items()) if isinstance(obj, dict) else ("[]", ((None, v) for v in obj))
        inner = indent + " "
        for i, (key, value) in enumerate(items):
            write(("," if i else brackets[0]) + "\n" + inner + ("" if key is None else f"{json.dumps(key)}: "))
            _write(write, value, inner)
        write("\n" + indent + brackets[1])
        return
    write(json.dumps(obj))


def _write_array(write, array: np.ndarray, indent: str) -> None:
    """Write json's layout, nested at ``indent``, of a non-empty numeric array,
    ``SLICE`` entries at a time, each slice's texts from one ``_texts`` pass.

    The text between two neighbouring entries depends only on how many
    trailing axes end there: each row of the last axis, or the part of it in
    one slice, is one join (one string repetition where the slice's entries
    share one text), and the rows are joined with the text looked up for
    each gap between them.
    """
    shape, ndim = array.shape, array.ndim
    opens = ["[\n" + indent + " " * (a + 1) for a in range(ndim)]
    closes = ["\n" + indent + " " * a + "]" for a in range(ndim)]
    between = []  # between two entries where the last ``ndim - going_on`` axes end
    for going_on in range(ndim, 0, -1):
        between.append("".join(reversed(closes[going_on:])) + ",\n" + indent + " " * going_on
                       + "".join(opens[going_on:]))
    between = np.array(between, dtype=object)
    flat, width = array.ravel(), shape[-1]
    sizes = [int(np.prod(shape[axis:])) for axis in range(1, ndim)]  # an axis ends where these divide the index
    sep = between[0]  # between two entries of a row
    write("".join(opens))
    for a in range(0, flat.size, SLICE):
        chunk = flat[a:a + SLICE]
        texts = _texts(chunk)
        if a:  # the gap before the slice's first entry
            write(between[sum(a % size == 0 for size in sizes)])
        starts = np.arange(a // width * width + width, a + chunk.size, width)  # the rows begun in the slice
        ended = np.zeros(starts.size, dtype=np.intp)
        for size in sizes:
            ended += starts % size == 0
        bounds = [0, *(starts - a).tolist(), chunk.size]
        parts = [""] * (2 * len(bounds) - 3)
        if isinstance(texts, str):  # every entry has this text: a row part repeats it
            parts[0::2] = ((texts + sep) * (hi - lo - 1) + texts for lo, hi in zip(bounds, bounds[1:]))
        else:
            parts[0::2] = (sep.join(texts[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
        parts[1::2] = between[ended].tolist()
        write("".join(parts))
    write("".join(reversed(closes)))


def _texts(values: np.ndarray) -> list[str] | str:
    """json's text of each entry of a flat numeric array, from one json.dumps
    of a list; each distinct float bit pattern (so 0.0 and -0.0 stay apart)
    is formatted once and mapped back.  A float slice of one bit pattern
    gives that pattern's one text, which the writer repeats."""
    if values.dtype != np.float64:
        return json.dumps(values.tolist())[1:-1].split(", ")
    bits = values.view(np.uint64)
    if (bits == bits[0]).all():  # one bit pattern repeated: one text
        return json.dumps(values[:1].tolist())[1:-1]
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", ")
    return np.array(texts, dtype=object)[inverse].tolist()


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

    A flat array that ``_load`` streamed is one already.  Otherwise each entry
    is looked at: a bool, string, null or object is a ValueError naming the
    file and ``field``, and integers beyond int64 still read as floats.  A
    ragged or deeper list is a ValueError too.
    """
    if isinstance(values, np.ndarray):
        return values
    reason = _non_number(values)
    if reason is not None:
        raise ValueError(f"{path}: could not convert {reason} in {field}")
    try:
        array = np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{path}: could not convert an integer beyond the float range in {field}") from None
    except ValueError:  # a ragged list
        array = None
    if array is None or array.ndim > ndim:
        raise ValueError(f"{path}: {field} is not a rectangular array of numbers, nested at most {ndim} deep")
    return array


def _non_number(value):
    """What ``_numbers`` names for the first entry of ``value``, a JSON value
    of nested lists, that is not a number; None if each is one."""
    if isinstance(value, list):
        return next(filter(None, map(_non_number, value)), None)
    if isinstance(value, bool):  # a bool passes for an int
        return f"a bool to float: {json.dumps(value)}"
    if isinstance(value, str):
        return f"string to float: {value!r}"
    if value is None:
        return "null to float"
    if isinstance(value, dict):
        return "an object to float"
    return None


# the JSON type of each header field that sizes a file's arrays and of each collection field
_FIELD_TYPES = dict(m=int, depth=int, ell=int, k=int, nodes=list, values=list, fibers=dict)
_TYPE_NAMES = {int: "an integer", list: "a list", dict: "an object"}


def _fields(doc, fields, path, kind):
    """ValueError naming the file and the first of ``fields`` that ``doc``
    lacks or holds with the wrong JSON type, which would fail later as a
    TypeError or AttributeError (a bool passes for an int)."""
    for name in fields:
        if name not in doc:
            raise ValueError(f"{path}: the {kind} file lacks the field {name!r}")
        want, got = _FIELD_TYPES.get(name), type(doc[name])
        if want is not None and got is not want and not (want is list and got is np.ndarray):  # a streamed list
            raise ValueError(f"{path}: the {kind} file's {name!r} is {doc[name]!r}, not {_TYPE_NAMES[want]}")


def _load(path, expected_kind, fields, flat=None):
    """The document of ``path``, the top-level ``flat`` field read by ``_flat_array`` where it can be."""
    def constant(name):  # NaN names no value; an infinity loads and fails as a numeric failure
        if name == "NaN":
            raise ValueError(f"{path}: NaN is not a number")
        return float(name)

    def value(s, at):  # a value of the top-level object, after its key's closing quote
        return s.endswith(f'"{flat}"', 0, s.rfind('"', 0, at) + 1) and _flat_array(s, at, scan) or scan(s, at)

    text, doc = Path(path).read_text(), None
    scan, start = json.JSONDecoder(parse_constant=constant).scan_once, _SPACE(text).end()
    if flat and text.startswith("{", start):  # json's own object parser, its values from ``value``
        with suppress(json.JSONDecodeError, OverflowError):
            doc, end = json.decoder.JSONObject((text, start + 1), True, value, None, None, {})
            doc = doc if _SPACE(text, end).end() == len(text) else None
    if doc is None:  # not one well-formed object: json says what is wrong, as it always did
        doc = json.loads(text, parse_constant=constant)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a {expected_kind} file as a JSON object, got {type(doc).__name__}")
    if doc.get("kind") != expected_kind:
        raise ValueError(f"{path}: expected kind {expected_kind!r}, got {doc.get('kind')!r}")
    _fields(doc, fields, path, expected_kind)
    return doc


_SPACE = json.decoder.WHITESPACE.match


def _flat_array(text: str, start: int, scan):
    """(float64 array, end) of the flat list of numbers at ``text[start]``, each
    slice of about ``SLICE`` entries parsed by ``scan`` as a list of its own; None
    where it holds a string, object, list or literal (``"{[tfn``, Infinity too).
    A slice whose text is its first entry's repeated, comma-joined, is parsed as
    that one entry, whose value fills it: equal texts parse, or fail, alike.  A
    slice that is not, but whose first entry's text fills at least a quarter of
    it, is cut into sixteen parts that each take the same test, so that a run of
    one entry inside the slice is parsed once too."""
    end = text.find("]", start)
    if not text.startswith("[", start) or end < 0 or any(text.find(c, start + 1, end) >= 0 for c in '"{[tfn'):
        return None
    size = 0 if _SPACE(text, start + 1).end() == end else text.count(",", start, end) + 1
    array, filled, at = np.empty(size), 0, start + 1
    width = (end - at) * SLICE // max(size, 1)  # the characters of about SLICE entries
    while at <= end:
        cut = text.find(",", at + width, end)
        cut = end if cut < 0 else cut
        parts = [_repeated(text, at, cut)]
        entry, repeats = parts[0][2:]
        if not repeats and 4 * (len(entry) + 1) * text.count(entry + ",", at, cut) >= cut - at:
            parts, lo, step = [], at, (cut - at) // 16  # a run may fill part of the slice
            while lo <= cut:
                hi = text.find(",", lo + step, cut)
                parts.append(_repeated(text, lo, cut if hi < 0 else hi))
                lo = parts[-1][1] + 1
        for lo, hi, entry, repeats in parts:
            values = scan("[" + (entry if repeats else text[lo:hi]) + "]", 0)[0]
            if size and not values:  # an empty entry, as in [1,,2]: json names it
                raise json.JSONDecodeError("Expecting value", text, lo)
            repeats = max(repeats, 1)
            array[filled:filled + len(values) * repeats] = values
            filled += len(values) * repeats
        at = cut + 1
    return array, end + 1


def _repeated(text: str, at: int, cut: int) -> tuple[int, int, str, int]:
    """(at, cut, the first entry's text of ``text[at:cut]``, and how many times
    ``text[at:cut]`` is that text, comma-joined, or 0 where it is not)."""
    first = text.find(",", at, cut)
    entry = text[at:cut if first < 0 else first]
    repeats = (cut + 1 - at) // (len(entry) + 1)
    return at, cut, entry, repeats if text[at:cut + 1] == (entry + ",") * repeats else 0


def _refuse(path, field: str, values, finite: bool) -> None:
    """ValueError naming the file and ``field`` when ``values`` holds what the
    field's reader refuses: a NaN, or with ``finite`` any non-finite value.
    A writer calls it before any byte, a reader on the numbers it read."""
    if not (np.isfinite(values) if finite else ~np.isnan(values)).all():
        raise ValueError(f"{path}: {field} holds {'a non-finite value' if finite else 'a NaN'}")


def write_measure(path, mu: TreeMeasure) -> None:
    _refuse(path, "leaf_mass", mu.leaf_mass, finite=True)
    _dump(path, {"kind": "tree-measure", "m": mu.spec.m, "depth": mu.spec.depth, "ell": mu.spec.ell,
                 "scalar": mu.is_scalar, "leaf_mass": mu.leaf_mass})


def read_measure(path) -> TreeMeasure:
    doc = _load(path, "tree-measure", ("m", "depth", "ell", "leaf_mass"), flat="leaf_mass")
    with _named(path):
        spec = FiltrationSpec(doc["m"], doc["depth"], doc["ell"])
    leaf_mass = _numbers(doc["leaf_mass"], path, "leaf_mass", 2)
    _refuse(path, "leaf_mass", leaf_mass, finite=True)  # an infinite mass would pass for a certified measure
    with _named(path):
        return TreeMeasure(spec, leaf_mass)


def write_martingale(path, F: Martingale) -> None:
    """Write ``F`` in the columnar layout: ``nodes``, the ascending
    level-order id (m^n - 1) / (m - 1) + atom of each block that is not all
    zero (-0.0 counts as zero), and ``values``, those blocks' m x ell floats
    in one flat list in C order."""
    flat = np.concatenate(F.diffs)  # every block, in level order
    nodes = np.flatnonzero(np.any(flat != 0, axis=(1, 2)))
    values = flat[nodes].ravel()
    _refuse(path, "f0", F.f0, finite=False)
    _refuse(path, "values", values, finite=False)
    _dump(path, {"kind": "martingale", "m": F.spec.m, "depth": F.spec.depth, "ell": F.spec.ell, "f0": F.f0,
                 "nodes": nodes, "values": values})


def _node_ids(nodes: list, path, size: int) -> np.ndarray:
    """The int64 array of ``nodes``, a list of ascending ids in [0, size)."""
    if set(map(type, nodes)) - {int}:  # a bool would pass for an int, a float would truncate
        wrong = next(node for node in nodes if type(node) is not int)
        raise ValueError(f"{path}: nodes holds {wrong!r}, not an integer node id")
    if nodes and not (min(nodes) >= 0 and max(nodes) < size):
        raise ValueError(f"{path}: nodes holds an id outside [0, {size})")
    ids = np.array(nodes, dtype=np.int64)
    after = np.flatnonzero(ids[1:] <= ids[:-1])
    if after.size:
        raise ValueError(f"{path}: nodes is not ascending: {ids[after[0]]} comes before {ids[after[0] + 1]}")
    return ids


def read_martingale(path) -> Martingale:
    doc = _load(path, "martingale", ("m", "depth", "ell", "f0", "nodes", "values"), flat="values")
    with _named(path):
        spec = FiltrationSpec(doc["m"], doc["depth"], doc["ell"])
    m, depth, ell = spec.m, spec.depth, spec.ell
    starts = [(m**n - 1) // (m - 1) for n in range(depth + 1)]  # the first node of each level
    ids = _node_ids(doc["nodes"], path, starts[-1])
    values = _numbers(doc["values"], path, "values", 1)
    if values.size != ids.size * m * ell:
        raise ValueError(f"{path}: values holds {values.size} numbers, not {ids.size} x {m} x {ell}")
    flat = np.zeros((starts[-1], m, ell))
    flat[ids] = values.reshape(-1, m, ell)
    diffs = [flat[a:b] for a, b in zip(starts, starts[1:])]
    f0 = _numbers(doc["f0"], path, "f0", 1)
    with _named(path):
        return Martingale(spec, f0, diffs)


def write_subspace(path, W: SubspaceW) -> None:
    _refuse(path, "basis", W.basis, finite=True)
    _dump(path, {"kind": "subspace-w", "m": W.m, "ell": W.ell, "k": W.dim, "basis": W.basis})


def read_subspace(path) -> SubspaceW:
    doc = _load(path, "subspace-w", ("m", "ell", "k", "basis"))
    shape = (doc["k"], doc["m"], doc["ell"])
    try:
        basis = _numbers(doc["basis"], path, "basis", 3)
    except ValueError:
        basis = None
    if basis is None or min(shape) < 0 or basis.size != np.prod(shape):
        raise ValueError(f"{path}: the basis is not k x m x ell = {' x '.join(map(str, shape))} numbers")
    _refuse(path, "basis", basis, finite=True)
    with _named(path):  # numpy's reshape to a huge m or ell names no file
        return SubspaceW(doc["m"], doc["ell"], basis.reshape(shape))


def write_fibers(path, fibers: FiberFamily) -> None:
    packed = {}
    for gamma, basis in fibers.fibers.items():
        _refuse(path, f"fiber {gamma}", basis, finite=True)
        packed[str(gamma)] = np.stack([basis.real, basis.imag], axis=-1)
    _dump(path, {"kind": "fiber-family", "factors": list(fibers.group.factors), "ell": fibers.ell, "fibers": packed})


def read_fibers(path) -> FiberFamily:
    doc = _load(path, "fiber-family", ("factors", "ell", "fibers"))
    if doc["ell"] < 1:  # FiberFamily would take ell 0
        raise ValueError(f"{path}: the fiber-family file's 'ell' is {doc['ell']}, want at least 1")
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
        _refuse(path, f"fiber {key}", arr, finite=True)
        if arr.size and arr.shape[-1:] != (2,):  # arr[..., 1] would be an IndexError, which names no file
            raise ValueError(f"{path}: fiber {key} holds entries that are not [re, im] pairs")
        with _named(path):  # np.zeros of a huge ell names no file
            fibers[int(key)] = arr[..., 0] + 1j * arr[..., 1] if arr.size else np.zeros((0, doc["ell"]), complex)
    with _named(path):
        return FiberFamily(group=group, ell=doc["ell"], fibers=fibers)
