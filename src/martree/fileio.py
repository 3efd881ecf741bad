"""On-disk formats: tree measures, martingales, subspaces, fiber families.

``FILE_KINDS`` holds one entry per kind of file, under its ``kind`` tag, as
``cli.EXPERIMENTS`` holds one per config kind: the fields in the order they
are written, each header field's JSON type and least value, each numeric
array's nesting depth and what it refuses (any non-finite value, or a NaN
only), and the one flat array that ``_load`` streams.  ``_check`` applies it
to what a reader read and to what a writer is about to write, so both refuse
the same things, before any byte, with one ValueError naming the file and
the field; ``read_*`` and ``write_*`` keep only their own object's rules
(the martingale's node scatter, the subspace's k x m x ell shape, the
fibers' [re, im] pairs and character keys).  A new kind, or a new layout of
one, is one more entry.

Each file has the bytes of ``json.dumps(document, indent=1)``, its arrays
written (``_write_array``), and its flat array parsed (``_flat_array``),
``SLICE`` entries at a time.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .filtration import FiltrationSpec, Martingale, TreeMeasure
from .groupfourier import FiberFamily, FiniteAbelianGroup
from .spacew import SubspaceW

SLICE = 2_048  # entries of a numeric array formatted and written, or parsed, at once


class Field(NamedTuple):
    """A field of a kind of file: the test of its JSON type, that type's name and its least value; for a
    numeric array how deep its lists nest (0 for other fields) and whether it refuses every non-finite value
    or a NaN only; for an object of such arrays, ``each``, what errors call one of them."""

    is_type: Callable[[object], bool]
    type_name: str
    least: int | None = None
    depth: int = 0
    finite: bool = True
    each: str | None = None


class FileKind(NamedTuple):
    fields: dict[str, Field]  # in the order they are written, after the kind tag
    flat: str | None = None  # the flat array that ``_load`` streams


INTEGER = Field(lambda v: type(v) is int, "an integer")  # a bool passes for an int in Python
LIST = Field(lambda v: type(v) in (list, np.ndarray), "a list")  # a writer's or ``_load``'s array too
FILE_KINDS = {
    "tree-measure": FileKind({
        "m": INTEGER, "depth": INTEGER, "ell": INTEGER, "scalar": Field(lambda v: type(v) is bool, "a bool"),
        "leaf_mass": LIST._replace(depth=2),  # an infinite mass would pass for a certified measure
    }, flat="leaf_mass"),
    "martingale": FileKind({
        "m": INTEGER, "depth": INTEGER, "ell": INTEGER, "f0": LIST._replace(depth=1, finite=False),
        "nodes": LIST, "values": LIST._replace(depth=1, finite=False),
    }, flat="values"),
    "subspace-w": FileKind({"m": INTEGER, "ell": INTEGER, "k": INTEGER, "basis": LIST._replace(depth=3)}),
    "fiber-family": FileKind({
        "factors": Field(lambda v: type(v) is list and all(type(d) is int for d in v), "a list of integers"),
        "ell": INTEGER._replace(least=1),  # FiberFamily would take ell 0
        "fibers": Field(lambda v: type(v) is dict, "an object", depth=3, each="fiber"),
    }),
}


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


def _check(path, kind: str, doc: dict) -> dict:
    """The fields of ``doc``, a ``kind`` document read from ``path`` or to be written there, as ``FILE_KINDS``
    states them, each array as ``_numbers`` reads it: the one check of a reader and of a writer.  A field
    missing, of another JSON type or below its least value is a ValueError naming the file and the field."""
    checked = {}
    for name, rule in FILE_KINDS[kind].fields.items():
        if name not in doc:
            raise ValueError(f"{path}: the {kind} file lacks the field {name!r}")
        value = doc[name]
        if not rule.is_type(value):
            raise ValueError(f"{path}: the {kind} file's {name!r} is {value!r}, not {rule.type_name}")
        if rule.least is not None and value < rule.least:
            raise ValueError(f"{path}: the {kind} file's {name!r} is {value}, want at least {rule.least}")
        if rule.each:
            value = {key: _numbers(rows, path, f"{rule.each} {key}", rule) for key, rows in value.items()}
        elif rule.depth:
            value = _numbers(value, path, name, rule)
        checked[name] = value
    return checked


def _numbers(values, path, field: str, rule: Field) -> np.ndarray:
    """The float64 array of the JSON numbers ``values`` of ``field``, nested at most ``rule.depth`` lists deep.
    An array that ``_load`` streamed, or that a writer holds, is taken as it is; otherwise a bool, string, null
    or object entry is a ValueError naming the file and ``field``, and integers beyond int64 read as floats.  A
    ragged or deeper list is a ValueError too, and so is a NaN, or with ``rule.finite`` an infinity."""
    if not isinstance(values, np.ndarray):
        reason = _non_number(values)
        if reason is not None:
            raise ValueError(f"{path}: could not convert {reason} in {field}")
        try:
            values = np.asarray(values, dtype=float)
        except OverflowError:
            raise ValueError(f"{path}: could not convert an integer beyond the float range in {field}") from None
        except ValueError:  # a ragged list
            values = None
    if values is None or values.ndim > rule.depth:
        raise ValueError(f"{path}: {field} is not a rectangular array of numbers, nested at most {rule.depth} deep")
    if not (np.isfinite(values) if rule.finite else ~np.isnan(values)).all():  # NaN names no value at all
        raise ValueError(f"{path}: NaN is not a number in {field}" if np.isnan(values).any()
                         else f"{path}: {field} holds a non-finite value")
    return values


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


def _load(path, kind: str) -> dict:
    """The document of the ``kind`` file ``path``, its flat array (``FILE_KINDS``)
    read by ``_flat_array`` where it can be; json reads NaN and the infinities."""
    flat = FILE_KINDS[kind].flat

    def value(s, at):  # a value of the top-level object, after its key's closing quote
        return s.endswith(f'"{flat}"', 0, s.rfind('"', 0, at) + 1) and _flat_array(s, at, scan) or scan(s, at)

    text, doc = Path(path).read_text(), None
    scan, start = json.JSONDecoder().scan_once, _SPACE(text).end()
    if flat and text.startswith("{", start):  # json's own object parser, its values from ``value``
        with suppress(json.JSONDecodeError, OverflowError):
            doc, end = json.decoder.JSONObject((text, start + 1), True, value, None, None, {})
            doc = doc if _SPACE(text, end).end() == len(text) else None
    if doc is None:  # not one well-formed object: json says what is wrong, as it always did
        doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a {kind} file as a JSON object, got {type(doc).__name__}")
    if doc.get("kind") != kind:
        raise ValueError(f"{path}: expected kind {kind!r}, got {doc.get('kind')!r}")
    return doc


def _read(path, kind: str) -> dict:  # the checked fields of the ``kind`` file ``path``
    return _check(path, kind, _load(path, kind))


def _save(path, kind: str, doc: dict) -> None:  # write ``doc`` as the ``kind`` file ``path``, checked first
    _dump(path, {"kind": kind, **_check(path, kind, doc)})


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


def write_measure(path, mu: TreeMeasure) -> None:
    _save(path, "tree-measure", {"m": mu.spec.m, "depth": mu.spec.depth, "ell": mu.spec.ell,
                                 "scalar": mu.is_scalar, "leaf_mass": mu.leaf_mass})


def read_measure(path) -> TreeMeasure:
    doc = _read(path, "tree-measure")
    with _named(path):
        return TreeMeasure(FiltrationSpec(doc["m"], doc["depth"], doc["ell"]), doc["leaf_mass"])


def write_martingale(path, F: Martingale) -> None:
    """Write ``F`` in the columnar layout: ``nodes``, the ascending
    level-order id (m^n - 1) / (m - 1) + atom of each block that is not all
    zero (-0.0 counts as zero), and ``values``, those blocks' m x ell floats
    in one flat list in C order."""
    flat = np.concatenate(F.diffs)  # every block, in level order
    nodes = np.flatnonzero(np.any(flat != 0, axis=(1, 2)))
    _save(path, "martingale", {"m": F.spec.m, "depth": F.spec.depth, "ell": F.spec.ell, "f0": F.f0,
                               "nodes": nodes, "values": flat[nodes].ravel()})


def read_martingale(path) -> Martingale:
    doc = _read(path, "martingale")
    with _named(path):
        spec = FiltrationSpec(doc["m"], doc["depth"], doc["ell"])
    m, depth, ell, nodes, values = spec.m, spec.depth, spec.ell, doc["nodes"], doc["values"]
    starts = [(m**n - 1) // (m - 1) for n in range(depth + 1)]  # the first node of each level
    if set(map(type, nodes)) - {int}:  # a bool would pass for an int, a float would truncate
        wrong = next(node for node in nodes if type(node) is not int)
        raise ValueError(f"{path}: nodes holds {wrong!r}, not an integer node id")
    if nodes and not (min(nodes) >= 0 and max(nodes) < starts[-1]):
        raise ValueError(f"{path}: nodes holds an id outside [0, {starts[-1]})")
    ids = np.array(nodes, dtype=np.int64)
    after = np.flatnonzero(ids[1:] <= ids[:-1])
    if after.size:
        raise ValueError(f"{path}: nodes is not ascending: {ids[after[0]]} comes before {ids[after[0] + 1]}")
    if values.size != ids.size * m * ell:
        raise ValueError(f"{path}: values holds {values.size} numbers, not {ids.size} x {m} x {ell}")
    flat = np.zeros((starts[-1], m, ell))
    flat[ids] = values.reshape(-1, m, ell)
    with _named(path):
        return Martingale(spec, doc["f0"], [flat[a:b] for a, b in zip(starts, starts[1:])])


def write_subspace(path, W: SubspaceW) -> None:
    _save(path, "subspace-w", {"m": W.m, "ell": W.ell, "k": W.dim, "basis": W.basis})


def read_subspace(path) -> SubspaceW:
    doc = _read(path, "subspace-w")
    shape, basis = (doc["k"], doc["m"], doc["ell"]), doc["basis"]
    if min(shape) < 0 or basis.size != np.prod(shape):
        raise ValueError(f"{path}: the basis is not k x m x ell = {' x '.join(map(str, shape))} numbers")
    with _named(path):  # numpy's reshape to a huge m or ell names no file
        return SubspaceW(doc["m"], doc["ell"], basis.reshape(shape))


def write_fibers(path, fibers: FiberFamily) -> None:  # every character, the named ones first in their order
    gammas = [*fibers.fibers, *(gamma for gamma in range(1, fibers.group.order) if gamma not in fibers.fibers)]
    packed = {str(gamma): np.stack([basis.real, basis.imag], axis=-1)  # [re, im] pairs
              for gamma in gammas for basis in [fibers.fiber(gamma)]}
    _save(path, "fiber-family", {"factors": list(fibers.group.factors), "ell": fibers.ell, "fibers": packed})


def read_fibers(path) -> FiberFamily:
    doc = _read(path, "fiber-family")
    with _named(path):
        group = FiniteAbelianGroup(tuple(doc["factors"]))
    fibers = {}
    for key, arr in doc["fibers"].items():
        # a character's canonical decimal text: "01", " 1", "1.5" and "-1" name none
        if not (key.isascii() and key.isdecimal() and str(int(key)) == key and 0 < int(key) < group.order):
            raise ValueError(f"{path}: fiber key {key!r} names no character of the group; "
                             f"want an integer in [1, {group.order}) in decimal")
        if arr.size and arr.shape[-1:] != (2,):  # arr[..., 1] would be an IndexError, which names no file
            raise ValueError(f"{path}: fiber {key} holds entries that are not [re, im] pairs")
        with _named(path):  # np.zeros of a huge ell names no file
            fibers[int(key)] = arr[..., 0] + 1j * arr[..., 1] if arr.size else np.zeros((0, doc["ell"]), complex)
    with _named(path):
        return FiberFamily(group=group, ell=doc["ell"], fibers=fibers)
