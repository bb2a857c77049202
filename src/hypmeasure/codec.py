"""JSON wire formats for spaces, numbers, measures, functions, maps.

Encodings:

* hyperbolic: ``{"e1": u, "e2": v}``
* bicomplex: ``{"e1": [re, im], "e2": [re, im]}``
* space: ``{"atoms": ["a", "b", ...]}``
* measure: ``{"space": ..., "measure": {label: bicomplex}, "kind_hint": k}``
  with kind one of ``T | signedD | D | D+``
* function: ``{"function": {label: bicomplex}}`` plus an optional
  ``"space"`` key when the document stands alone
* map: ``{"space": ..., "map": {label: label}}``
* sets: sorted lists of atom labels

Serialization sorts object keys and floats round-trip exactly through
the shortest-repr encoding, so identical values yield byte-identical
documents. Parsing raises :class:`SchemaError` with the dotted path of
the offending node. Numbers are finite both ways: a NaN or infinite part
is refused on parsing, and writing one raises ``ValueError``.

:func:`dumps_canonical` writes the stdlib's ``json.dumps(obj, indent=2,
sort_keys=True, allow_nan=False)`` bytes for a JSON tree, and for an
:class:`AtomTable` node the bytes and errors of ``table_to_obj(t)``, so
the CLI hands it measures and functions without building their trees.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import operator
from itertools import chain
from typing import Any

import numpy as np

from .errors import InternalInvariantError, SchemaError
from .integration import TFunction
from .measures import KIND_RANK, AtomTable, MeasureKind, TMeasure
from .numbers import Bicomplex, Hyperbolic
from .spaces import FiniteSpace, SetMask
from .dynamics import PointMap

__all__ = [
    "dumps_canonical",
    "hyperbolic_to_obj",
    "parse_hyperbolic",
    "bicomplex_to_obj",
    "parse_bicomplex",
    "space_to_obj",
    "parse_space",
    "mask_to_obj",
    "parse_mask",
    "table_to_obj",
    "measure_to_obj",
    "parse_measure",
    "function_to_obj",
    "parse_function",
    "map_to_obj",
    "parse_map",
]


def dumps_canonical(obj: Any) -> str:
    """Serialize with sorted keys and a trailing newline.

    The text is exactly ``json.dumps(obj, indent=2, sort_keys=True,
    allow_nan=False) + "\\n"``, and the same inputs raise the same errors
    (``ValueError`` for a NaN or an infinity). A node may also be an
    :class:`AtomTable` (a measure or a function): it is written as
    ``table_to_obj(t)`` in its place.

    The stdlib drops its C encoder when ``indent`` is set, so the shapes
    the CLI writes have a writer of their own. It appends the chunks to one
    list and joins them once, so each character is copied once. A table
    adds its labels and nodes to that list as they are: the labels' sort
    order and escaped texts are cached on the space, each atom's node comes
    from one template that also carries the separator after it, and every
    all-zero node is one shared string. A list of strings and an object of
    string values are one join each. Any other shape (a key that is not a
    string, a number that is not finite, a type JSON lacks, a cycle) is
    handed to the stdlib, which writes the bytes or raises the error.
    """
    chunks: list[str] = []
    try:
        _encode(obj, 0, chunks)
    except (_Stdlib, RecursionError):
        # RecursionError: a cycle, or nesting past the stack.
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=_tree) + "\n"
    chunks.append("\n")
    return "".join(chunks)


class _Stdlib(Exception):
    """A shape the fast writer leaves to ``json.dumps``."""


def _tree(o: Any) -> dict:
    """``json.dumps``'s ``default``: a table's tree; the stdlib's TypeError otherwise."""
    if isinstance(o, AtomTable):
        return table_to_obj(o)
    return json.JSONEncoder.default(None, o)


_escape = json.encoder.encode_basestring_ascii


@functools.cache
def _node_template(level: int) -> str:
    """A bicomplex node with its braces at indent ``level``; one %r per float."""
    at, inner, item = ("\n" + "  " * d for d in (level, level + 1, level + 2))
    pair = f"[{item}%r,{item}%r{inner}]"
    return f'{{{inner}"e1": {pair},{inner}"e2": {pair}{at}}}'


def _table_chunks(t: AtomTable, level: int) -> list[str]:
    """The text of ``table_to_obj(t)`` at indent ``level`` in pieces."""
    order, keys = t.space._json_keys
    # One row per atom in sorted label order: e1.re, e1.im, e2.re, e2.im.
    parts = t.c.T[order].view(np.float64)
    if not np.isfinite(parts).all():
        raise _Stdlib
    # Each node carries the ": " after its key and the separator before the
    # next key; the last one carries the closing brace instead.
    newline = "\n" + "  " * (level + 1)
    node = ": " + _node_template(level + 1)
    sep = node + "," + newline
    # A row of +0.0 bits is the shared zero node; -0.0 keeps its sign.
    nodes = [sep % (0.0, 0.0, 0.0, 0.0)] * len(keys)
    live = parts.view(np.uint64).any(axis=1)
    for i, row in zip(np.flatnonzero(live).tolist(), parts[live].tolist()):
        nodes[i] = sep % tuple(row)
    nodes[-1] = (node + "\n" + "  " * level + "}") % tuple(parts[-1].tolist())
    # "{", then each key followed by its node.
    pieces = [None] * (2 * len(keys) + 1)
    pieces[0] = "{" + newline
    pieces[1::2] = keys
    pieces[2::2] = nodes
    return pieces


def _encode(o: Any, level: int, chunks: list) -> None:
    """Append the text of ``o`` with its brackets at indent ``level`` to ``chunks``."""
    if type(o) is dict and len(o) == 2:
        p = o.get("e1")
        q = o.get("e2")
        if type(p) is list and type(q) is list and len(p) == 2 and len(q) == 2:
            a, b = p
            c, d = q
            # Exact floats only (no subclass reprs), all finite: x * 0.0
            # is a zero for finite x and NaN otherwise.
            if (
                type(a) is float and type(b) is float
                and type(c) is float and type(d) is float
                and a * 0.0 + b * 0.0 + c * 0.0 + d * 0.0 == 0.0
            ):
                chunks.append(_node_template(level) % (a, b, c, d))
                return
    if isinstance(o, str):
        chunks.append(_escape(o))
    elif o is None:
        chunks.append("null")
    elif o is True:
        chunks.append("true")
    elif o is False:
        chunks.append("false")
    elif isinstance(o, int):
        chunks.append(int.__repr__(o))
    elif isinstance(o, float):
        if not math.isfinite(o):
            raise _Stdlib
        chunks.append(float.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            chunks.append("[]")
            return
        newline = "\n" + "  " * (level + 1)
        if set(map(type, o)) == {str}:
            chunks.append("[" + newline)
            chunks.append(("," + newline).join(map(_escape, o)))
        else:
            sep = "[" + newline
            for item in o:
                chunks.append(sep)
                sep = "," + newline
                _encode(item, level + 1, chunks)
        chunks.append("\n" + "  " * level + "]")
    elif isinstance(o, dict):
        if not o:
            chunks.append("{}")
            return
        if set(map(type, o)) != {str}:
            raise _Stdlib
        keys = sorted(o)
        newline = "\n" + "  " * (level + 1)
        if set(map(type, o.values())) == {str}:
            chunks.append("{" + newline)
            chunks.append(("," + newline).join(map(
                ": ".join, zip(map(_escape, keys), map(_escape, map(o.__getitem__, keys)))
            )))
        else:
            sep = "{" + newline
            for key in keys:
                chunks.append(sep + _escape(key) + ": ")
                sep = "," + newline
                _encode(o[key], level + 1, chunks)
        chunks.append("\n" + "  " * level + "}")
    elif isinstance(o, AtomTable):
        chunks += _table_chunks(o, level)
    else:
        raise _Stdlib


def _as_float(x: int | float, loc: str) -> float:
    """``float(x)``; NaN, infinities and ints past the float range are refused."""
    try:
        value = float(x)
    except OverflowError:
        raise SchemaError(loc, "number outside the float range") from None
    if not math.isfinite(value):
        raise SchemaError(loc, "expected a finite number")
    return value


def _require_number(x: Any, loc: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(loc, "expected a number")
    return _as_float(x, loc)


def _require_dict(x: Any, loc: str) -> dict:
    if not isinstance(x, dict):
        raise SchemaError(loc, "expected an object")
    return x


def hyperbolic_to_obj(h: Hyperbolic) -> dict:
    return {"e1": h.e1, "e2": h.e2}


def parse_hyperbolic(obj: Any, loc: str = "hyperbolic") -> Hyperbolic:
    obj = _require_dict(obj, loc)
    if set(obj) != {"e1", "e2"}:
        raise SchemaError(loc, "expected exactly the keys e1 and e2")
    return Hyperbolic(
        _require_number(obj["e1"], f"{loc}.e1"),
        _require_number(obj["e2"], f"{loc}.e2"),
    )


def bicomplex_to_obj(b: Bicomplex) -> dict:
    return {
        "e1": [b.e1.real, b.e1.imag],
        "e2": [b.e2.real, b.e2.imag],
    }


def _parse_complex_pair(obj: dict, key: str, loc: str) -> complex:
    # Locations are built only on error: this runs twice per atom.
    x = obj[key]
    if not isinstance(x, list) or len(x) != 2:
        raise SchemaError(f"{loc}.{key}", "expected [re, im]")
    re, im = x
    if isinstance(re, bool) or not isinstance(re, (int, float)):
        raise SchemaError(f"{loc}.{key}[0]", "expected a number")
    if isinstance(im, bool) or not isinstance(im, (int, float)):
        raise SchemaError(f"{loc}.{key}[1]", "expected a number")
    try:
        z = complex(float(re), float(im))
    except OverflowError:
        z = None
    if z is None or not cmath.isfinite(z):
        # Name the first part past the float range, NaN or infinite.
        for j, part in enumerate(x):
            _as_float(part, f"{loc}.{key}[{j}]")
    return z


def _parse_components(obj: Any, loc: str) -> tuple[complex, complex]:
    obj = _require_dict(obj, loc)
    if len(obj) != 2 or "e1" not in obj or "e2" not in obj:
        raise SchemaError(loc, "expected exactly the keys e1 and e2")
    return (
        _parse_complex_pair(obj, "e1", loc),
        _parse_complex_pair(obj, "e2", loc),
    )


def parse_bicomplex(obj: Any, loc: str = "bicomplex") -> Bicomplex:
    return Bicomplex(*_parse_components(obj, loc))


def space_to_obj(space: FiniteSpace) -> dict:
    return {"atoms": list(space.atoms)}


def parse_space(obj: Any, loc: str = "space") -> FiniteSpace:
    obj = _require_dict(obj, loc)
    atoms = obj.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        raise SchemaError(f"{loc}.atoms", "expected a nonempty list of labels")
    if not _all_of(atoms, str):
        for i, label in enumerate(atoms):
            if not isinstance(label, str):
                raise SchemaError(f"{loc}.atoms[{i}]", "expected a string label")
    try:
        return FiniteSpace(tuple(atoms))
    except ValueError as exc:
        raise SchemaError(f"{loc}.atoms", str(exc)) from None


def mask_to_obj(mask: SetMask) -> list[str]:
    return sorted(mask.labels())


def _parse_table(body: Any, space: FiniteSpace, loc: str, cls: type) -> AtomTable:
    """The ``cls`` table of a label-to-bicomplex object at ``loc``, over its parsed array.

    Omitted atoms are ``0j``. The body is checked by whole columns, one
    pass per check over C-level iterators: labels against the space's
    index, then the types and lengths of the values, of their ``e1`` and
    ``e2`` pairs and of the parts, then one float array and its
    finiteness. If any check fails, a per-atom walk in document order
    names the first bad node; it never builds a table.
    """
    body = _require_dict(body, loc)
    c = _table_columns([body], space)
    if c is None:
        for label, value in body.items():
            if label not in space._index:
                raise SchemaError(f"{loc}.{label}", "unknown atom label")
            _parse_components(value, f"{loc}.{label}")
        raise InternalInvariantError(f"{loc}: a valid table failed its column check")
    return cls._views(space, c)[0]


_E1 = operator.itemgetter("e1")
_E2 = operator.itemgetter("e2")


def _all_of(items, cls) -> bool:
    """``isinstance(x, cls)`` for every item, with one ``type()`` call per item."""
    types = set(map(type, items))
    # Items of exactly one class are the usual case; skip the generator then.
    if len(types) == 1 and cls in types:
        return True
    return all(issubclass(t, cls) for t in types)


def _table_columns(bodies: list, space: FiniteSpace) -> np.ndarray | None:
    """The (K, 2, n) stack of K bodies' tables if every column check passes, else None."""
    if not _all_of(bodies, dict):
        return None
    n = space.size
    c = np.zeros((len(bodies), 2, n), dtype=np.complex128)
    idx = list(map(space._index.get, chain.from_iterable(bodies)))
    values = list(chain.from_iterable(map(dict.values, bodies)))
    if None in idx or not _all_of(values, dict) or set(map(len, values)) - {2}:
        return None
    try:
        pairs = list(map(_E1, values)) + list(map(_E2, values))
    except KeyError:
        return None
    if not _all_of(pairs, list) or set(map(len, pairs)) - {2}:
        return None
    parts = list(chain.from_iterable(pairs))
    # Numbers are int or float but not bool, as in _require_number.
    for t in set(map(type, parts)):
        if not issubclass(t, (int, float)) or issubclass(t, bool):
            return None
    try:
        # numpy rounds an int to float64 as float() does.
        z = np.array(parts, dtype=np.float64)
    except OverflowError:
        return None
    if not np.isfinite(z).all():
        return None
    # [re, im, ...]: e1 values, then e2; body k's rows start 2n * k into the stack.
    if len(bodies) > 1:
        offsets = np.repeat(np.arange(0, 2 * n * len(bodies), 2 * n), list(map(len, bodies)))
        idx = offsets + np.array(idx, dtype=np.intp)
    z = z.view(np.complex128)
    flat = c.reshape(-1)
    flat.put(idx, z[: len(idx)])
    flat[n:].put(idx, z[len(idx) :])
    return c


def parse_mask(obj: Any, space: FiniteSpace, loc: str = "set") -> SetMask:
    if not isinstance(obj, list):
        raise SchemaError(loc, "expected a list of atom labels")
    for i, label in enumerate(obj):
        if not isinstance(label, str):
            raise SchemaError(f"{loc}[{i}]", "expected a string label")
    try:
        return space.subset_of_labels(obj)
    except ValueError as exc:
        raise SchemaError(loc, str(exc)) from None


_KIND_BY_HINT = {k.value: k for k in MeasureKind}


def table_to_obj(t: AtomTable) -> dict:
    """Label to bicomplex object for every atom of a measure or function.

    Reads the (2, n) table once; the values are the Python floats
    ``bicomplex_to_obj(t.atom(i))`` holds, ``-0.0`` included.
    """
    return {
        label: {"e1": [w1.real, w1.imag], "e2": [w2.real, w2.imag]}
        for label, w1, w2 in zip(t.space.atoms, *t.c.tolist())
    }


def measure_to_obj(mu: TMeasure, expand: bool = True) -> dict:
    """The measure document; ``expand=False`` keeps the table itself as its
    ``measure`` node, which :func:`dumps_canonical` writes with the same bytes.
    """
    return {
        "space": space_to_obj(mu.space),
        "measure": table_to_obj(mu) if expand else mu,
        "kind_hint": mu.kind.value,
    }


def _parse_document(
    obj: Any, loc: str, space: FiniteSpace | None, key: str
) -> tuple[dict, FiniteSpace, Any]:
    """The document object, its space and its body under ``key``.

    The document's own ``space`` key wins; otherwise ``space`` must be
    supplied.
    """
    obj = _require_dict(obj, loc)
    if "space" in obj:
        space = parse_space(obj["space"], f"{loc}.space")
    if space is None:
        raise SchemaError(f"{loc}.space", "missing space")
    return obj, space, obj.get(key)


def parse_measure(
    obj: Any, loc: str = "measure", space: FiniteSpace | None = None
) -> TMeasure:
    """Parse a measure document.

    The document's own ``space`` key wins; otherwise ``space`` must be
    supplied. A ``kind_hint``, when present, must be honoured by the
    data: entries may be stricter than the hint but never looser.
    """
    obj, space, body = _parse_document(obj, loc, space, "measure")
    mu = _parse_table(body, space, f"{loc}.measure", TMeasure)
    hint = obj.get("kind_hint")
    if hint is not None:
        if not isinstance(hint, str) or hint not in _KIND_BY_HINT:
            raise SchemaError(
                f"{loc}.kind_hint", "expected one of T, signedD, D, D+"
            )
        if KIND_RANK[mu.kind] < KIND_RANK[_KIND_BY_HINT[hint]]:
            raise SchemaError(
                f"{loc}.kind_hint",
                f"data has kind {mu.kind.value}, looser than the declared {hint}",
            )
    return mu


def function_to_obj(f: TFunction, with_space: bool = True, expand: bool = True) -> dict:
    """The function document; ``expand`` as in :func:`measure_to_obj`."""
    obj: dict[str, Any] = {"function": table_to_obj(f) if expand else f}
    if with_space:
        obj["space"] = space_to_obj(f.space)
    return obj


def parse_function(
    obj: Any, loc: str = "function", space: FiniteSpace | None = None
) -> TFunction:
    _, space, body = _parse_document(obj, loc, space, "function")
    return _parse_table(body, space, f"{loc}.function", TFunction)


def _parse_functions(objs: list, locs: list[str], space: FiniteSpace) -> list[TFunction]:
    """``parse_function`` of each document; those without their own ``space`` are views
    of one column pass. If it fails a check, parsing each alone names the first bad node."""
    alone = [not isinstance(o, dict) or "space" in o for o in objs]
    stack = _table_columns([o.get("function") for o, a in zip(objs, alone) if not a], space)
    if stack is None:
        return [parse_function(o, loc, space) for o, loc in zip(objs, locs)]
    views = iter(TFunction._views(space, stack))
    return [parse_function(o, loc, space) if a else next(views) for o, loc, a in zip(objs, locs, alone)]


def map_to_obj(f: PointMap) -> dict:
    atoms = f.space.atoms
    return {
        "space": space_to_obj(f.space),
        "map": dict(zip(atoms, map(atoms.__getitem__, f.image.tolist()))),
    }


def parse_map(
    obj: Any, loc: str = "map", space: FiniteSpace | None = None
) -> PointMap:
    """Parse a map document; every atom needs one target label.

    A total body is checked by whole columns: each atom's target, read in
    index order, must be a string, and every target a known label. If any
    check fails, a pass in document order names the first bad entry.
    """
    _, space, body = _parse_document(obj, loc, space, "map")
    loc = f"{loc}.map"
    body = _require_dict(body, loc)
    index = space._index
    if len(body) == space.size:
        # With as many entries as atoms, reading every atom's entry without
        # a KeyError means the keys are exactly the atoms.
        try:
            targets = list(map(body.__getitem__, space.atoms))
            image = list(map(index.__getitem__, targets)) if _all_of(targets, str) else None
        except KeyError:
            image = None
        if image is not None:
            return PointMap(space, image)
    image = [-1] * space.size
    for src, dst in body.items():
        if not isinstance(dst, str):
            raise SchemaError(f"{loc}.{src}", "expected a string label")
        i = index.get(src)
        if i is None:
            raise SchemaError(f"{loc}.{src}", "unknown atom label")
        j = index.get(dst)
        if j is None:
            raise SchemaError(f"{loc}.{src}", f"unknown target label {dst!r}")
        image[i] = j
    missing = [label for label, j in zip(space.atoms, image) if j < 0]
    if missing:
        raise SchemaError(loc, f"map is not total; missing {missing}")
    raise InternalInvariantError(f"{loc}: a valid map failed its column check")
