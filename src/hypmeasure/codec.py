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
the offending node.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Any

from .errors import SchemaError
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

    The text is exactly ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``,
    and the same inputs raise the same errors. The stdlib drops its C
    encoder when ``indent`` is set; this writer appends the chunks to one
    list and joins them once, and writes each bicomplex node (the one
    node per atom) from one template.
    """
    chunks: list[str] = []
    _encode(obj, 0, chunks.append, {})
    chunks.append("\n")
    return "".join(chunks)


_escape = json.encoder.encode_basestring_ascii
_INF = float("inf")


@functools.cache
def _node_template(level: int) -> str:
    """A bicomplex node with its braces at indent ``level``; one %r per float."""
    at, inner, item = ("\n" + "  " * d for d in (level, level + 1, level + 2))
    pair = f"[{item}%r,{item}%r{inner}]"
    return f'{{{inner}"e1": {pair},{inner}"e2": {pair}{at}}}'


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def _enter(o: Any, markers: dict) -> None:
    if id(o) in markers:
        raise ValueError("Circular reference detected")
    markers[id(o)] = o


def _encode(o: Any, level: int, append, markers: dict) -> None:
    """Append the text of ``o`` with its brackets at indent ``level``."""
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
                append(_node_template(level) % (a, b, c, d))
                return
    if isinstance(o, str):
        append(_escape(o))
    elif o is None:
        append("null")
    elif o is True:
        append("true")
    elif o is False:
        append("false")
    elif isinstance(o, int):
        append(int.__repr__(o))
    elif isinstance(o, float):
        append(_float_text(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            append("[]")
            return
        _enter(o, markers)
        level += 1
        newline = "\n" + "  " * level
        sep = "[" + newline
        for item in o:
            append(sep)
            sep = "," + newline
            _encode(item, level, append, markers)
        append("\n" + "  " * (level - 1) + "]")
        del markers[id(o)]
    elif isinstance(o, dict):
        if not o:
            append("{}")
            return
        _enter(o, markers)
        level += 1
        newline = "\n" + "  " * level
        sep = "{" + newline
        for key, value in sorted(o.items()):
            if type(key) is not str:
                key = _key_text(key)
            append(sep + _escape(key) + ": ")
            sep = "," + newline
            _encode(value, level, append, markers)
        append("\n" + "  " * (level - 1) + "}")
        del markers[id(o)]
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


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
        return complex(float(re), float(im))
    except OverflowError:
        # Name the part at fault: only an int overflows, and no int is NaN.
        for j, part in enumerate(x):
            if isinstance(part, int):
                _as_float(part, f"{loc}.{key}[{j}]")
        raise


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
    for i, label in enumerate(atoms):
        if not isinstance(label, str):
            raise SchemaError(f"{loc}.atoms[{i}]", "expected a string label")
    try:
        return FiniteSpace(tuple(atoms))
    except ValueError as exc:
        raise SchemaError(f"{loc}.atoms", str(exc)) from None


def mask_to_obj(mask: SetMask) -> list[str]:
    return sorted(mask.labels())


def _parse_table(
    body: dict, space: FiniteSpace, loc: str
) -> tuple[list[complex], list[complex]]:
    """Component lists of a label-to-bicomplex object; omitted atoms get 0.

    One pass in document order, with labels looked up in the space's
    index dict.
    """
    index = space._index
    e1 = [0j] * space.size
    e2 = [0j] * space.size
    for label, value in body.items():
        i = index.get(label)
        if i is None:
            raise SchemaError(f"{loc}.{label}", "unknown atom label")
        e1[i], e2[i] = _parse_components(value, f"{loc}.{label}")
    return e1, e2


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


def measure_to_obj(mu: TMeasure) -> dict:
    return {
        "space": space_to_obj(mu.space),
        "measure": table_to_obj(mu),
        "kind_hint": mu.kind.value,
    }


def _parse_document(
    obj: Any, loc: str, space: FiniteSpace | None, key: str
) -> tuple[dict, FiniteSpace, dict]:
    """The document object, its space and its body object under ``key``.

    The document's own ``space`` key wins; otherwise ``space`` must be
    supplied.
    """
    obj = _require_dict(obj, loc)
    if "space" in obj:
        space = parse_space(obj["space"], f"{loc}.space")
    if space is None:
        raise SchemaError(f"{loc}.space", "missing space")
    return obj, space, _require_dict(obj.get(key), f"{loc}.{key}")


def parse_measure(
    obj: Any, loc: str = "measure", space: FiniteSpace | None = None
) -> TMeasure:
    """Parse a measure document.

    The document's own ``space`` key wins; otherwise ``space`` must be
    supplied. A ``kind_hint``, when present, must be honoured by the
    data: entries may be stricter than the hint but never looser.
    """
    obj, space, body = _parse_document(obj, loc, space, "measure")
    mu = TMeasure(space, *_parse_table(body, space, f"{loc}.measure"))
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


def function_to_obj(f: TFunction, with_space: bool = True) -> dict:
    obj: dict[str, Any] = {"function": table_to_obj(f)}
    if with_space:
        obj["space"] = space_to_obj(f.space)
    return obj


def parse_function(
    obj: Any, loc: str = "function", space: FiniteSpace | None = None
) -> TFunction:
    _, space, body = _parse_document(obj, loc, space, "function")
    return TFunction(space, *_parse_table(body, space, f"{loc}.function"))


def map_to_obj(f: PointMap) -> dict:
    return {
        "space": space_to_obj(f.space),
        "map": {
            f.space.atoms[i]: f.space.atoms[int(f.image[i])]
            for i in range(f.space.size)
        },
    }


def parse_map(
    obj: Any, loc: str = "map", space: FiniteSpace | None = None
) -> PointMap:
    _, space, body = _parse_document(obj, loc, space, "map")
    index = space._index
    image = [-1] * space.size
    for src, dst in body.items():
        if not isinstance(dst, str):
            raise SchemaError(f"{loc}.map.{src}", "expected a string label")
        i = index.get(src)
        if i is None:
            raise SchemaError(f"{loc}.map.{src}", "unknown atom label")
        j = index.get(dst)
        if j is None:
            raise SchemaError(f"{loc}.map.{src}", f"unknown target label {dst!r}")
        image[i] = j
    missing = [label for label, j in zip(space.atoms, image) if j < 0]
    if missing:
        raise SchemaError(f"{loc}.map", f"map is not total; missing {missing}")
    return PointMap(space, image)
