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

import json
from typing import Any

from .errors import SchemaError
from .integration import TFunction
from .measures import MeasureKind, TMeasure
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
    "measure_to_obj",
    "parse_measure",
    "function_to_obj",
    "parse_function",
    "map_to_obj",
    "parse_map",
]


def dumps_canonical(obj: Any) -> str:
    """Serialize with sorted keys and a trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _require_number(x: Any, loc: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(loc, "expected a number")
    return float(x)


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
    return complex(float(re), float(im))


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


_KIND_ORDER = {
    MeasureKind.T: 0,
    MeasureKind.SIGNED_D: 1,
    MeasureKind.D: 2,
    MeasureKind.D_PLUS: 3,
}
_KIND_BY_HINT = {k.value: k for k in MeasureKind}


def measure_to_obj(mu: TMeasure) -> dict:
    return {
        "space": space_to_obj(mu.space),
        "measure": {
            label: bicomplex_to_obj(mu.atom(i))
            for i, label in enumerate(mu.space.atoms)
        },
        "kind_hint": mu.kind.value,
    }


def parse_measure(
    obj: Any, loc: str = "measure", space: FiniteSpace | None = None
) -> TMeasure:
    """Parse a measure document.

    The document's own ``space`` key wins; otherwise ``space`` must be
    supplied. A ``kind_hint``, when present, must be honoured by the
    data: entries may be stricter than the hint but never looser.
    """
    obj = _require_dict(obj, loc)
    if "space" in obj:
        space = parse_space(obj["space"], f"{loc}.space")
    if space is None:
        raise SchemaError(f"{loc}.space", "missing space")
    body = _require_dict(obj.get("measure"), f"{loc}.measure")
    mu = TMeasure(space, *_parse_table(body, space, f"{loc}.measure"))
    hint = obj.get("kind_hint")
    if hint is not None:
        if hint not in _KIND_BY_HINT:
            raise SchemaError(
                f"{loc}.kind_hint", "expected one of T, signedD, D, D+"
            )
        if _KIND_ORDER[mu.kind] < _KIND_ORDER[_KIND_BY_HINT[hint]]:
            raise SchemaError(
                f"{loc}.kind_hint",
                f"data has kind {mu.kind.value}, looser than the declared {hint}",
            )
    return mu


def function_to_obj(f: TFunction, with_space: bool = True) -> dict:
    obj: dict[str, Any] = {
        "function": {
            label: bicomplex_to_obj(f.value_at(i))
            for i, label in enumerate(f.space.atoms)
        }
    }
    if with_space:
        obj["space"] = space_to_obj(f.space)
    return obj


def parse_function(
    obj: Any, loc: str = "function", space: FiniteSpace | None = None
) -> TFunction:
    obj = _require_dict(obj, loc)
    if "space" in obj:
        space = parse_space(obj["space"], f"{loc}.space")
    if space is None:
        raise SchemaError(f"{loc}.space", "missing space")
    body = _require_dict(obj.get("function"), f"{loc}.function")
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
    obj = _require_dict(obj, loc)
    if "space" in obj:
        space = parse_space(obj["space"], f"{loc}.space")
    if space is None:
        raise SchemaError(f"{loc}.space", "missing space")
    body = _require_dict(obj.get("map"), f"{loc}.map")
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
