"""Wire-format round-trips and end-to-end command-line runs."""

import contextlib
import copy
import dataclasses
import gc
import io
import json
import math
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypmeasure import (
    Bicomplex,
    FiniteSpace,
    Hyperbolic,
    PointMap,
    SchemaError,
    TFunction,
    TMeasure,
    bicomplex_to_obj,
    dumps_canonical,
    function_to_obj,
    hyperbolic_to_obj,
    map_to_obj,
    mask_to_obj,
    measure_to_obj,
    parse_bicomplex,
    parse_function,
    parse_hyperbolic,
    parse_map,
    parse_mask,
    parse_measure,
    parse_space,
    space_to_obj,
)
from hypmeasure import generators as gen_mod
from hypmeasure.cli import GEN_KINDS, build_parser, main
from hypmeasure.codec import _parse_functions, table_to_obj
from hypmeasure.integration import dct_run
from hypmeasure.measures import AtomTable
from hypmeasure.numbers import SeriesWitness
import hypmeasure.measures as measures_mod
import hypmeasure.verify as verify_mod


class TestScalarCodec:
    def test_hyperbolic_round_trip(self):
        for h in (Hyperbolic(0.1, -3.0), Hyperbolic(1e-17, 2**53 + 1.0)):
            assert parse_hyperbolic(hyperbolic_to_obj(h)) == h

    def test_bicomplex_round_trip(self):
        b = Bicomplex(0.1 + 0.2j, -7.25 - 1e-30j)
        assert parse_bicomplex(bicomplex_to_obj(b)) == b

    def test_bool_is_not_a_number(self):
        with pytest.raises(SchemaError) as exc:
            parse_hyperbolic({"e1": True, "e2": 0})
        assert exc.value.location == "hyperbolic.e1"

    def test_integer_past_float_range(self):
        with pytest.raises(SchemaError) as exc:
            parse_hyperbolic({"e1": 0, "e2": -(10**400)})
        assert exc.value.location == "hyperbolic.e2"
        with pytest.raises(SchemaError) as exc:
            parse_bicomplex({"e1": [1, 0], "e2": [1, 10**400]})
        assert exc.value.location == "bicomplex.e2[1]"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_hyperbolic_is_refused(self, value):
        with pytest.raises(SchemaError) as exc:
            parse_hyperbolic({"e1": 0, "e2": value})
        assert exc.value.location == "hyperbolic.e2"
        assert exc.value.message == "expected a finite number"

    def test_missing_component(self):
        with pytest.raises(SchemaError):
            parse_bicomplex({"e1": [1, 0]})
        with pytest.raises(SchemaError):
            parse_bicomplex({"e1": [1, 0], "e2": [1]})


_NON_FINITE_TOKENS = ["NaN", "Infinity", "-Infinity", "1e400"]
_PARTS = [("e1", 0), ("e1", 1), ("e2", 0), ("e2", 1)]


def _node_text(bad):
    """A bicomplex node's JSON text with ``bad[(component, j)]`` tokens in place."""
    parts = {"e1": ["1.5", "0"], "e2": ["-2", "3"]}
    for (component, j), token in bad.items():
        parts[component][j] = token
    return "{" + ", ".join(f'"{c}": [{p[0]}, {p[1]}]' for c, p in parts.items()) + "}"


def _parse_node_in_each_document(node):
    """Parse ``node`` as a bicomplex number, as a measure's and a function's atom b."""
    space = '{"atoms": ["a", "b"]}'
    good = _node_text({})
    return [
        (lambda: parse_bicomplex(json.loads(node)), "bicomplex"),
        (lambda: parse_measure(json.loads(
            f'{{"space": {space}, "measure": {{"a": {good}, "b": {node}}}}}')), "measure.measure.b"),
        (lambda: parse_function(json.loads(
            f'{{"space": {space}, "function": {{"a": {good}, "b": {node}}}}}')), "function.function.b"),
    ]


class TestFiniteBoundary:
    """The codec reads and writes finite numbers only; the library takes any."""

    @pytest.mark.parametrize("token", _NON_FINITE_TOKENS)
    @pytest.mark.parametrize("part", _PARTS, ids=lambda p: f"{p[0]}[{p[1]}]")
    def test_non_finite_part_is_refused_at_its_path(self, part, token):
        for parse, where in _parse_node_in_each_document(_node_text({part: token})):
            with pytest.raises(SchemaError) as exc:
                parse()
            assert (exc.value.location, exc.value.message) == (
                f"{where}.{part[0]}[{part[1]}]", "expected a finite number"
            )

    def test_first_bad_part_in_document_order_is_named(self):
        for i, first in enumerate(_PARTS):
            for later in _PARTS[i + 1:]:
                node = _node_text({later: "NaN", first: "-Infinity"})
                for parse, where in _parse_node_in_each_document(node):
                    with pytest.raises(SchemaError) as exc:
                        parse()
                    assert exc.value.location == f"{where}.{first[0]}[{first[1]}]"
        # Atoms are read in document order, not in the space's order.
        text = (
            '{"space": {"atoms": ["a", "b"]}, '
            f'"measure": {{"b": {_node_text({("e2", 1): "NaN"})}, '
            f'"a": {_node_text({("e1", 0): "NaN"})}}}}}'
        )
        with pytest.raises(SchemaError) as exc:
            parse_measure(json.loads(text))
        assert exc.value.location == "measure.measure.b.e2[1]"

    def test_library_tables_still_hold_non_finite_values(self):
        space = FiniteSpace(("a", "b"))
        e1 = np.array([math.nan, 1.0 + 1j * math.inf])
        e2 = np.array([-math.inf, 2.0])
        for table in (TMeasure(space, e1, e2), TFunction(space, e1, e2)):
            assert not table.is_finite()
            assert np.isnan(table.e1[0]) and table.e1[1].imag == math.inf
            assert table.e2[0] == -math.inf
            # The writer refuses them, as the stdlib does with allow_nan=False.
            with pytest.raises(ValueError):
                dumps_canonical(table_to_obj(table))


class TestStructureCodec:
    def test_space_round_trip(self):
        space = FiniteSpace(("a", "b", "c"))
        assert parse_space(space_to_obj(space)) == space
        with pytest.raises(SchemaError) as exc:
            parse_space({"atoms": ["a", "a"]}, "doc.space")
        assert exc.value.location.startswith("doc.space")

    def test_mask_sorted_and_round_trips(self):
        space = FiniteSpace(("a", "b", "c"))
        mask = space.subset_of_indices([0, 2])
        assert mask_to_obj(mask) == ["a", "c"]
        assert parse_mask(["c", "a"], space) == mask
        with pytest.raises(SchemaError) as exc:
            parse_mask(["z"], space, "doc.set")
        assert exc.value.location == "doc.set"

    def test_measure_round_trip_exact(self):
        space = FiniteSpace(("a", "b"))
        mu = TMeasure.from_atoms(
            space,
            {"a": Bicomplex(1 / 3 + 0.7j, -2e-9), "b": Bicomplex(5, 1e300)},
        )
        again = parse_measure(measure_to_obj(mu))
        assert again.equal_exact(mu)
        assert again.kind == mu.kind

    def test_kind_hint_strict_ok_loose_rejected(self):
        space_obj = space_to_obj(FiniteSpace(("a",)))
        body = {"a": {"e1": [1, 0], "e2": [2, 0]}}
        # D+ data may be declared under the wider signedD hint
        parse_measure({"space": space_obj, "measure": body, "kind_hint": "signedD"})
        signed = {"a": {"e1": [-1, 0], "e2": [2, 0]}}
        with pytest.raises(SchemaError) as exc:
            parse_measure({"space": space_obj, "measure": signed, "kind_hint": "D+"})
        assert "looser" in str(exc.value)
        with pytest.raises(SchemaError):
            parse_measure({"space": space_obj, "measure": body, "kind_hint": "bogus"})

    def test_measure_unknown_atom_location(self):
        obj = {
            "space": {"atoms": ["a"]},
            "measure": {"z": {"e1": [1, 0], "e2": [0, 0]}},
        }
        with pytest.raises(SchemaError) as exc:
            parse_measure(obj, "input")
        assert exc.value.location == "input.measure.z"

    def test_function_round_trip(self):
        space = FiniteSpace(("a", "b"))
        f = TFunction.from_atoms(space, {"a": Bicomplex(1j, 0.5), "b": Bicomplex(2, 3)})

        def same(g):
            return np.array_equal(g.e1, f.e1) and np.array_equal(g.e2, f.e2)

        assert same(parse_function(function_to_obj(f)))
        bare = function_to_obj(f, with_space=False)
        assert "space" not in bare
        assert same(parse_function(bare, space=space))
        with pytest.raises(SchemaError):
            parse_function(bare)  # no space anywhere

    def test_map_round_trip_and_errors(self):
        space = FiniteSpace(("a", "b"))
        f = PointMap.from_labels(space, {"a": "b", "b": "a"})
        g = parse_map(map_to_obj(f))
        assert list(g.image) == list(f.image)
        with pytest.raises(SchemaError) as exc:
            parse_map({"space": space_to_obj(space), "map": {"a": "b"}})
        assert exc.value.location == "map.map"
        with pytest.raises(SchemaError):
            parse_map({"space": space_to_obj(space), "map": {"a": "z", "b": "a"}})

    def test_map_error_locations(self):
        space = space_to_obj(FiniteSpace(("a", "b")))
        with pytest.raises(SchemaError) as exc:
            parse_map({"space": space, "map": {"a": "b", "b": "z"}})
        assert exc.value.location == "map.map.b"
        assert exc.value.message == "unknown target label 'z'"
        with pytest.raises(SchemaError) as exc:
            parse_map({"space": space, "map": {"a": 1, "b": "a"}})
        assert exc.value.location == "map.map.a"
        assert exc.value.message == "expected a string label"
        with pytest.raises(SchemaError) as exc:
            parse_map({"space": space, "map": {"z": "a"}})
        assert exc.value.location == "map.map.z"
        assert exc.value.message == "unknown atom label"
        # within one entry the target's type is checked first
        with pytest.raises(SchemaError) as exc:
            parse_map({"space": space, "map": {"z": 1}})
        assert exc.value.message == "expected a string label"

    def test_function_unknown_atom_location(self):
        obj = {
            "space": {"atoms": ["a"]},
            "function": {"a": {"e1": [1, 0], "e2": [0, 0]}, "q": {"e1": [1, 0], "e2": [0, 0]}},
        }
        with pytest.raises(SchemaError) as exc:
            parse_function(obj)
        assert exc.value.location == "function.function.q"
        assert exc.value.message == "unknown atom label"

    def test_errors_follow_document_order(self):
        space = {"atoms": ["a", "b"]}
        good = {"e1": [1, 0], "e2": [0, 0]}
        bad_value = {"e1": [1, "x"], "e2": [0, 0]}
        obj = {"space": space, "measure": {"b": bad_value, "z": good}}
        with pytest.raises(SchemaError) as exc:
            parse_measure(obj)
        assert exc.value.location == "measure.measure.b.e1[1]"
        obj = {"space": space, "measure": {"z": good, "b": bad_value}}
        with pytest.raises(SchemaError) as exc:
            parse_measure(obj)
        assert exc.value.location == "measure.measure.z"
        with pytest.raises(SchemaError) as exc:
            parse_map({"space": space, "map": {"z": "a", "a": 3}})
        assert exc.value.location == "map.map.z"

    @pytest.mark.parametrize(
        "parse, key", [(parse_measure, "measure"), (parse_function, "function"), (parse_map, "map")]
    )
    def test_document_header_errors(self, parse, key):
        # Every document kind resolves its space and body the same way.
        space = FiniteSpace(("a",))
        cases = [
            ([1], {}, "doc", "expected an object"),
            ({key: {}}, {}, "doc.space", "missing space"),
            ({"space": {"atoms": []}, key: {}}, {"space": space}, "doc.space.atoms",
             "expected a nonempty list of labels"),
            ({"space": {"atoms": ["a"]}}, {}, f"doc.{key}", "expected an object"),
            ({key: 3}, {"space": space}, f"doc.{key}", "expected an object"),
        ]
        for obj, kwargs, location, message in cases:
            with pytest.raises(SchemaError) as exc:
                parse(obj, "doc", **kwargs)
            assert (exc.value.location, exc.value.message) == (location, message)
        # A supplied space is used when the document has none; its own wins.
        assert parse({key: {}} if key != "map" else {key: {"a": "a"}}, "doc", space).space is space
        own = parse({"space": {"atoms": ["b"]}, key: {} if key != "map" else {"b": "b"}}, "doc", space)
        assert own.space.atoms == ("b",)

    def test_canonical_dump_is_key_order_insensitive(self):
        a = dumps_canonical({"b": 1, "a": [1.5, {"y": 2, "x": 3}]})
        b = dumps_canonical({"a": [1.5, {"x": 3, "y": 2}], "b": 1})
        assert a == b
        assert a.endswith("\n")


class TestCodecAtScale:
    """Round trips at 10^5 atoms; parsing is linear in the atom count."""

    N = 100_000

    @pytest.fixture(scope="class")
    def big(self):
        n = self.N
        space = FiniteSpace(tuple(f"x{i:06d}" for i in range(n)))
        rng = np.random.default_rng(5)

        def values():
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
            v[::7] = -0.0
            v[1::11] = 5e-324
            return v

        e1 = values() + 1j * values()
        e2 = values() - 1j * values()
        return space, rng, e1, e2

    @staticmethod
    def _same_bits(a, b):
        return a.tobytes() == b.tobytes()

    def test_measure(self, big):
        space, _, e1, e2 = big
        mu = TMeasure(space, e1, e2)
        again = parse_measure(json.loads(json.dumps(measure_to_obj(mu))))
        assert self._same_bits(again.e1, mu.e1)
        assert self._same_bits(again.e2, mu.e2)

    def test_function(self, big):
        space, _, e1, e2 = big
        f = TFunction(space, e2, e1)
        again = parse_function(json.loads(json.dumps(function_to_obj(f))))
        assert self._same_bits(again.e1, f.e1)
        assert self._same_bits(again.e2, f.e2)

    def test_map(self, big):
        space, rng, _, _ = big
        f = PointMap(space, rng.integers(0, self.N, size=self.N))
        again = parse_map(json.loads(json.dumps(map_to_obj(f))))
        assert np.array_equal(again.image, f.image)

    def test_mask(self, big):
        space, rng, _, _ = big
        members = np.flatnonzero(rng.random(self.N) < 0.5).tolist()
        mask = space.subset_of_indices(members)
        again = parse_mask(json.loads(json.dumps(mask_to_obj(mask))), space)
        assert again == mask
        assert again.indices().tolist() == members


# Largest int that float() rounds into the float range: 2**1024 - 2**970
# and above round up to 2**1024 and overflow.
_MAX_FLOAT_INT = 2**1024 - 2**970 - 1
_PART_POOL = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 1.7976931348623155e308, 2**53 + 1, -(2**63), 2**63, 2**64 + 1,
    _MAX_FLOAT_INT, -_MAX_FLOAT_INT, 0, 1, -7,
]


def _random_part(rng):
    """A finite JSON number: a float over the exponent range, an int, or an edge value."""
    kind = rng.integers(4)
    if kind == 0:
        return float(rng.standard_normal() * 10.0 ** rng.integers(-320, 308))
    if kind == 1:
        return _PART_POOL[rng.integers(len(_PART_POOL))]
    if kind == 2:
        # Ints past 2**53, where float() rounds, up to about 2**1000.
        big = int(rng.integers(1, 2**62)) << int(rng.integers(0, 940))
        return big if rng.random() < 0.5 else -big
    return int(rng.integers(-(2**31), 2**31))


def _random_body(rng, space):
    """A valid table body: a shuffled subset of the atoms (possibly none)."""
    labels = list(space.atoms)
    rng.shuffle(labels)
    labels = labels[: rng.integers(0, len(labels) + 1)] if rng.random() < 0.5 else labels
    return {
        label: {key: [_random_part(rng), _random_part(rng)] for key in ("e1", "e2")}
        for label in labels
    }


def _per_atom_table(body, space, loc):
    """``body`` read one atom at a time: its (2, n) table, or its first error.

    The reference for the codec's column parse; the first error in
    document order comes back as ``(location, message)``.
    """
    position = {label: i for i, label in enumerate(space.atoms)}
    c = [[0j] * space.size, [0j] * space.size]
    for label, value in body.items():
        at = f"{loc}.{label}"
        if label not in position:
            return at, "unknown atom label"
        if not isinstance(value, dict):
            return at, "expected an object"
        if len(value) != 2 or "e1" not in value or "e2" not in value:
            return at, "expected exactly the keys e1 and e2"
        for row, key in enumerate(("e1", "e2")):
            pair = value[key]
            if not isinstance(pair, list) or len(pair) != 2:
                return f"{at}.{key}", "expected [re, im]"
            for j, part in enumerate(pair):
                if isinstance(part, bool) or not isinstance(part, (int, float)):
                    return f"{at}.{key}[{j}]", "expected a number"
            for j, part in enumerate(pair):
                try:
                    x = float(part)
                except OverflowError:
                    return f"{at}.{key}[{j}]", "number outside the float range"
                if not math.isfinite(x):
                    return f"{at}.{key}[{j}]", "expected a finite number"
            c[row][position[label]] = complex(float(pair[0]), float(pair[1]))
    return np.array(c, dtype=np.complex128)


# One malformation of one atom: (its value) -> the replacement value.
_ATOM_MUTATIONS = {
    "bool part": lambda v: {**v, "e1": [v["e1"][0], True]},
    "string part": lambda v: {**v, "e2": ["1.0", v["e2"][1]]},
    "three parts": lambda v: {**v, "e2": v["e2"] + [0.0]},
    "one part": lambda v: {**v, "e1": v["e1"][:1]},
    "pair not a list": lambda v: {**v, "e1": {"re": 1.0, "im": 0.0}},
    "missing key": lambda v: {"e1": v["e1"]},
    "extra key": lambda v: {**v, "e3": [0.0, 0.0]},
    "renamed key": lambda v: {"e1": v["e1"], "E2": v["e2"]},
    "list value": lambda v: [v["e1"], v["e2"]],
    "string value": lambda v: "1+2j",
    "null value": lambda v: None,
    "NaN part": lambda v: {**v, "e2": [v["e2"][0], math.nan]},
    "Infinity part": lambda v: {**v, "e1": [-math.inf, v["e1"][1]]},
    "int past the float range": lambda v: {**v, "e1": [v["e1"][0], 10**400]},
    "int rounding past the float range": lambda v: {**v, "e2": [2**1024 - 2**970, 0]},
}


def _parse_outcome(parse):
    """``parse()``'s result, or its SchemaError as ``(location, message)``."""
    try:
        return parse()
    except SchemaError as exc:
        return exc.location, exc.message


def _parse_function_body(body, space):
    return _parse_outcome(lambda: parse_function({"function": body}, "f", space).c)


def _same_table(got, want):
    """Equal bits (so -0.0 and +0.0 differ), or the same error."""
    if isinstance(want, tuple) or isinstance(got, tuple):
        return got == want
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestColumnParse:
    """The column parse of atom tables, and the map parse, give the per-atom results.

    Valid bodies give the same bits as ``complex(float(re), float(im))``
    per pair; a malformed body raises the SchemaError of the first bad
    node in document order, at its location and with its message.
    """

    @settings(max_examples=80, deadline=None)
    @given(n=st.sampled_from([1, 23, 24, 200]), seed=st.integers(0, 2**32 - 1))
    def test_valid_bodies_give_per_atom_bits(self, n, seed):
        rng = np.random.default_rng(seed)
        space = gen_mod.make_space(n)
        body = json.loads(json.dumps(_random_body(rng, space)))
        want = _per_atom_table(body, space, "f.function")
        assert _same_table(_parse_function_body(body, space), want)
        mu = parse_measure({"measure": body}, "m", space)
        assert mu.c.tobytes() == want.tobytes()

    def test_empty_body_is_all_zero(self):
        space = gen_mod.make_space(3)
        got = parse_measure({"measure": {}}, "m", space).c
        assert got.tobytes() == np.zeros((2, 3), dtype=np.complex128).tobytes()

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.sampled_from([1, 23, 24, 200]),
        seed=st.integers(0, 2**32 - 1),
        mutation=st.sampled_from(sorted(_ATOM_MUTATIONS) + ["unknown label"]),
        data=st.data(),
    )
    def test_malformed_bodies_name_the_first_bad_node(self, n, seed, mutation, data):
        rng = np.random.default_rng(seed)
        space = gen_mod.make_space(n)
        body = _random_body(rng, space)
        if not body:
            body = {space.atoms[0]: {"e1": [1.0, 0.0], "e2": [0.0, 1.0]}}
        items = list(body.items())
        k = data.draw(st.integers(0, len(items) - 1), label="atom")
        label, value = items[k]
        if mutation == "unknown label":
            items.insert(k, ("not-an-atom", value))
        else:
            items[k] = (label, _ATOM_MUTATIONS[mutation](value))
        # Through JSON text, as the CLI reads it: NaN and Infinity tokens.
        body = json.loads(json.dumps(dict(items)))
        want = _per_atom_table(body, space, "f.function")
        assert isinstance(want, tuple)
        assert _parse_function_body(body, space) == want

    def test_bulk_body(self):
        rng = np.random.default_rng(10_000)
        space = gen_mod.make_space(10_000)
        body = json.loads(json.dumps(_random_body(rng, space)))
        want = _per_atom_table(body, space, "f.function")
        assert _same_table(_parse_function_body(body, space), want)
        # One bad part in the last atom of the document.
        label = list(body)[-1]
        body[label] = _ATOM_MUTATIONS["NaN part"](body[label])
        assert _parse_function_body(body, space) == (
            f"f.function.{label}.e2[1]", "expected a finite number"
        )

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from([1, 23, 24]),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 6),
        mutation=st.sampled_from([None] + sorted(_ATOM_MUTATIONS)),
        data=st.data(),
    )
    def test_documents_parsed_together_give_each_ones_parse(self, n, seed, k, mutation, data):
        # Several function documents in one column pass: each row of the
        # stack has its own per-atom bits, and a malformed body is named
        # at its first bad node in document order.
        rng = np.random.default_rng(seed)
        space = gen_mod.make_space(n)
        bodies = [_random_body(rng, space) for _ in range(k)]
        if mutation is not None:
            body = bodies[data.draw(st.integers(0, k - 1), label="document")]
            label = space.atoms[0] if not body else list(body)[-1]
            body[label] = _ATOM_MUTATIONS[mutation](body.get(label, {"e1": [1, 0], "e2": [0, 1]}))
        bodies = json.loads(json.dumps(bodies))
        locs = [f"f[{i}]" for i in range(k)]
        want = [_per_atom_table(b, space, f"{loc}.function") for b, loc in zip(bodies, locs)]
        docs = [{"function": b} for b in bodies]
        got = _parse_outcome(lambda: _parse_functions(docs, locs, space))
        errors = [w for w in want if isinstance(w, tuple)]
        if errors:
            assert got == errors[0]
        else:
            assert len(got) == k and all(_same_table(fn.c, w) for fn, w in zip(got, want))
            # The rows of one read-only stack: the column pass took them all.
            stack = got[0].c.base
            assert stack is not None and stack.shape == (k, 2, n) and not stack.flags.writeable
            assert all(fn.c.base is stack for fn in got)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from([1, 23, 24, 200]),
        seed=st.integers(0, 2**32 - 1),
        mutation=st.sampled_from(
            ["none", "int target", "null target", "list target", "unknown target",
             "unknown source", "missing source"]
        ),
        data=st.data(),
    )
    def test_maps(self, n, seed, mutation, data):
        rng = np.random.default_rng(seed)
        space = gen_mod.make_space(n)
        image = rng.integers(0, n, size=n)
        order = rng.permutation(n).tolist()
        items = [(space.atoms[i], space.atoms[image[i]]) for i in order]
        k = data.draw(st.integers(0, n - 1), label="entry")
        src = items[k][0]
        bad = {
            "int target": 1, "null target": None, "list target": [src],
            "unknown target": "not-an-atom",
        }
        if mutation in bad:
            items[k] = (src, bad[mutation])
        elif mutation == "unknown source":
            items.insert(k, ("not-an-atom", src))
        elif mutation == "missing source":
            del items[k]
        body = dict(items)
        # The per-entry reference.
        want = None
        for key, target in body.items():
            at = f"m.map.{key}"
            if not isinstance(target, str):
                want = (at, "expected a string label")
            elif key not in space.atoms:
                want = (at, "unknown atom label")
            elif target not in space.atoms:
                want = (at, f"unknown target label {target!r}")
            if want:
                break
        if want is None and len(body) < n:
            missing = [a for a in space.atoms if a not in body]
            want = ("m.map", f"map is not total; missing {missing}")
        got = _parse_outcome(lambda: parse_map({"map": body}, "m", space))
        if want is None:
            assert got.image.tolist() == [space.atoms.index(body[a]) for a in space.atoms]
        else:
            assert got == want

    @pytest.mark.parametrize("n", [3, 30])
    @pytest.mark.parametrize("bad", [1, None, True, 1.5, ["x"], {"x": "y"}], ids=repr)
    def test_space_names_its_first_non_string_label(self, n, bad):
        labels = list(gen_mod.make_space(n).atoms)
        for k in (0, n // 2, n - 1):
            atoms = labels.copy()
            atoms[k] = bad
            if k < n - 1:
                atoms[-1] = 7  # a later bad label is not the one named
            got = _parse_outcome(lambda: parse_space({"atoms": atoms}))
            assert got == (f"space.atoms[{k}]", "expected a string label")

    def test_space_takes_string_subclass_labels(self):
        class Label(str):
            pass

        atoms = [Label(a) for a in gen_mod.make_space(30).atoms]
        assert parse_space({"atoms": atoms}).atoms == tuple(atoms)

    def test_map_with_permuted_entries(self):
        n = 30
        space = gen_mod.make_space(n)
        rng = np.random.default_rng(n)
        image = rng.integers(0, n, size=n)
        body = {space.atoms[i]: space.atoms[image[i]] for i in rng.permutation(n)}
        assert parse_map({"map": body}, "m", space).image.tolist() == image.tolist()

    @pytest.mark.parametrize("n", [4, 30])
    def test_map_errors_on_the_column_path(self, n):
        # Bodies with as many entries as the space has atoms, or one more:
        # the ones the column check reads before it hands over to the walk.
        space = gen_mod.make_space(n)
        items = [(a, space.atoms[(i + 1) % n]) for i, a in enumerate(space.atoms)]
        for k in (0, n // 2, n - 1):
            src = items[k][0]
            extra = dict(items[:k] + [("not-an-atom", src)] + items[k:])
            replaced = dict(items[:k] + [("not-an-atom", src)] + items[k + 1:])
            for body in (extra, replaced):
                got = _parse_outcome(lambda: parse_map({"map": body}, "m", space))
                assert got == ("m.map.not-an-atom", "unknown atom label")
            # Unhashable and non-string targets are refused, not looked up.
            for target in ([src], {"e1": src}, 1, None):
                body = dict(items)
                body[src] = target
                got = _parse_outcome(lambda: parse_map({"map": body}, "m", space))
                assert got == (f"m.map.{src}", "expected a string label")
            body = dict(items)
            body[src] = "not-an-atom"
            got = _parse_outcome(lambda: parse_map({"map": body}, "m", space))
            assert got == (f"m.map.{src}", "unknown target label 'not-an-atom'")


@pytest.mark.parametrize("n", [1, 64, 10_000])
def test_table_encoder_matches_per_atom_reference(n):
    space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
    rng = np.random.default_rng(n)
    special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -1.5])

    def component():
        z = np.zeros(n, dtype=np.complex128)
        for part in (z.real, z.imag):
            part[:] = rng.standard_normal(n)
            hit = rng.random(n) < 0.5
            part[hit] = rng.choice(special, size=int(hit.sum()))
        return z

    e1 = component()
    e2 = component()
    e1[0] = complex(-0.0, np.nan)
    mu = TMeasure(space, e1, e2)
    f = TFunction(space, e2, e1)
    for table, doc in ((mu, measure_to_obj(mu)["measure"]), (f, function_to_obj(f)["function"])):
        reference = {
            label: bicomplex_to_obj(table.atom(i))
            for i, label in enumerate(space.atoms)
        }
        # The tables hold NaN, which the writer refuses and which compares
        # unequal to itself; repr tells -0.0, NaN and the float type apart.
        assert repr(table_to_obj(table)) == repr(reference)
        assert repr(doc) == repr(reference)


def _stdlib_canonical(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _outcome(write, obj):
    """The text ``write(obj)`` returns, or the type and message it raises."""
    try:
        return write(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_CHARS = st.one_of(
    st.integers(0, 0x10FFFF).map(chr),  # lone surrogates included
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "é", " ", "\ud800", "😀"]),
)
_TEXT = st.text(_CHARS, max_size=6)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e22, 1.5e-7]),
)
_PAIR = st.lists(_FLOATS, min_size=2, max_size=2)
_NODE = st.fixed_dictionaries({"e1": _PAIR, "e2": _PAIR})
# Nodes one step away from the bicomplex shape: each must take the generic
# path and still print the stdlib's bytes. Their other floats are finite, so
# that nothing but the one flaw keeps such a node off the template.
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_FINITE_PAIR = st.lists(_FINITE, min_size=2, max_size=2)
_ODD_PAIR = st.one_of(
    st.tuples(st.integers(), _FINITE).map(list),
    st.tuples(_FINITE, st.integers()).map(list),
    st.lists(_FINITE, min_size=3, max_size=3),
    _FINITE_PAIR.map(lambda p: [np.float64(x) for x in p]),
    st.tuples(_FINITE, _FINITE.map(np.float64)).map(list),
    _FINITE_PAIR.map(tuple),
    st.none(),
)
_NEAR_MISS = st.one_of(
    st.fixed_dictionaries({"e1": _ODD_PAIR, "e2": _FINITE_PAIR}),
    st.fixed_dictionaries({"e1": _FINITE_PAIR, "e2": _ODD_PAIR}),
    st.fixed_dictionaries({"e1": _FINITE_PAIR, "e2": _FINITE_PAIR, "e3": _PAIR}),
    st.fixed_dictionaries({"e1": _FINITE_PAIR}),
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    _TEXT,
    _FLOATS,
    _FLOATS.map(np.float64),
    st.integers(min_value=-(2**70), max_value=2**70),
    _NODE,
    _NEAR_MISS,
    st.lists(_NODE, max_size=3),  # as in a DCT run's integral_trace
)
_NUMBER_KEYS = st.one_of(st.integers(), st.floats(), st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
        st.dictionaries(_NUMBER_KEYS, children, max_size=4),
    )


_JSON_TREES = st.recursive(_LEAVES, _containers, max_leaves=12)


def _expand(obj):
    """``obj`` with every atom table and space replaced by its
    ``table_to_obj`` or ``space_to_obj`` tree."""
    if isinstance(obj, AtomTable):
        return table_to_obj(obj)
    if isinstance(obj, FiniteSpace):
        return space_to_obj(obj)
    if isinstance(obj, dict):
        return {key: _expand(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(_expand, obj))
    return obj


_SUBNORMAL = st.floats(min_value=5e-324, max_value=2.2250738585072009e-308)
_TABLE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    _SUBNORMAL,
    _SUBNORMAL.map(lambda x: -x),
    st.floats(min_value=1e307, max_value=sys.float_info.max),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -sys.float_info.max, 0.1]),
)
# Four +0.0 parts (the shared zero node), signed zeros only, or drawn parts.
_ROW = st.one_of(
    st.just((0.0, 0.0, 0.0, 0.0)),
    st.tuples(*[st.sampled_from([0.0, -0.0])] * 4),
    st.tuples(*[_TABLE_FLOATS] * 4),
)


@st.composite
def _tables(draw):
    """A measure or function on escaped labels in unsorted index order.

    In about a quarter of the draws one part of one atom is NaN or ±inf.
    """
    n = draw(st.integers(1, 48))
    labels = draw(st.lists(_TEXT, min_size=n, max_size=n, unique=True))
    rows = np.array(draw(st.lists(_ROW, min_size=len(labels), max_size=len(labels))))
    if draw(st.integers(0, 3)) == 0:
        atom = draw(st.integers(0, len(labels) - 1))
        part = draw(st.integers(0, 3))
        rows[atom, part] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    # Each row is e1.re, e1.im, e2.re, e2.im: two complex numbers, bits kept.
    c = rows.view(np.complex128)
    role = draw(st.sampled_from([TMeasure, TFunction]))
    return role(FiniteSpace(tuple(labels)), c[:, 0], c[:, 1])


@st.composite
def _nested(draw, node):
    """``node`` inside 0-3 levels of dicts and lists, with JSON siblings.

    Some dicts have int, float or None keys, which the writer hands to the
    stdlib together with the node under them.
    """
    for _ in range(draw(st.integers(0, 3))):
        siblings = draw(st.lists(_LEAVES, max_size=2))
        shape = draw(st.sampled_from(["list", "str keys", "int keys", "float keys", "None key"]))
        if shape == "list":
            at = draw(st.integers(0, len(siblings)))
            node = siblings[:at] + [node] + siblings[at:]
        elif shape == "None key":
            node = {None: node}
        else:
            key = {"str keys": _TEXT, "int keys": st.integers(), "float keys": _FINITE}[shape]
            keys = draw(st.lists(key, min_size=len(siblings) + 1, max_size=len(siblings) + 1, unique=True))
            node = dict(zip(keys, [node, *siblings]))
    return node


class TestCanonicalWriter:
    """``dumps_canonical`` gives the stdlib's indent=2, sort_keys bytes."""

    @settings(max_examples=400, deadline=None)
    @given(obj=_JSON_TREES)
    def test_bytes_match_stdlib(self, obj):
        # Errors too: a NaN or infinity raises the stdlib's ValueError, and
        # e.g. None and int keys in one dict cannot be sorted (TypeError).
        assert _outcome(dumps_canonical, obj) == _outcome(_stdlib_canonical, obj)

    def test_fixed_cases(self):
        node = {"e1": [0.5, -0.0], "e2": [1e16, 5e-324]}
        cases = [
            None, True, 0, -(2**65), 2.5, math.nan, "\ud800\"\\\x01é", [], {}, (),
            {"a": {}, "b": [], "c": [[]]},
            {10: "x", 9: "y", 9.5: "z", True: "t"},  # sorted by value, not text
            {"trace": [node, node], "nested": {"deeper": [node, {"x": node}]}},
            {"e1": [math.inf, 0.0], "e2": [0.0, math.nan]},
            {"e1": [np.float64(0.5), 0.25], "e2": [0.0, 1.0]},
            {"e1": [0.5, 0.25, 1.0], "e2": [0.0, 1.0]},
            {"e1": [0.5, 2], "e2": [0.0, 1.0]},
            node,
            # Non-finite floats raise; the first in sorted-key order is named.
            {math.inf: 1}, np.float64(math.nan),
            {"b": [math.nan], "a": {"e1": [1.0, -math.inf], "e2": [0.0, 0.0]}},
        ]
        for obj in cases:
            assert _outcome(dumps_canonical, obj) == _outcome(_stdlib_canonical, obj)

    @pytest.mark.parametrize(
        "obj",
        [
            np.bool_(True),
            np.int64(3),
            {"a": [np.int64(1)]},
            {"e1": [np.int64(1), 0.0], "e2": [0.0, 0.0]},
            {"e1": [np.float32(1.0), 0.0], "e2": [0.0, 0.0]},
            {(1, 2): 3},
            {1: "a", "b": 2},
            {1, 2},
            # repr() of a bare object holds its address, which changes per run
            pytest.param(object(), id="object()"),
        ],
        ids=repr,
    )
    def test_raises_like_stdlib(self, obj):
        with pytest.raises(TypeError) as want:
            _stdlib_canonical(obj)
        with pytest.raises(TypeError) as got:
            dumps_canonical(obj)
        assert str(got.value) == str(want.value)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_table_node_writes_its_tree(self, data):
        # A table prints the bytes of its table_to_obj tree, nested or not,
        # and a NaN or infinity in it raises the tree's error.
        table = data.draw(_tables(), label="table")
        nested = data.draw(_nested(table), label="document")
        want = _outcome(dumps_canonical, _expand(nested))
        assert _outcome(dumps_canonical, nested) == want
        assert _outcome(_stdlib_canonical, _expand(nested)) == want
        if not table.is_finite():
            assert want[0] is ValueError

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_space_node_writes_its_tree(self, data):
        # A space prints the bytes of its space_to_obj tree, nested or not,
        # beside a table on the same space or handed to the stdlib with it.
        table = data.draw(_tables(), label="table")
        space = table.space
        nested = data.draw(_nested({"space": space, "table": table}), label="document")
        want = _outcome(dumps_canonical, _expand(nested))
        assert _outcome(dumps_canonical, nested) == want
        assert _outcome(_stdlib_canonical, _expand(nested)) == want
        assert space._json_labels == [json.dumps(label) for label in space.atoms]

    def test_documents_keep_space_to_obj_for_library_callers(self):
        space = FiniteSpace(("b", 'a"é', "c"))
        mu = TMeasure(space, [0.5, 0.25, 0.25], [1.0, 0.0, 0.0])
        fn = TFunction(space, [1j, 2.0, 0.0], [0.0, -1.0, 3.0])
        for expanded, kept in (
            (measure_to_obj(mu), measure_to_obj(mu, expand=False)),
            (function_to_obj(fn), function_to_obj(fn, expand=False)),
        ):
            assert expanded["space"] == space_to_obj(space) == {"atoms": list(space.atoms)}
            assert kept["space"] is space
            assert dumps_canonical(kept) == dumps_canonical(expanded)

    @pytest.mark.parametrize("n", [1, 2, 24, 25])
    @pytest.mark.parametrize(
        "last_row",
        [(0.0, 0.0, 0.0, 0.0), (-0.0, 0.0, 0.0, -0.0), (1.5, -2.25, 5e-324, 0.0)],
        ids=["zero", "negative zero", "live"],
    )
    def test_last_node_in_label_order(self, n, last_row):
        # The node of the label that sorts last carries the closing brace
        # rather than a separator. Here that label needs escaping and sits
        # in the middle of the index order, and the other labels are
        # unsorted too.
        rng = np.random.default_rng(n)
        labels = [f"x{i:02d}" for i in rng.permutation(n - 1)]
        labels.insert(n // 2, 'z"é\n')
        rows = rng.standard_normal((n, 4))
        rows[rng.random(n) < 0.5] = 0.0
        rows[n // 2] = last_row
        c = rows.view(np.complex128)
        for role in (TMeasure, TFunction):
            table = role(FiniteSpace(tuple(labels)), c[:, 0], c[:, 1])
            for doc in (table, {"outer": [table, "tail"]}):
                assert dumps_canonical(doc) == _stdlib_canonical(_expand(doc))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_string_containers_match_stdlib(self, data):
        # The space's atoms and a map print in one join each.
        node = data.draw(
            st.one_of(st.lists(_TEXT, max_size=8), st.dictionaries(_TEXT, _TEXT, max_size=8)),
            label="strings",
        )
        nested = data.draw(_nested(node), label="document")
        assert _outcome(dumps_canonical, nested) == _outcome(_stdlib_canonical, nested)

    def test_circular_reference(self):
        loop = {"a": []}
        loop["a"].append(loop)
        with pytest.raises(ValueError, match="Circular reference detected"):
            dumps_canonical(loop)

    def test_find_invariant_output_at_scale(self, monkeypatch, capsys):
        import hypmeasure.cli as cli_mod
        from hypmeasure.generators import gen_map_with_small_cycles, make_space

        space = make_space(10_000)
        f = gen_map_with_small_cycles(np.random.default_rng(3), space)
        written = []

        def capture(obj):
            written.append(obj)
            return dumps_canonical(obj)

        monkeypatch.setattr(cli_mod, "dumps_canonical", capture)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(map_to_obj(f))))
        code, out, err = _run(["find-invariant"], capsys)
        assert code == 0, err
        (obj,) = written
        # The writer is handed the atom tables themselves.
        assert obj["limit"].space.size == 10_000 and obj["basis"]
        assert out == _stdlib_canonical(_expand(obj))


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(argv, capsys):
    code, out, err = _run(argv, capsys)
    assert code == 0, err
    return json.loads(out)


# A JSON integer with 400 digits: valid JSON, too large for a float.
BIG_INT = "1" + "0" * 399


def _first_non_finite(path, pair):
    """``path[j]`` for the first NaN or infinite part of an ``[re, im]`` text, else None."""
    for j, token in enumerate(pair.strip("[]").split(",")):
        if not math.isfinite(float(token)):
            return f"{path}[{j}]"
    return None

WORKED_EXAMPLE = {
    "space": {"atoms": ["a", "b"]},
    "measure": {
        "a": {"e1": [2, 0], "e2": [3, 0]},
        "b": {"e1": [5, 0], "e2": [0, 0]},
    },
    "reference": {"a": {"e1": [1, 0], "e2": [1, 0]}},
}


class TestCliDecompose:
    def test_worked_example(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(WORKED_EXAMPLE))
        doc = _run_json(["decompose", "--input", str(path)], capsys)
        assert all(doc["checks"].values())
        dens = doc["lrn"]["density"]["function"]
        assert dens["a"] == {"e1": [2.0, 0.0], "e2": [3.0, 0.0]}
        assert dens["b"] == {"e1": [0.0, 0.0], "e2": [0.0, 0.0]}
        assert doc["lrn"]["singular"]["b"] == {"e1": [5.0, 0.0], "e2": [0.0, 0.0]}
        assert doc["lrn"]["absolutely_continuous"]["a"] == {
            "e1": [2.0, 0.0],
            "e2": [3.0, 0.0],
        }
        # nonnegative measure: every atom lands in the A cell
        assert doc["hahn"] == {"A": ["a", "b"], "B": [], "C": [], "D": []}

    def test_signed_measure_cells(self, tmp_path, capsys):
        doc_in = {
            "space": {"atoms": ["a"]},
            "measure": {"a": {"e1": [3, 0], "e2": [-2, 0]}},
        }
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc_in))
        doc = _run_json(["decompose", "--input", str(path)], capsys)
        assert doc["hahn"]["C"] == ["a"]
        assert doc["jordan"]["mu_plus"]["a"] == {"e1": [3.0, 0.0], "e2": [0.0, 0.0]}
        assert doc["jordan"]["mu_minus"]["a"] == {"e1": [0.0, 0.0], "e2": [2.0, 0.0]}
        assert doc["polar_h"]["function"]["a"] == {"e1": [1.0, 0.0], "e2": [-1.0, 0.0]}

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(WORKED_EXAMPLE)))
        doc = _run_json(["decompose"], capsys)
        assert all(doc["checks"].values())

    def test_complex_measure_rejected(self, tmp_path, capsys):
        doc_in = {
            "space": {"atoms": ["a"]},
            "measure": {"a": {"e1": [0, 1], "e2": [0, 0]}},
        }
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc_in))
        code, out, err = _run(["decompose", "--input", str(path)], capsys)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "schema violation"
        assert payload["location"] == "input.measure"

    def test_bad_reference_rejected(self, tmp_path, capsys):
        doc_in = dict(WORKED_EXAMPLE)
        doc_in["reference"] = {"a": {"e1": [-1, 0], "e2": [1, 0]}}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc_in))
        code, _, err = _run(["decompose", "--input", str(path)], capsys)
        assert code == 2
        assert json.loads(err)["location"] == "input.reference"

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text("{nope")
        code, _, err = _run(["decompose", "--input", str(path)], capsys)
        assert code == 2
        assert json.loads(err)["location"] == "input"

    def test_generated_float_measure_decomposes(self, tmp_path, capsys):
        # regression: float masses once tripped the exact-sign gate in
        # the Hahn classification via an inexact complex division
        for seed in ("7", "8", "9"):
            path = tmp_path / f"gen{seed}.json"
            code = main(
                [
                    "gen",
                    "--kind",
                    "signed-measure",
                    "--atoms",
                    "6",
                    "--seed",
                    seed,
                    "--output",
                    str(path),
                ]
            )
            assert code == 0
            doc = _run_json(["decompose", "--input", str(path)], capsys)
            assert all(doc["checks"].values())


    @pytest.mark.parametrize("with_reference", [False, True])
    def test_large_masses_pass_their_checks(self, with_reference, capsys, monkeypatch):
        # Float rounding grows with the masses; an absolute tolerance alone
        # failed nearly every one of these documents.
        rng = np.random.default_rng(109)
        space = FiniteSpace(tuple(f"x{i}" for i in range(8)))
        for _ in range(100):
            doc_in = measure_to_obj(
                TMeasure(space, rng.normal(0, 1e9, 8), rng.normal(0, 1e9, 8))
            )
            if with_reference:
                ref = TMeasure(space, np.abs(rng.normal(0, 3, 8)), np.abs(rng.normal(0, 3, 8)))
                doc_in["reference"] = measure_to_obj(ref)["measure"]
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc_in)))
            doc = _run_json(["decompose"], capsys)
            assert all(doc["checks"].values())

    def test_tiny_masses_pass_their_checks(self, capsys, monkeypatch):
        # The certifiers' bound scales down with the masses too, to a floor
        # of a few subnormal spacings, so correct checks still pass.
        doc_in = _run_json(["gen", "--kind", "signed-measure", "--atoms", "12"], capsys)
        for mass in doc_in["measure"].values():
            for pair in mass.values():
                pair[:] = [v * 1e-300 for v in pair]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc_in)))
        doc = _run_json(["decompose"], capsys)
        assert len(doc["checks"]) == 10 and all(doc["checks"].values())

    @pytest.mark.parametrize("with_reference", [False, True])
    def test_subnormal_masses_decompose(self, with_reference, capsys, monkeypatch):
        # A density against a subnormal reference mass is in range although
        # numpy's 1 / m is not; it must not read as an overflow.
        for seed in range(5):
            argv = ["gen", "--kind", "signed-measure", "--atoms", "12", "--seed", str(seed)]
            doc_in = _run_json(argv, capsys)
            for mass in doc_in["measure"].values():
                for pair in mass.values():
                    pair[:] = [v * 1e-318 for v in pair]
            if with_reference:
                doc_in["reference"] = {
                    label: {c: [abs(v) for v in pair] for c, pair in mass.items()}
                    for label, mass in doc_in["measure"].items()
                }
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc_in)))
            doc = _run_json(["decompose"], capsys)
            assert len(doc["checks"]) == 10 and all(doc["checks"].values())
            for value in doc["lrn"]["density"]["function"].values():
                assert value["e1"][0] in (-1.0, 0.0, 1.0) and value["e2"][0] in (-1.0, 0.0, 1.0)

    def test_overflowing_finite_input_is_a_schema_error(self, capsys, monkeypatch):
        # A tiny reference mass overflows the density 9 / 5e-324.
        space = FiniteSpace(("a", "b"))
        doc_in = measure_to_obj(TMeasure(space, [9.0, 1.0], [1.0, 1.0]))
        doc_in["reference"] = measure_to_obj(TMeasure(space, [5e-324, 1.0], [1.0, 1.0]))["measure"]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc_in)))
        code, out, err = _run(["decompose"], capsys)
        assert code == 2
        assert out == ""
        # One JSON document on stderr and nothing else: no numpy warning.
        assert json.loads(err)["location"] == "input.reference"

    @pytest.mark.parametrize("top", [np.finfo(float).max, -np.finfo(float).max])
    def test_density_times_the_reference_stays_in_range(self, top, capsys, monkeypatch):
        # The density is rounded before certify_lrn multiplies it back by
        # the reference; masses at the top of the float range over
        # reference masses above 1 must still check true, with no
        # warning, in both components.
        rng = np.random.default_rng(31)
        n = 200
        space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
        doc_in = measure_to_obj(TMeasure(space, np.full(n, top), np.full(n, top)))
        ref = TMeasure(space, *np.exp(rng.uniform(0.0, np.log(64.0), (2, n))))
        doc_in["reference"] = measure_to_obj(ref)["measure"]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc_in)))
        code, out, err = _run(["decompose"], capsys)
        assert (code, err) == (0, "")
        assert all(json.loads(out)["checks"].values())

    @pytest.mark.parametrize(
        "masses",
        [
            # The sum is finite; n times it, the rounding bound's scale, is not.
            [[1e308, 1.0], [1e307, 1.0]],
            # The Jordan parts' sums are finite; |mu|_D's, their sum, is not.
            [[1.5e308, 1.0], [-1.5e308, 1.0]],
            # Each mass is finite; their sum is not, in e1 or in e2.
            [[1e308, 1e308], [1e308, 1e308]],
            [[1.0, 1e308], [1.0, 1e308]],
            # Only subsets holding both of the last two atoms overflow.
            [[1.0, -1.0]] * 18 + [[1e308, -1.0]] * 2,
        ],
        ids=["n-times-sum", "sum-of-parts", "sum-e1", "sum-e2", "twenty-atoms"],
    )
    def test_finite_sums_near_the_float_range_decompose(self, masses, capsys, monkeypatch):
        # No certifier sums masses, so finite masses check true however
        # far their subset sums pass the float range.
        space = FiniteSpace(tuple(f"x{i}" for i in range(len(masses))))
        doc_in = measure_to_obj(TMeasure(space, *np.array(masses).T))
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc_in)))
        doc = _run_json(["decompose"], capsys)
        assert len(doc["checks"]) == 10 and all(doc["checks"].values())

    @pytest.mark.parametrize("n", [20, 21, 200])
    def test_checks_read_true_at_any_size(self, n, capsys, monkeypatch):
        # The Hahn cells are built and certified at any size: no check
        # reads null.
        rng = np.random.default_rng(n)
        space = FiniteSpace(tuple(f"x{i}" for i in range(n)))
        u = rng.integers(-5, 6, size=n).astype(float)
        v = rng.integers(-5, 6, size=n).astype(float)
        doc_in = measure_to_obj(TMeasure(space, u, v))
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc_in)))
        code, out, err = _run(["decompose"], capsys)
        assert code == 0, err
        assert err == ""
        doc = json.loads(out)
        assert len(doc["checks"]) == 10
        assert all(value is True for value in doc["checks"].values())
        plus = doc["jordan"]["mu_plus"]
        minus = doc["jordan"]["mu_minus"]
        for i, label in enumerate(space.atoms):
            assert plus[label] == {"e1": [max(u[i], 0.0), 0.0], "e2": [max(v[i], 0.0), 0.0]}
            assert minus[label] == {"e1": [max(-u[i], 0.0), 0.0], "e2": [max(-v[i], 0.0), 0.0]}
        cells = [set(doc["hahn"][name]) for name in "ABCD"]
        assert sum(len(c) for c in cells) == n
        assert set().union(*cells) == set(space.atoms)

    @pytest.mark.parametrize("mass", ["Infinity", "NaN"])
    def test_non_finite_reference_rejected(self, tmp_path, capsys, mass):
        path = tmp_path / "in.json"
        path.write_text(
            '{"space": {"atoms": ["a", "b"]}, '
            '"measure": {"a": {"e1": [1, 0], "e2": [-1, 0]}}, '
            f'"reference": {{"a": {{"e1": [{mass}, 0], "e2": [1, 0]}}}}}}'
        )
        code, out, err = _run(["decompose", "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        # The reference is a label-to-mass object; locations are its paths.
        assert json.loads(err) == {
            "error": "schema violation",
            "location": "input.reference.a.e1[0]",
            "message": "expected a finite number",
        }

    @pytest.mark.parametrize(
        "reference, location, message",
        [
            ('{"z": {"e1": [1, 0], "e2": [1, 0]}}', "input.reference.z", "unknown atom label"),
            ('[["a", 1]]', "input.reference", "expected an object"),
        ],
    )
    def test_reference_error_locations(self, capsys, monkeypatch, reference, location, message):
        text = (
            '{"space": {"atoms": ["a", "b"]}, '
            f'"measure": {{"a": {{"e1": [1, 0], "e2": [-1, 0]}}}}, "reference": {reference}}}'
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = _run(["decompose"], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "schema violation", "location": location, "message": message}


class TestCliIntegrate:
    def test_plain_integral(self, tmp_path, capsys):
        doc_in = {
            "space": {"atoms": ["a", "b"]},
            "measure": {
                "a": {"e1": [1, 0], "e2": [1, 0]},
                "b": {"e1": [1, 0], "e2": [1, 0]},
            },
            "function": {
                "a": {"e1": [1, 0], "e2": [1, 0]},
                "b": {"e1": [-1, 0], "e2": [1, 0]},
            },
            "set": ["a", "b"],
        }
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc_in))
        doc = _run_json(["integrate", "--input", str(path)], capsys)
        assert doc["integral"] == {"e1": [0.0, 0.0], "e2": [2.0, 0.0]}
        assert doc["in_l1"] is True
        assert doc["modulus"]["holds"] is True
        assert doc["modulus"]["integral_of_modulus"] == {"e1": 2.0, "e2": 2.0}

    def test_false_modulus_check_exits_3(self, monkeypatch):
        # Positive values make the modulus inequality a tie. Inflating the
        # integral of the parsed function, as test_scale._inflate does,
        # puts its left side above its right: the check reads false.
        import hypmeasure.cli as cli_mod
        import hypmeasure.integration as integration_mod

        doc = {
            "space": {"atoms": ["a", "b"]},
            "measure": {"a": {"e1": [1, 0], "e2": [2, 0]}, "b": {"e1": [3, 0], "e2": [1, 0]}},
            "function": {"a": {"e1": [2, 0], "e2": [1, 0]}, "b": {"e1": [1, 0], "e2": [5, 0]}},
        }
        code, out, err = _main_on_stdin(["integrate"], json.dumps(doc))
        assert code == 0 and json.loads(out)["modulus"]["holds"] is True, err
        parsed, parse = [], cli_mod.parse_function
        monkeypatch.setattr(
            cli_mod, "parse_function", lambda *args: parsed.append(parse(*args)) or parsed[-1]
        )
        real = integration_mod.integrate

        def integrate(h, m, e=None):
            value = real(h, m, e)
            return value * 1.1 if any(h is v for v in parsed) else value

        monkeypatch.setattr(integration_mod, "integrate", integrate)
        code, out, err = _main_on_stdin(["integrate"], json.dumps(doc))
        assert (code, out) == (3, "")
        payload = json.loads(err)
        assert payload["error"] == "internal invariant violation"
        assert payload["payload"]["modulus"]["holds"] is False
        assert payload["payload"]["input"] == doc

    def test_dct_run(self, tmp_path, capsys):
        space = {"atoms": ["a", "b"]}
        unit = {"e1": [1, 0], "e2": [1, 0]}
        seq = []
        for k in range(1, 40):
            off = 1.0 / (k + 1)
            seq.append(
                {
                    "function": {
                        "a": {"e1": [1 + off, 0], "e2": [1 - off, 0]},
                        "b": {"e1": [1 - off, 0], "e2": [1 + off, 0]},
                    }
                }
            )
        doc_in = {
            "space": space,
            "measure": {"a": unit, "b": unit},
            "sequence": seq,
            "limit": {"function": {"a": unit, "b": unit}},
            "dominator": {
                "function": {
                    "a": {"e1": [4, 0], "e2": [4, 0]},
                    "b": {"e1": [4, 0], "e2": [4, 0]},
                }
            },
            "tol": 0.25,
        }
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc_in))
        doc = _run_json(["integrate", "--input", str(path)], capsys)
        assert doc["success"] is True
        assert doc["domination_ok"] is True
        assert len(doc["l1_limit"]) == len(doc["integral_trace"]) == 39
        assert doc["final_gap"]["e1"] < 0.25

    def test_requires_d_measure(self, tmp_path, capsys):
        doc_in = {
            "space": {"atoms": ["a"]},
            "measure": {"a": {"e1": [-1, 0], "e2": [1, 0]}},
            "function": {"a": {"e1": [1, 0], "e2": [1, 0]}},
        }
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc_in))
        code, _, err = _run(["integrate", "--input", str(path)], capsys)
        assert code == 2
        assert json.loads(err)["location"] == "input.measure"

    def test_mass_past_float_range(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(
            '{"space": {"atoms": ["a"]}, "measure": {"a": {"e1": [1, 0], '
            f'"e2": [{BIG_INT}, 0]}}}}, "function": {{}}}}'
        )
        code, _, err = _run(["integrate", "--input", str(path)], capsys)
        assert code == 2
        assert json.loads(err)["location"] == "input.measure.a.e2[0]"

    @pytest.mark.parametrize(
        "mass, value, location, message",
        [
            ("NaN", "[1, 0]", "input.measure", "integration needs finite masses"),
            ("1", "[NaN, 0]", "input.function", "function is not integrable against this measure"),
            ("1", "[0, Infinity]", "input.function", "function is not integrable against this measure"),
            # finite, but |f| * mass overflows
            ("1e300", "[1e300, 0]", "input.function", "function is not integrable against this measure"),
            # an infinite value on a null atom: inf * 0
            ("0", "[Infinity, 0]", "input.function", "function is not integrable against this measure"),
        ],
    )
    def test_non_integrable_value(self, tmp_path, capsys, mass, value, location, message):
        # A non-finite token never reaches the command: the codec refuses
        # it at its own path, the measure (parsed first) before the function.
        refused = _first_non_finite("input.measure.b.e1", f"[{mass}, 0]") or \
            _first_non_finite("input.function.b.e1", value)
        if refused is not None:
            location, message = refused, "expected a finite number"
        path = tmp_path / "in.json"
        path.write_text(
            '{"space": {"atoms": ["a", "b"]}, '
            f'"measure": {{"b": {{"e1": [{mass}, 0], "e2": [1, 0]}}}}, '
            f'"function": {{"a": {{"e1": [1, 0], "e2": [1, 0]}}, '
            f'"b": {{"e1": {value}, "e2": [1, 0]}}}}}}'
        )
        code, out, err = _run(["integrate", "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "schema violation", "location": location, "message": message,
        }

    @pytest.mark.parametrize(
        "bad, location",
        [
            ({"sequence": 1, "value": "NaN"}, "input.sequence[1].function"),
            # 1e308 is finite; its product with the mass 9 is not.
            ({"sequence": 2, "value": "1e308", "mass": 9}, "input.sequence[2].function"),
            ({"sequence": 0, "value": "-Infinity"}, "input.sequence[0].function"),
            ({"limit": True, "value": "NaN"}, "input.limit.function"),
            # A bad term is named before a bad limit.
            ({"sequence": 2, "limit": True, "value": "NaN"}, "input.sequence[2].function"),
            # Term and limit at +-1e307 are integrable against the mass 9;
            # their distance 2e307 times 9 is not.
            ({"sequence": 1, "value": "1e307", "limit_value": "-1e307", "mass": 9},
             "input.sequence[1].function"),
        ],
    )
    def test_dct_names_the_non_integrable_term(self, tmp_path, capsys, bad, location):
        # A non-finite value is refused by the codec at its own path in the
        # named function; a finite one that overflows, by the run.
        message = "function is not integrable against this measure"
        refused = _first_non_finite(f"{location}.a.e1", f"[{bad['value']}, 0]")
        if refused is not None:
            location, message = refused, "expected a finite number"

        def fn(value="1"):
            return f'{{"function": {{"a": {{"e1": [{value}, 0], "e2": [1, 0]}}}}}}'

        seq = [fn() for _ in range(3)]
        if "sequence" in bad:
            seq[bad["sequence"]] = fn(bad["value"])
        limit = fn(bad["value"] if "limit" in bad else bad.get("limit_value", "1"))
        mass = bad.get("mass", 1)
        path = tmp_path / "in.json"
        path.write_text(
            '{"space": {"atoms": ["a"]}, '
            f'"measure": {{"a": {{"e1": [{mass}, 0], "e2": [1, 0]}}}}, '
            f'"sequence": [{", ".join(seq)}], "limit": {limit}, "dominator": {fn()}}}'
        )
        code, out, err = _run(["integrate", "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "schema violation",
            "location": location,
            "message": message,
        }

    @pytest.mark.parametrize("mass", ["NaN", "Infinity"])
    def test_dct_non_finite_mass(self, tmp_path, capsys, mass):
        # The fault is in the measure, so it is reported there, not at
        # the dominator.
        unit = {"function": {"a": {"e1": [1, 0], "e2": [1, 0]}}}
        path = tmp_path / "in.json"
        path.write_text(
            '{"space": {"atoms": ["a"]}, '
            f'"measure": {{"a": {{"e1": [{mass}, 0], "e2": [1, 0]}}}}, '
            f'"sequence": [{json.dumps(unit)}], '
            f'"limit": {json.dumps(unit)}, "dominator": {json.dumps(unit)}}}'
        )
        code, out, err = _run(["integrate", "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "schema violation",
            "location": "input.measure.a.e1[0]",
            "message": "expected a finite number",
        }

    def test_dct_tol_past_float_range(self, tmp_path, capsys):
        unit = {"function": {"a": {"e1": [1, 0], "e2": [1, 0]}}}
        doc_in = {
            "space": {"atoms": ["a"]},
            "measure": unit["function"],
            "sequence": [unit],
            "limit": unit,
            "dominator": unit,
            "tol": 10**400,
        }
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc_in))
        code, _, err = _run(["integrate", "--input", str(path)], capsys)
        assert code == 2
        assert json.loads(err)["location"] == "input.tol"

    @pytest.mark.parametrize("tol", ["NaN", "Infinity"])
    def test_dct_tol_must_be_finite(self, tmp_path, capsys, tol):
        # json.dumps cannot write these tokens, so the document is spelled out.
        unit = json.dumps({"function": {"a": {"e1": [1, 0], "e2": [1, 0]}}})
        path = tmp_path / "in.json"
        path.write_text(
            '{"space": {"atoms": ["a"]}, "measure": {"a": {"e1": [1, 0], "e2": [1, 0]}}, '
            f'"sequence": [{unit}], "limit": {unit}, "dominator": {unit}, "tol": {tol}}}'
        )
        code, out, err = _run(["integrate", "--input", str(path)], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "schema violation",
            "location": "input.tol",
            "message": "expected a finite number",
        }

    @pytest.mark.parametrize(
        "case, error",
        [
            # A later bad node is not named.
            ("bad node in term 3 of 16", ("input.sequence[3].function.x1.e2[1]", "expected a number")),
            ("bad node in the dominator", ("input.dominator.function.x2", "expected exactly the keys e1 and e2")),
            ("terms omit atoms", None),
            ("a term with its own equal space", None),
            ("a term on another space", ("input", "sequence terms live on different spaces")),
            # Terms with a space of their own are parsed alone, in document order.
            ("bad node after a term with its own space", ("input.sequence[9].function.x3", "expected an object")),
            ("bad node in a term with its own space", ("input.sequence[2].function.x0.e1", "expected [re, im]")),
        ],
    )
    def test_dct_functions_parse_as_each_one_alone(self, case, error):
        doc = json.loads(json.dumps(_dct_document(np.random.default_rng(3), gen_mod.make_space(5), 16)))
        doc["tol"] = 1.0
        seq = doc["sequence"]
        if case == "bad node in term 3 of 16":
            seq[3]["function"]["x1"]["e2"][1] = "0"
            seq[12]["function"]["x0"] = None
        elif case == "bad node in the dominator":
            del doc["dominator"]["function"]["x2"]["e1"]
        elif case == "terms omit atoms":
            for k, term in enumerate(seq):
                del term["function"][f"x{k % 5}"]
            seq[7]["function"] = {}
        elif case == "a term on another space":
            seq[5]["space"] = {"atoms": doc["space"]["atoms"][:4]}
            del seq[5]["function"]["x4"]
        elif case == "a term with its own equal space":
            seq[5]["space"] = doc["space"]
        else:
            # Term 2 has its own space; term 9, without one, is bad.
            seq[2]["space"] = doc["space"]
            seq[9]["function"]["x3"] = [1.0, 0.0]
            if case == "bad node in a term with its own space":
                seq[2]["function"]["x0"]["e1"] = 1.0
        code, out, err = _main_on_stdin(["integrate"], json.dumps(doc))
        if error is None:
            assert (code, out, err) == (0, _dct_by_term(doc), "")
        else:
            assert (code, out) == (2, "")
            assert json.loads(err) == {
                "error": "schema violation", "location": error[0], "message": error[1],
            }


class TestCliDynamics:
    def test_pushforward_iterations(self, tmp_path, capsys):
        doc_in = {
            "space": {"atoms": ["a", "b", "c"]},
            "measure": {
                "a": {"e1": [0.5, 0], "e2": [0.5, 0]},
                "b": {"e1": [0.25, 0], "e2": [0.25, 0]},
                "c": {"e1": [0.25, 0], "e2": [0.25, 0]},
            },
            "map": {"a": "b", "b": "c", "c": "a"},
            "iterations": 3,
        }
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc_in))
        doc = _run_json(["pushforward", "--input", str(path)], capsys)
        # a full cycle returns the start measure
        assert doc["measure"] == {
            "a": {"e1": [0.5, 0.0], "e2": [0.5, 0.0]},
            "b": {"e1": [0.25, 0.0], "e2": [0.25, 0.0]},
            "c": {"e1": [0.25, 0.0], "e2": [0.25, 0.0]},
        }

    def test_pushforward_huge_iterations(self, tmp_path, capsys):
        doc_in = {
            "space": {"atoms": ["a", "b"]},
            "measure": {
                "a": {"e1": [0.75, 0], "e2": [0.5, 0]},
                "b": {"e1": [0.25, 0], "e2": [0.5, 0]},
            },
            "map": {"a": "b", "b": "a"},
            "iterations": 10**9 + 1,
        }
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc_in))
        start = time.perf_counter()
        doc = _run_json(["pushforward", "--input", str(path)], capsys)
        # one push per iteration would take about an hour
        assert time.perf_counter() - start < 10.0
        assert doc["measure"]["a"] == {"e1": [0.25, 0.0], "e2": [0.5, 0.0]}
        assert doc["measure"]["b"] == {"e1": [0.75, 0.0], "e2": [0.5, 0.0]}

    def test_pushforward_rejects_bad_iterations(self, tmp_path, capsys):
        doc_in = {
            "space": {"atoms": ["a"]},
            "measure": {"a": {"e1": [1, 0], "e2": [1, 0]}},
            "map": {"a": "a"},
            "iterations": 0,
        }
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc_in))
        code, _, err = _run(["pushforward", "--input", str(path)], capsys)
        assert code == 2

    def test_find_invariant(self, tmp_path, capsys):
        doc_in = {
            "space": {"atoms": ["a", "b", "c"]},
            "map": {"a": "b", "b": "a", "c": "a"},
        }
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc_in))
        doc = _run_json(["find-invariant", "--input", str(path)], capsys)
        assert doc["converged"] is True
        assert doc["limit_is_invariant"] is True
        assert doc["limit_in_hull"] is True
        assert doc["limit"]["a"] == {"e1": [0.5, 0.0], "e2": [0.5, 0.0]}
        assert doc["limit"]["c"] == {"e1": [0.0, 0.0], "e2": [0.0, 0.0]}
        assert len(doc["basis"]) == 1

    def test_find_invariant_loose_tol_stops_short_of_invariance(self, capsys):
        # --tol 1e-3 stops the Cesaro loop at its first average, 4e-5 from
        # invariant: both certificates, under the rounding bound, read false.
        doc_in = {
            "space": {"atoms": ["a", "b"]},
            "map": {"a": "b", "b": "a"},
            "measure": {"a": {"e1": [0.50001, 0], "e2": [0.5, 0]}, "b": {"e1": [0.49999, 0], "e2": [0.5, 0]}},
        }
        code, out, err = _main_on_stdin(["find-invariant", "--tol", "1e-3"], json.dumps(doc_in))
        doc = json.loads(out)
        assert (code, err) == (0, "")
        assert doc["converged"] is True and doc["iterations"] == 1
        assert doc["limit_is_invariant"] is False
        assert doc["limit_in_hull"] is False

    def test_find_invariant_has_no_size_cap(self, tmp_path, capsys):
        # One cycle through 2**16 + 1 atoms, one past the old basis cap.
        n = (1 << 16) + 1
        atoms = [f"x{i}" for i in range(n)]
        doc_in = {
            "space": {"atoms": atoms},
            "map": {a: atoms[(i + 1) % n] for i, a in enumerate(atoms)},
        }
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc_in))
        doc = _run_json(["find-invariant", "--input", str(path)], capsys)
        assert doc["converged"] is True and doc["burn_in"] == 0
        assert len(doc["basis"]) == 1 and len(doc["basis"][0]) == n

    @pytest.mark.parametrize("command, n", [("find-invariant", 37_669), ("pushforward", 10**5)])
    def test_uniform_probability_at_scale(self, command, n):
        # The ascending sum of n masses 1/n misses 1 by more than the 1e-12
        # hand-rounding slack at these sizes. find-invariant starts from the
        # uniform measure by default; pushforward is given it.
        atoms = list(gen_mod.make_space(n).atoms)
        doc = {"space": {"atoms": atoms}, "map": dict.fromkeys(atoms, atoms[0])}
        if command == "pushforward":
            doc["measure"] = dict.fromkeys(atoms, {"e1": [1 / n, 0.0], "e2": [1 / n, 0.0]})
        code, _, err = _main_on_stdin([command], json.dumps(doc))
        assert (code, err) == (0, "")

    def test_find_invariant_memory_is_bounded_by_its_output(self, tmp_path):
        # An identity map has one basis measure per atom, so the output
        # holds n^2 atom nodes, nearly all of them zero. The writer must not
        # hold a JSON tree of them beside the text.
        n = 500
        atoms = [f"x{i}" for i in range(n)]
        src, dst = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(json.dumps({"space": {"atoms": atoms}, "map": {a: a for a in atoms}}))
        tracemalloc.start()
        try:
            code = main(["find-invariant", "--input", str(src), "--output", str(dst)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        size = dst.stat().st_size
        assert len(json.loads(dst.read_text())["basis"]) == n
        assert peak <= 3 * size, (peak, size)


class TestCliKindHint:
    ONE_ATOM = {
        "space": {"atoms": ["a"]},
        "measure": {"a": {"e1": [1, 0], "e2": [1, 0]}},
    }
    EXTRA = {
        "decompose": {},
        "integrate": {"function": {"a": {"e1": [1, 0], "e2": [1, 0]}}},
        "pushforward": {"map": {"a": "a"}},
        "find-invariant": {"map": {"a": "a"}},
    }

    @pytest.mark.parametrize("hint", [[], {}, ["D"]])
    @pytest.mark.parametrize("command", sorted(EXTRA))
    def test_non_string_hint_is_schema_error(self, tmp_path, capsys, command, hint):
        doc_in = {**self.ONE_ATOM, **self.EXTRA[command], "kind_hint": hint}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc_in))
        code, out, err = _run([command, "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "schema violation",
            "location": "input.kind_hint",
            "message": "expected one of T, signedD, D, D+",
        }


# Values a mutation puts in place of a document node.
_SUBSTITUTES = [
    math.nan, math.inf, -math.inf, 10**400, -(10**400), "", "x0", "D",
    [], [0, 0], ["x0"], {}, {"e1": [1, 0], "e2": [1, 0]}, True, False, None,
    0, -1, 0.5,
    # Finite values at the edges of the float range: sums and products
    # of them overflow or underflow.
    1e308, -1e308, sys.float_info.max, 5e-324,
]
_DELETE = object()


def _dct_document(rng, space, terms):
    """A generated dominated-convergence document of ``integrate``."""
    seq, f, _, dominator, mu = gen_mod.gen_dct_instance(rng, space, n_terms=terms)
    doc = measure_to_obj(mu)
    doc["sequence"] = [function_to_obj(g, with_space=False) for g in seq]
    doc["limit"] = function_to_obj(f, with_space=False)
    doc["dominator"] = function_to_obj(dominator, with_space=False)
    return doc


def _dct_by_term(doc):
    """The output of a valid DCT document, with each function parsed alone."""
    mu = parse_measure(doc, "input")
    fns = [parse_function(obj, "f", mu.space) for obj in (*doc["sequence"], doc["limit"], doc["dominator"])]
    report = dct_run(fns[:-2], fns[-2], fns[-1], mu, doc["tol"])
    return dumps_canonical({
        "domination_ok": report.domination_ok,
        "l1_limit": [hyperbolic_to_obj(g) for g in report.l1_limit],
        "integral_trace": [bicomplex_to_obj(v) for v in report.integral_trace],
        "final_gap": hyperbolic_to_obj(report.final_gap),
        "success": report.success,
    })


def _fuzz_document(command, rng, n):
    """A valid input document of ``command`` on ``n`` generated atoms."""
    space = gen_mod.make_space(n)
    if command == "decompose":
        doc = measure_to_obj(gen_mod.gen_signed_measure(rng, space, "integer"))
        if rng.random() < 0.5:
            doc["reference"] = table_to_obj(gen_mod.gen_d_measure(rng, space))
        return doc
    if command == "integrate":
        if rng.random() < 0.3:
            return _dct_document(rng, space, 3)
        doc = measure_to_obj(gen_mod.gen_d_measure(rng, space))
        doc["function"] = table_to_obj(gen_mod.gen_function(rng, space))
        if rng.random() < 0.5:
            doc["set"] = list(space.atoms[: int(rng.integers(0, n + 1))])
        return doc
    f = gen_mod.gen_map(rng, space)
    if command == "pushforward":
        doc = measure_to_obj(gen_mod.gen_d_probability(rng, space))
        doc["map"] = map_to_obj(f)["map"]
        doc["iterations"] = int(rng.integers(1, 2 * n + 2))
        return doc
    doc = map_to_obj(f)
    if rng.random() < 0.5:
        doc["measure"] = table_to_obj(gen_mod.gen_d_probability(rng, space))
    doc["max_iter"] = 64
    return doc


def _nodes(obj, path=()):
    """Every node of a JSON tree as a path of keys and indices."""
    yield path
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        return
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutate(doc, path, value):
    """``doc`` with the node at ``path`` deleted or replaced by a copy of ``value``."""
    if not path:
        return {} if value is _DELETE else copy.deepcopy(value)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


_READING_COMMANDS = ["decompose", "integrate", "pushforward", "find-invariant"]


class TestCliExitContract:
    """Mutated documents never escape ``main``: exit 0, 2 or 3, JSON stderr."""

    @settings(max_examples=300, deadline=None)
    @given(
        command=st.sampled_from(["decompose", "integrate", "pushforward", "find-invariant"]),
        n=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_exit_is_0_2_or_3_with_json_stderr(self, command, n, seed, data):
        doc = _fuzz_document(command, np.random.default_rng(seed), n)
        for _ in range(data.draw(st.integers(0, 3), label="mutations")):
            path = data.draw(st.sampled_from(list(_nodes(doc))), label="node")
            value = data.draw(st.sampled_from(_SUBSTITUTES + [_DELETE]), label="value")
            doc = _mutate(doc, path, value)
        _assert_exit_contract(*_main_on_stdin([command], json.dumps(doc)))

    @settings(max_examples=150, deadline=None)
    @given(
        command=st.sampled_from(["decompose", "integrate", "pushforward", "find-invariant"]),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        token=st.sampled_from(_NON_FINITE_TOKENS),
        data=st.data(),
    )
    def test_non_finite_number_exits_2_at_its_path(self, command, n, seed, token, data):
        # A valid document with one mass or function value spelled as a
        # token that is not a finite float.
        doc = _fuzz_document(command, np.random.default_rng(seed), n)
        slots = [p for p in _nodes(doc) if len(p) > 1 and p[-2] in ("e1", "e2")]
        assume(slots)  # a find-invariant document may hold no measure
        path = data.draw(st.sampled_from(slots), label="slot")
        text = json.dumps(_mutate(doc, path, "<token>")).replace('"<token>"', token)
        location = "input" + "".join(
            f"[{key}]" if isinstance(key, int) else f".{key}" for key in path
        )
        code, out, err = _main_on_stdin([command], text)
        assert (code, out) == (2, ""), err
        assert json.loads(err) == {
            "error": "schema violation",
            "location": location,
            "message": "expected a finite number",
        }

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(GEN_KINDS),
        atoms=st.integers(-2, 40),
        seed=st.integers(-2, 2**64),
        mode=st.sampled_from(["float", "integer", "dyadic"]),
    )
    def test_gen_flags(self, kind, atoms, seed, mode):
        argv = ["gen", "--kind", kind, "--atoms", str(atoms), "--seed", str(seed), "--mode", mode]
        _assert_exit_contract(*_main_on_stdin(argv, ""))

    @pytest.mark.parametrize("command", _READING_COMMANDS)
    def test_deeply_nested_json_exits_2(self, command):
        # Deeper than the parser's stack: json.loads raises RecursionError.
        code, out, err = _main_on_stdin([command], "[" * 200_000)
        assert (code, out) == (2, "")
        payload = json.loads(err)
        assert (payload["error"], payload["location"]) == ("schema violation", "input")
        assert payload["message"].startswith("invalid JSON: maximum recursion depth exceeded")

    @pytest.mark.parametrize("command", _READING_COMMANDS)
    def test_non_utf8_input_file_exits_2(self, command, tmp_path):
        path = tmp_path / "in.json"
        path.write_bytes(b'{"a":"\xff"}')
        code, out, err = _main_on_stdin([command, "--input", str(path)], "")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "schema violation",
            "location": "input",
            "message": "'utf-8' codec can't decode byte 0xff in position 6: invalid start byte",
        }

    @pytest.mark.parametrize("command", _READING_COMMANDS + ["verify", "gen"])
    def test_unwritable_output_exits_2(self, command, tmp_path):
        if command == "verify":
            argv, text = ["verify", "--cases", "1", "--suite", "order"], ""
        elif command == "gen":
            argv, text = ["gen", "--kind", "map", "--atoms", "3"], ""
        else:
            argv, text = [command], json.dumps(_fuzz_document(command, np.random.default_rng(1), 4))
        good = tmp_path / "out.json"
        assert _main_on_stdin(argv + ["--output", str(good)], text) == (0, "", "")
        assert good.read_text().endswith("}\n")
        # A missing directory, and a directory given as the file.
        for path in (tmp_path / "missing" / "out.json", tmp_path):
            code, out, err = _main_on_stdin(argv + ["--output", str(path)], text)
            assert (code, out) == (2, "")
            payload = json.loads(err)
            assert (payload["error"], payload["location"]) == ("schema violation", "output")
            assert str(path) in payload["message"]

    def test_non_finite_result_exits_3(self, monkeypatch):
        # Inputs are finite and overflow is checked at the result, so a NaN
        # that still reaches the writer is the program's fault.
        import hypmeasure.cli as cli_mod

        monkeypatch.setattr(cli_mod, "integrate", lambda f, mu, e=None: Bicomplex(math.nan, 0))
        doc = {**TestCliKindHint.ONE_ATOM, **TestCliKindHint.EXTRA["integrate"]}
        code, out, err = _main_on_stdin(["integrate"], json.dumps(doc))
        assert (code, out) == (3, "")
        payload = json.loads(err)
        assert payload["error"] == "internal invariant violation"
        assert "JSON compliant" in payload["payload"]["reason"]


class TestReadDocGc:
    """The cyclic GC is off from the parse through the write of a document
    command, then back as the caller had it; ``verify`` leaves it alone."""

    DOC = json.dumps({**TestCliKindHint.ONE_ATOM, **TestCliKindHint.EXTRA["integrate"]})

    @pytest.fixture
    def gc_state(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    def test_paused_during_json_loads(self, gc_state, monkeypatch):
        import hypmeasure.cli as cli_mod

        seen = []
        loads = json.loads

        def spy(text):
            seen.append(gc.isenabled())
            return loads(text)

        monkeypatch.setattr(cli_mod.json, "loads", spy)
        gc.enable()
        assert _main_on_stdin(["integrate"], self.DOC)[0] == 0
        assert seen == [False]

    @pytest.mark.parametrize("caller_enabled", [True, False])
    @pytest.mark.parametrize("text, code", [(DOC, 0), ("{", 2), ("[" * 200_000, 2)],
                             ids=["valid", "invalid JSON", "too deep"])
    def test_state_is_restored(self, gc_state, caller_enabled, text, code):
        if caller_enabled:
            gc.enable()
        else:
            gc.disable()
        assert _main_on_stdin(["integrate"], text)[0] == code
        assert gc.isenabled() is caller_enabled

    def test_paused_through_the_write(self, gc_state, monkeypatch):
        import hypmeasure.cli as cli_mod

        seen = []
        write = cli_mod._write_doc

        def spy(args, obj):
            seen.append(gc.isenabled())
            write(args, obj)

        monkeypatch.setattr(cli_mod, "_write_doc", spy)
        gc.enable()
        assert _main_on_stdin(["integrate"], self.DOC)[0] == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("caller_enabled", [True, False])
    def test_state_is_restored_on_exit_3(self, gc_state, monkeypatch, caller_enabled):
        import hypmeasure.cli as cli_mod

        monkeypatch.setattr(cli_mod, "integrate", lambda f, mu, e=None: Bicomplex(math.nan, 0))
        (gc.enable if caller_enabled else gc.disable)()
        assert _main_on_stdin(["integrate"], self.DOC)[0] == 3
        assert gc.isenabled() is caller_enabled

    @pytest.mark.parametrize("caller_enabled", [True, False])
    @pytest.mark.parametrize("argv", [["integrate", "--no-such-flag"], ["--help"]], ids=repr)
    def test_state_is_restored_on_argparse_exit(self, gc_state, caller_enabled, argv):
        (gc.enable if caller_enabled else gc.disable)()
        with pytest.raises(SystemExit):
            _main_on_stdin(argv, "")
        assert gc.isenabled() is caller_enabled

    @pytest.mark.parametrize("caller_enabled", [True, False])
    def test_verify_runs_with_the_callers_state(self, gc_state, monkeypatch, caller_enabled):
        seen = []
        run = verify_mod.run_verify

        def spy(*args):
            seen.append(gc.isenabled())
            return run(*args)

        monkeypatch.setattr("hypmeasure.cli.run_verify", spy)
        (gc.enable if caller_enabled else gc.disable)()
        assert _main_on_stdin(["verify", "--cases", "2", "--suite", "algebra"], "")[0] == 0
        assert seen == [caller_enabled]
        assert gc.isenabled() is caller_enabled


def _main_on_stdin(argv, text):
    """``main(argv)`` reading ``text``: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO(text)):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _refuse_constant(token):
    raise ValueError(f"{token} is not a JSON number")


def _assert_exit_contract(code, out, err):
    assert code in (0, 2, 3)
    if code == 0:
        # Strict JSON: no NaN or Infinity tokens.
        json.loads(out, parse_constant=_refuse_constant)
        assert err == ""
    else:
        assert out == ""
        assert isinstance(json.loads(err), dict)


def _false_then_raise(rng):
    yield "first", False
    raise AssertionError("a check after the first failure ran")


def _raise_before_yield(rng):
    raise ValueError("before any verdict")
    yield "never", True


_TOTAL_VARIATION = TMeasure.total_variation
_HAHN = verify_mod.dec.hahn
_CERTIFY_HAHN = verify_mod.dec.certify_hahn
_PUSHFORWARD = verify_mod.dyn.pushforward
_CONVEX_COMBINE = verify_mod.dyn.convex_combine


def _refuse(*_):
    raise ValueError("not a D-probability")


def _zero_slack(n, total, floors):
    return 0.0


def _bumped_combination(a, b, t):
    # Atom 0's masses off by 1e-13 relative: far below an absolute 1e-12.
    m = _CONVEX_COMBINE(a, b, t).c.real.copy()
    m[:, 0] *= 1.0 + 1e-13
    return TMeasure(a.space, *m)


# Each row breaks one library function (at every module that binds it) and
# names the check that must catch it first, at seed 42 within 50 cases.
_FAULTS = {
    "tv-doubled-closed-form": (
        [(TMeasure, "total_variation", lambda mu, *e: _TOTAL_VARIATION(mu, *e) * 2)],
        [
            ("total-variation", "closed-form-vs-bruteforce"),
            ("measure-ops", "variation-measure-agrees"),
            ("indefinite-tv", "tv-vs-integral-of-modulus"),
        ],
    ),
    "hahn-A-as-B": (
        [(verify_mod.dec, "hahn", lambda mu: dataclasses.replace(_HAHN(mu), B=_HAHN(mu).A))],
        [("jordan-hahn", "partition-not-disjoint-cover")],
    ),
    "certify-hahn-false-minus": (
        [(verify_mod.dec, "certify_hahn", lambda *a: {**_CERTIFY_HAHN(*a), "hahn_mu_minus": False})],
        [("jordan-hahn", "hahn_mu_minus")],
    ),
    "check-series-always-witnesses": (
        [(verify_mod, "check_series", lambda *_: SeriesWitness(True, True))],
        [("series", "alternating-series-witness")],
    ),
    "lt-d-always-false": (
        [(verify_mod, "lt_d", lambda a, b: False)],
        [("order", "lenient-strict-less"), ("dct", "gap-above-threshold")],
    ),
    "is-invariant-always-false": (
        [(verify_mod.dyn, "is_invariant", lambda *_: False)],
        [("cesaro-hull", "cesaro-limit-not-invariant"), ("invariant-nonempty", "basis-not-invariant")],
    ),
    "convex-combination-bumped": (
        [(verify_mod.dyn, "convex_combine", _bumped_combination)],
        [("continuity", "convex-combination-not-invariant")],
    ),
    "pushforward-scaled": (
        [(verify_mod.dyn, "pushforward", lambda f, mu: _PUSHFORWARD(f, mu) * 1.5)],
        [("change-of-variables", "cov-tolerance")],
    ),
    "mutually-singular-always": (
        [(verify_mod.dec, "mutually_singular", lambda a, b: True)],
        [("lrn", "lrn-uniqueness")],
    ),
    "probability-variant-raises": (
        [(verify_mod, "probability_variant", _refuse)],
        [("invariant-nonempty", "raised"), ("measure-ops", "normalized-not-probability")],
    ),
    "zero-slack": (
        [(measures_mod, "_slack", _zero_slack), (verify_mod, "_slack", _zero_slack)],
        [("algebra", "mul-associative"), ("integration", "linearity")],
    ),
}


@pytest.mark.parametrize(
    "fault, suite, check",
    [
        pytest.param(fault, suite, check, id=f"{fault}-{suite}")
        for fault, (_, caught) in _FAULTS.items()
        for suite, check in caught
    ],
)
def test_every_check_can_fail(monkeypatch, fault, suite, check):
    for owner, name, broken in _FAULTS[fault][0]:
        monkeypatch.setattr(owner, name, broken)
    failure = verify_mod.run_suite(suite, 42, 50).first_counterexample
    assert failure is not None and failure["check"] == check


class TestCliVerify:
    def test_small_clean_run(self, capsys):
        code, out, err = _run(
            ["verify", "--cases", "2", "--seed", "7", "--suite", "algebra"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert report["suites"][0]["name"] == "algebra"

    def test_failing_suite_exits_3(self, capsys):
        def always_fails(rng):
            yield "forced failure", False

        verify_mod._REGISTRY.append(("zz-forced-failure", 1, always_fails))
        try:
            code, out, err = _run(
                ["verify", "--cases", "3", "--suite", "zz-forced-failure"], capsys
            )
        finally:
            verify_mod._REGISTRY.pop()
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "verification failure"
        assert payload["failed_suites"] == ["zz-forced-failure"]
        assert payload["counterexamples"]

    @pytest.mark.parametrize(
        "exc, error",
        [
            (ValueError("boom"), "ValueError: boom"),
            (ZeroDivisionError("division by zero"), "ZeroDivisionError: division by zero"),
        ],
        ids=["ValueError", "ZeroDivisionError"],
    )
    def test_raising_suite_is_a_replayable_failure(self, capsys, monkeypatch, exc, error):
        # A check that raises is a failing case, not a bad glob (exit 2)
        # nor a traceback: exit 3, naming its suite, seed and case.
        def raises_from_case_1(rng):
            calls.append(rng)
            if len(calls) == 2:
                raise exc
            return ()

        calls = []
        monkeypatch.setattr(
            verify_mod, "_REGISTRY", [*verify_mod._REGISTRY, ("zz-raises", 1, raises_from_case_1)]
        )
        code, out, err = _run(
            ["verify", "--cases", "3", "--seed", "5", "--suite", "zz-raises"], capsys
        )
        assert code == 3
        assert json.loads(out)["suites"][0]["failures"] == 1
        assert json.loads(err)["counterexamples"] == [
            {"suite": "zz-raises", "seed": 5, "case": 1, "check": "raised", "error": error}
        ]

    @pytest.mark.parametrize(
        "runner, failure",
        [
            (lambda rng: [("x", True), ("y", np.False_)], {"check": "y"}),
            (lambda rng: [("x", None), ("y", None)], None),
            (_false_then_raise, {"check": "first"}),
            (_raise_before_yield, {"check": "raised", "error": "ValueError: before any verdict"}),
        ],
        ids=["numpy-false-fails", "vacuous-passes", "lazy-after-failure", "raises-first"],
    )
    def test_first_false_verdict_names_the_failure(self, monkeypatch, runner, failure):
        # A suite yields (check, verdict) pairs: the first verdict that is
        # neither None nor true is the failure, and nothing after it runs.
        monkeypatch.setattr(verify_mod, "_REGISTRY", [("zz-verdicts", 1, runner)])
        result = verify_mod.run_suite("zz-verdicts", 3, 2)
        assert result.failures == (0 if failure is None else 2)
        assert result.first_counterexample == (
            failure and {"suite": "zz-verdicts", "seed": 3, "case": 0, **failure}
        )

    def test_unknown_suite_is_schema_error(self, capsys):
        code, _, err = _run(["verify", "--suite", "no-such-suite"], capsys)
        assert code == 2

    def test_algebra_suite_catches_a_division_that_multiplies(self, monkeypatch):
        monkeypatch.setattr(
            Bicomplex, "__truediv__", lambda a, b: Bicomplex(a.e1 * b.e1, a.e2 * b.e2)
        )
        result = verify_mod.run_suite("algebra", 42, 20)
        assert result.failures == 20
        assert result.first_counterexample["check"] == "division-inverts-product"

    def test_lattice_suite_names_the_implication_that_fails(self, monkeypatch):
        # A singularity test that answers yes to everything makes a nonzero
        # measure both absolutely continuous and singular.
        monkeypatch.setattr("hypmeasure.decomposition.mutually_singular", lambda a, b: True)
        result = verify_mod.run_suite("lattice", 42, 100)
        assert result.failures > 0
        assert result.first_counterexample["check"] == "ac_and_singular_is_zero"

    def test_lattice_suite_reaches_every_implication(self, monkeypatch):
        # None is a vacuous implication; each must also be tested at least once.
        reached = set()
        check = verify_mod.dec.check_lattice_properties

        def recording(*measures):
            verdicts = check(*measures)
            reached.update(name for name, value in verdicts.items() if value is not None)
            return verdicts

        monkeypatch.setattr(verify_mod.dec, "check_lattice_properties", recording)
        assert verify_mod.run_suite("lattice", 42, 1000).passed
        assert len(reached) == 7


class TestCliGen:
    def test_byte_determinism(self, tmp_path, capsys):
        outs = []
        for name in ("one.json", "two.json"):
            out_path = tmp_path / name
            code = main(
                [
                    "gen",
                    "--kind",
                    "signed-measure",
                    "--atoms",
                    "4",
                    "--seed",
                    "7",
                    "--output",
                    str(out_path),
                ]
            )
            assert code == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]
        capsys.readouterr()

    def test_seed_changes_output(self, tmp_path, capsys):
        docs = []
        for seed in ("7", "8"):
            docs.append(
                _run_json(
                    ["gen", "--kind", "signed-measure", "--atoms", "4", "--seed", seed],
                    capsys,
                )
            )
        assert docs[0] != docs[1]

    @pytest.mark.parametrize("kind", GEN_KINDS)
    def test_every_kind_emits_parseable_doc(self, kind, capsys):
        doc = _run_json(["gen", "--kind", kind, "--atoms", "5", "--seed", "3"], capsys)
        if kind in ("map", "interval-map-discretization"):
            parse_map(doc)
        elif kind == "function":
            parse_function(doc)
        else:
            mu = parse_measure(doc)
            if kind == "d-probability":
                total = mu.of(mu.space.full())
                assert abs(total.e1 - 1) < 1e-12 and abs(total.e2 - 1) < 1e-12

    def test_dyadic_probability_is_exact(self, capsys):
        doc = _run_json(
            [
                "gen",
                "--kind",
                "d-probability",
                "--atoms",
                "6",
                "--seed",
                "11",
                "--mode",
                "dyadic",
            ],
            capsys,
        )
        mu = parse_measure(doc)
        total = mu.of(mu.space.full())
        assert total == Bicomplex(1, 1)

    def test_interval_map_tent_default(self, capsys):
        doc = _run_json(
            ["gen", "--kind", "interval-map-discretization", "--atoms", "4"], capsys
        )
        # midpoints .125/.375/.625/.875 hit tent values .25/.75/.75/.25
        assert doc["map"] == {"b0": "b1", "b1": "b3", "b2": "b3", "b3": "b1"}

    def test_interval_map_custom_breakpoints(self, tmp_path, capsys):
        path = tmp_path / "bp.json"
        path.write_text(json.dumps({"breakpoints": [[0, 0], [1, 1]]}))
        doc = _run_json(
            [
                "gen",
                "--kind",
                "interval-map-discretization",
                "--atoms",
                "4",
                "--input",
                str(path),
            ],
            capsys,
        )
        # identity map: each bin midpoint stays in its own bin
        assert doc["map"] == {"b0": "b0", "b1": "b1", "b2": "b2", "b3": "b3"}

    def test_bad_breakpoints_schema(self, tmp_path, capsys):
        path = tmp_path / "bp.json"
        path.write_text(json.dumps({"breakpoints": [[0, 0], ["x", 1]]}))
        code, _, err = _run(
            [
                "gen",
                "--kind",
                "interval-map-discretization",
                "--atoms",
                "4",
                "--input",
                str(path),
            ],
            capsys,
        )
        assert code == 2
        assert "breakpoints" in json.loads(err)["location"]

    def test_breakpoint_past_float_range(self, tmp_path, capsys):
        path = tmp_path / "bp.json"
        path.write_text(f'{{"breakpoints": [[0, 0], [1, -{BIG_INT}]]}}')
        argv = ["gen", "--kind", "interval-map-discretization", "--input", str(path)]
        code, _, err = _run(argv, capsys)
        assert code == 2
        assert json.loads(err)["location"] == "input.breakpoints[1][1]"


    @pytest.mark.parametrize(
        "pairs, location",
        [
            ("[[0, 0], [0.5, NaN], [1, 0]]", "input.breakpoints[1][1]"),
            ("[[0, 0], [Infinity, 1], [1, 0]]", "input.breakpoints[1][0]"),
            ("[[0, 0], [0.5, -Infinity], [1, 0]]", "input.breakpoints[1][1]"),
        ],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_breakpoint(self, tmp_path, capsys, pairs, location):
        path = tmp_path / "bp.json"
        path.write_text(f'{{"breakpoints": {pairs}}}')
        argv = ["gen", "--kind", "interval-map-discretization", "--input", str(path)]
        code, out, err = _run(argv, capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "schema violation",
            "location": location,
            "message": "expected a finite number",
        }

    def test_boolean_breakpoint(self, tmp_path, capsys):
        path = tmp_path / "bp.json"
        path.write_text(json.dumps({"breakpoints": [[0, False], [0.5, True], [1, False]]}))
        argv = ["gen", "--kind", "interval-map-discretization", "--input", str(path)]
        code, out, err = _run(argv, capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "schema violation",
            "location": "input.breakpoints[0]",
            "message": "expected an [x, y] pair",
        }


class TestCliParser:
    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # Help, a usage error and a schema error leave no trace in the
        # shared parser: a second round gives the first round's bytes.
        path = tmp_path / "in.json"
        path.write_text(json.dumps(WORKED_EXAMPLE))
        calls = [
            ["--help"],
            ["decompose", "--seed", "3"],
            ["find-invariant", "--input", str(path), "--tol", "-1"],
            ["decompose", "--input", str(path)],
            ["gen", "--kind", "map", "--atoms", "3"],
        ]

        def round_():
            results = []
            for argv in calls:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = ("exit", exc.code)
                results.append((code, *capsys.readouterr()))
            return results

        build_parser.cache_clear()
        first = round_()
        assert [r[0] for r in first] == [("exit", 0), ("exit", 2), 2, 0, 0]
        assert "usage: hypmeasure" in first[0][1]
        assert "unrecognized arguments" in first[1][2]
        assert round_() == first
        assert build_parser() is build_parser()

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_gen_requires_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["gen", "--kind", "map", "--tol", "5"], id="gen-tol"),
            pytest.param(["gen", "--kind", "map", "--cases", "9"], id="gen-cases"),
            pytest.param(["verify", "--tol", "1e-6"], id="verify-tol"),
            pytest.param(["decompose", "--tol", "1e-9"], id="decompose-tol"),
            pytest.param(["decompose", "--seed", "3"], id="decompose-seed"),
            pytest.param(["decompose", "--cases", "3"], id="decompose-cases"),
            pytest.param(["pushforward", "--tol", "1e-6"], id="pushforward-tol"),
            pytest.param(["find-invariant", "--seed", "3"], id="find-invariant-seed"),
            pytest.param(["integrate", "--cases", "3"], id="integrate-cases"),
            pytest.param(["integrate", "--tol", "1e-6"], id="integrate-tol"),
        ],
    )
    def test_unread_flag_is_rejected(self, argv, capsys):
        # Each subcommand registers only the flags it reads.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_tol_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(WORKED_EXAMPLE))
        code, _, err = _run(["find-invariant", "--input", str(path), "--tol", "-1"], capsys)
        assert code == 2
        assert json.loads(err) == {
            "error": "schema violation",
            "location": "tol",
            "message": "must be positive",
        }

    @pytest.mark.parametrize("command", ["integrate", "find-invariant"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_is_schema_error(self, tmp_path, capsys, command, tol):
        # A NaN or infinite threshold would make every convergence check
        # pass (or fail) whatever the data. find-invariant takes it as
        # --tol and never reads the input; integrate takes it only as the
        # document's "tol" (json.dumps writes NaN, Infinity and -Infinity).
        path = tmp_path / "in.json"
        if command == "integrate":
            unit = {"function": {"a": {"e1": [1, 0], "e2": [1, 0]}}}
            doc_in = {
                "space": {"atoms": ["a"]},
                "measure": {"a": {"e1": [1, 0], "e2": [1, 0]}},
                "sequence": [unit],
                "limit": unit,
                "dominator": unit,
                "tol": float(tol),
            }
            path.write_text(json.dumps(doc_in))
            argv, location = [command, "--input", str(path)], "input.tol"
        else:
            path.write_text(json.dumps(WORKED_EXAMPLE))
            argv, location = [command, "--input", str(path), f"--tol={tol}"], "tol"
        code, out, err = _run(argv, capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["location"] == location
