"""Wire-format round-trips and end-to-end command-line runs."""

import contextlib
import copy
import io
import json
import math
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypmeasure import (
    Bicomplex,
    FiniteSpace,
    Hyperbolic,
    PointMap,
    SchemaError,
    SetMask,
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
from hypmeasure.cli import GEN_KINDS, main
from hypmeasure.codec import table_to_obj
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


class TestStructureCodec:
    def test_space_round_trip(self):
        space = FiniteSpace(("a", "b", "c"))
        assert parse_space(space_to_obj(space)) == space
        with pytest.raises(SchemaError) as exc:
            parse_space({"atoms": ["a", "a"]}, "doc.space")
        assert exc.value.location.startswith("doc.space")

    def test_mask_sorted_and_round_trips(self):
        space = FiniteSpace(("a", "b", "c"))
        mask = SetMask(space, 0b101)
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
        assert list(again.indices()) == members


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
        assert dumps_canonical(table_to_obj(table)) == dumps_canonical(reference)
        assert dumps_canonical(doc) == dumps_canonical(reference)


def _stdlib_canonical(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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


class TestCanonicalWriter:
    """``dumps_canonical`` gives the stdlib's indent=2, sort_keys bytes."""

    @settings(max_examples=400, deadline=None)
    @given(obj=_JSON_TREES)
    def test_bytes_match_stdlib(self, obj):
        try:
            want = _stdlib_canonical(obj)
        except TypeError:
            # e.g. None and int keys in one dict cannot be sorted
            with pytest.raises(TypeError):
                dumps_canonical(obj)
            return
        assert dumps_canonical(obj) == want

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
        ]
        for obj in cases:
            assert dumps_canonical(obj) == _stdlib_canonical(obj)

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
        assert len(obj["limit"]) == 10_000 and obj["basis"]
        assert out == _stdlib_canonical(obj)


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

    @pytest.mark.parametrize(
        "masses, reference, location",
        [
            # Each mass is finite; their sum is not.
            ([[1e308, 1e308], [1e308, 1e308]], None, "input.measure"),
            # The sum is finite, n times it (the certifiers' rounding scale) is not.
            ([[1e308, 1.0], [1e307, 1.0]], None, "input.measure"),
            # A tiny reference mass overflows the density 9 / 5e-324.
            ([[9.0, 1.0], [1.0, 1.0]], [[5e-324, 1.0], [1.0, 1.0]], "input.reference"),
        ],
    )
    def test_overflowing_finite_input_is_a_schema_error(
        self, masses, reference, location, capsys, monkeypatch
    ):
        space = FiniteSpace(("a", "b"))
        doc_in = measure_to_obj(TMeasure(space, *np.array(masses).T))
        if reference is not None:
            doc_in["reference"] = measure_to_obj(TMeasure(space, *np.array(reference).T))["measure"]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc_in)))
        code, out, err = _run(["decompose"], capsys)
        assert code == 2
        assert out == ""
        # One JSON document on stderr and nothing else: no numpy warning.
        assert json.loads(err)["location"] == location

    @pytest.mark.parametrize("n, hahn_ok", [(20, True), (21, None), (200, None)])
    def test_subset_cap(self, n, hahn_ok, capsys, monkeypatch):
        # The Hahn cells are built at any size; only the two
        # subset-exhaustive formula checks are capped, and read null.
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
        checks = doc["checks"]
        assert checks.pop("hahn_mu_plus") is hahn_ok
        assert checks.pop("hahn_mu_minus") is hahn_ok
        assert all(checks.values())
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
        assert json.loads(err) == {
            "error": "schema violation",
            "location": "input.reference",
            "message": "decompose needs finite masses",
        }


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
            "message": "function is not integrable against this measure",
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
            "location": "input.measure",
            "message": "integration needs finite masses",
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
            seq, f, _, dominator, mu = gen_mod.gen_dct_instance(rng, space, n_terms=3)
            doc = measure_to_obj(mu)
            doc["sequence"] = [function_to_obj(g, with_space=False) for g in seq]
            doc["limit"] = function_to_obj(f, with_space=False)
            doc["dominator"] = function_to_obj(dominator, with_space=False)
            return doc
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
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch("sys.stdin", io.StringIO(json.dumps(doc))):
            code = main([command])
        assert code in (0, 2, 3)
        if code == 0:
            json.loads(out.getvalue())
            assert err.getvalue() == ""
        else:
            assert isinstance(json.loads(err.getvalue()), dict)


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
            return {"check": "forced failure"}

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

    def test_unknown_suite_is_schema_error(self, capsys):
        code, _, err = _run(["verify", "--suite", "no-such-suite"], capsys)
        assert code == 2


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
            pytest.param(["decompose", "--seed", "3"], id="decompose-seed"),
            pytest.param(["decompose", "--cases", "3"], id="decompose-cases"),
            pytest.param(["pushforward", "--tol", "1e-6"], id="pushforward-tol"),
            pytest.param(["find-invariant", "--seed", "3"], id="find-invariant-seed"),
            pytest.param(["integrate", "--cases", "3"], id="integrate-cases"),
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
        code, _, err = _run(
            ["decompose", "--input", str(path), "--tol", "-1"], capsys
        )
        assert code == 2
        assert json.loads(err)["error"] == "schema violation"

    @pytest.mark.parametrize("command", ["decompose", "integrate", "find-invariant"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_is_schema_error(self, tmp_path, capsys, command, tol):
        # A NaN or infinite floor would make every rounded check pass
        # (or fail) whatever the data; the input is never read.
        path = tmp_path / "in.json"
        path.write_text(json.dumps(WORKED_EXAMPLE))
        code, out, err = _run([command, "--input", str(path), f"--tol={tol}"], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["location"] == "tol"
