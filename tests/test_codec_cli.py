"""Wire-format round-trips and end-to-end command-line runs."""

import io
import json

import numpy as np
import pytest

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
from hypmeasure.cli import GEN_KINDS, main
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


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(argv, capsys):
    code, out, err = _run(argv, capsys)
    assert code == 0, err
    return json.loads(out)


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

    def test_bad_tol_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(WORKED_EXAMPLE))
        code, _, err = _run(
            ["decompose", "--input", str(path), "--tol", "-1"], capsys
        )
        assert code == 2
        assert json.loads(err)["error"] == "schema violation"
