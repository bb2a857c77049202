"""Batch front door: JSON in, JSON out, seeded verification.

Subcommands map one-to-one onto the library's operation families:

- ``decompose``: Jordan, Hahn, polar and Lebesgue decompositions of a
  hyperbolic measure at any size, with every identity re-checked atom
  by atom, the Hahn formulas on every subset included.
- ``integrate``: a single integral (with modulus inequality report) or
  a dominated-convergence run when the document has a ``sequence``, to
  the document's ``tol`` (default 1e-9).
- ``pushforward``: image of a D-probability under a self-map.
- ``find-invariant``: averaged-orbit invariant measure plus the
  brute-force basis of the invariant cone.
- ``verify``: the named property suites over seeded random instances.
- ``gen``: seeded instance generation for all input kinds.

Exit codes: 0 on success, 2 on schema or usage violations (with a
dotted document location on stderr), 3 on internal invariant
violations, a check that is false, or failing verification suites
(with a counterexample dump on stderr).

Outputs are canonical JSON (sorted keys, two-space indent, trailing
newline), so identical inputs and flags produce byte-identical bytes.
The only exception is ``verify``, whose report includes per-suite
wall times; everything else in it is deterministic.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys
from typing import Any

import numpy as np
from numpy.random import default_rng

from . import generators as gen_mod
from .codec import (
    _as_float,
    _parse_functions,
    _parse_table,
    bicomplex_to_obj,
    dumps_canonical,
    function_to_obj,
    hyperbolic_to_obj,
    map_to_obj,
    mask_to_obj,
    measure_to_obj,
    parse_function,
    parse_map,
    parse_mask,
    parse_measure,
)
from .decomposition import (
    certify_hahn,
    certify_jordan,
    certify_lrn,
    certify_polar,
    hahn,
    jordan,
    lebesgue_radon_nikodym,
    polar_density,
)
from .dynamics import (
    cesaro_invariant,
    in_invariant_hull,
    invariant_basis_bruteforce,
    is_invariant,
    pushforward_iter,
)
from .errors import InternalInvariantError, NotIntegrableError, SchemaError
from .integration import check_modulus_inequality, dct_run, integrate
from .measures import TMeasure, probability_variant, variation_measure
from .verify import run_verify

__all__ = ["main"]

GEN_KINDS = (
    "t-measure",
    "d-measure",
    "signed-measure",
    "d-probability",
    "function",
    "map",
    "interval-map-discretization",
)


def _check_flags(args: argparse.Namespace) -> None:
    """Reject out-of-range flag values of the flags a subcommand has."""
    tol = getattr(args, "tol", 1.0)
    if tol <= 0.0:
        raise SchemaError("tol", "must be positive")
    if not math.isfinite(tol):
        raise SchemaError("tol", "must be finite")
    if getattr(args, "cases", 1) <= 0:
        raise SchemaError("cases", "must be positive")
    if getattr(args, "seed", 0) < 0:
        raise SchemaError("seed", "must be a nonnegative integer")
    if getattr(args, "atoms", 1) < 1:
        raise SchemaError("atoms", "must be at least 1")


def _read_doc(args: argparse.Namespace) -> Any:
    try:
        if args.input is None:
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError("input", str(exc)) from None
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the parser's stack allows.
        raise SchemaError("input", f"invalid JSON: {exc}") from None


def _write_doc(args: argparse.Namespace, obj: Any) -> None:
    try:
        text = dumps_canonical(obj)
    except ValueError as exc:
        # Inputs are finite and overflows are caught at the result: a bug.
        raise InternalInvariantError("result is not finite", {"reason": str(exc)}) from None
    if args.output is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError("output", str(exc)) from None


def _without_space(doc: dict) -> dict:
    """The document minus its ``space`` key.

    Parsing a second part of a document against the space already
    parsed from it keeps one ``FiniteSpace`` per document, so space
    checks compare one object instead of two label tuples.
    """
    return {key: value for key, value in doc.items() if key != "space"}


# ---------------------------------------------------------------- commands


def _cmd_decompose(args: argparse.Namespace) -> dict:
    doc = _read_doc(args)
    mu = parse_measure(doc, "input")
    if not mu.is_real():
        raise SchemaError(
            "input.measure", "decompose needs hyperbolic (real-component) masses"
        )
    space = mu.space
    if isinstance(doc, dict) and "reference" in doc:
        ref = _parse_table(doc["reference"], space, "input.reference", TMeasure)
        if not ref.is_d_measure():
            raise SchemaError("input.reference", "reference must be a D-measure")
    else:
        ref = variation_measure(mu)

    pair = jordan(mu)
    cells = hahn(mu)
    h = polar_density(mu)
    lrn = lebesgue_radon_nikodym(mu, ref)
    if not lrn.density.is_finite():
        raise SchemaError(
            "input.reference", "density against the reference overflows the float range"
        )
    # Finite masses certify without overflow: no certifier sums masses, and
    # certify_lrn's density * reference m stays in range. For m < 1 it is
    # below the largest float. For m >= 1 the density is fl(x * fl(1/m)),
    # at most fl(max * fl(1/m)), the float below fl(1/m) times 2**1024, and
    # that times m is below the overflow threshold 2**1024 * (1 - 2**-54).
    checks = {
        **certify_jordan(mu, pair),
        **certify_hahn(mu, cells),
        **certify_polar(mu, h),
        **certify_lrn(mu, ref, lrn),
    }
    # The space and atom tables stay as they are: dumps_canonical joins each.
    result = {
        "space": space,
        "jordan": {"mu_plus": pair.mu_plus, "mu_minus": pair.mu_minus},
        "hahn": {
            "A": mask_to_obj(cells.A),
            "B": mask_to_obj(cells.B),
            "C": mask_to_obj(cells.C),
            "D": mask_to_obj(cells.D),
        },
        "polar_h": function_to_obj(h, with_space=False, expand=False),
        "lrn": {
            "reference": ref,
            "absolutely_continuous": lrn.lambda_ac,
            "singular": lrn.lambda_sing,
            "density": function_to_obj(lrn.density, with_space=False, expand=False),
        },
        "checks": checks,
    }
    if False in checks.values():
        raise InternalInvariantError(
            "decomposition identity failed",
            {"checks": checks, "input": doc},
        )
    return result


def _cmd_integrate(args: argparse.Namespace) -> dict:
    doc = _read_doc(args)
    mu = parse_measure(doc, "input")
    if not mu.is_d_measure():
        raise SchemaError("input.measure", "integration needs a D-measure")
    space = mu.space

    if isinstance(doc, dict) and "sequence" in doc:
        seq_obj = doc["sequence"]
        if not isinstance(seq_obj, list) or not seq_obj:
            raise SchemaError(
                "input.sequence", "expected a nonempty list of functions"
            )
        # Terms, limit and dominator in one pass; a missing end is named after the terms parse.
        ends = [doc[key] for key in ("limit", "dominator") if key in doc]
        locs = [f"input.sequence[{i}]" for i in range(len(seq_obj))] + ["input.limit", "input.dominator"]
        fns = _parse_functions(seq_obj + ends if len(ends) == 2 else seq_obj, locs, space)
        if "limit" not in doc:
            raise SchemaError("input.limit", "missing limit function")
        if "dominator" not in doc:
            raise SchemaError("input.dominator", "missing dominating function")
        *seq, limit, dominator = fns
        tol = doc.get("tol", 1e-9)
        if not isinstance(tol, (int, float)) or isinstance(tol, bool) or tol <= 0:
            raise SchemaError("input.tol", "expected a positive number")
        tol = _as_float(tol, "input.tol")
        try:
            report = dct_run(seq, limit, dominator, mu, tol)
        except NotIntegrableError as exc:
            where = "input.limit" if exc.term is None else f"input.sequence[{exc.term}]"
            raise SchemaError(f"{where}.function", str(exc)) from None
        except ValueError as exc:
            raise SchemaError("input", str(exc)) from None
        return {
            "domination_ok": report.domination_ok,
            "l1_limit": [hyperbolic_to_obj(g) for g in report.l1_limit],
            "integral_trace": [
                bicomplex_to_obj(v) for v in report.integral_trace
            ],
            "final_gap": hyperbolic_to_obj(report.final_gap),
            "success": report.success,
        }

    f = parse_function(_without_space(doc), "input", space)
    mask = None
    if isinstance(doc, dict) and "set" in doc:
        mask = parse_mask(doc["set"], space, "input.set")
    # Masses and values are finite; their products can still overflow.
    try:
        value = integrate(f, mu, mask)
    except ValueError as exc:
        raise SchemaError("input.function", str(exc)) from None
    mod = check_modulus_inequality(f, mu)
    modulus = {
        "integral_modulus": hyperbolic_to_obj(mod.lhs),
        "integral_of_modulus": hyperbolic_to_obj(mod.rhs),
        "holds": mod.holds,
    }
    if not mod.holds:
        raise InternalInvariantError(
            "modulus inequality failed", {"modulus": modulus, "input": doc}
        )
    return {"integral": bicomplex_to_obj(value), "in_l1": True, "modulus": modulus}


def _cmd_pushforward(args: argparse.Namespace) -> dict:
    doc = _read_doc(args)
    mu = parse_measure(doc, "input")
    f = parse_map(_without_space(doc), "input", mu.space)
    iterations = doc.get("iterations", 1)
    if not isinstance(iterations, int) or isinstance(iterations, bool) or iterations < 1:
        raise SchemaError("input.iterations", "expected a positive integer")
    try:
        out = pushforward_iter(f, mu, iterations)
    except ValueError as exc:
        raise SchemaError("input.measure", str(exc)) from None
    return measure_to_obj(out, expand=False)


def _cmd_find_invariant(args: argparse.Namespace) -> dict:
    doc = _read_doc(args)
    f = parse_map(doc, "input")
    space = f.space
    if isinstance(doc, dict) and "measure" in doc:
        mu0 = parse_measure(_without_space(doc), "input", space)
    else:
        uniform = np.full(space.size, 1.0 / space.size)
        mu0 = TMeasure(space, uniform, uniform.copy())
    try:
        probability_variant(mu0)
    except ValueError as exc:
        raise SchemaError("input.measure", str(exc)) from None
    max_iter = doc.get("max_iter", 256)
    if not isinstance(max_iter, int) or isinstance(max_iter, bool) or max_iter < 1:
        raise SchemaError("input.max_iter", "expected a positive integer")

    trace = cesaro_invariant(f, mu0, max_iter=max_iter, tol=args.tol)
    basis = invariant_basis_bruteforce(f)
    limit = trace.limit
    return {
        "space": space,
        "burn_in": trace.burn_in,
        "converged": trace.converged,
        "iterations": len(trace.gaps),
        "gaps": [hyperbolic_to_obj(g) for g in trace.gaps],
        "limit": limit,
        "limit_is_invariant": is_invariant(f, limit, args.tol),
        "limit_in_hull": in_invariant_hull(f, limit),
        "basis": basis,
    }


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        report = run_verify(args.seed, args.cases, args.suite)
    except ValueError as exc:
        raise SchemaError("suite", str(exc)) from None
    _write_doc(args, report.to_obj())
    if report.all_passed:
        return 0
    dump = {
        "error": "verification failure",
        "failed_suites": [s.name for s in report.suites if not s.passed],
        "counterexamples": [
            s.first_counterexample for s in report.suites if not s.passed
        ],
    }
    sys.stderr.write(dumps_canonical(dump))
    return 3


def _cmd_gen(args: argparse.Namespace) -> dict:
    rng = default_rng(args.seed)
    kind = args.kind
    if kind == "interval-map-discretization":
        breakpoints = None  # the generator's tent map
        if args.input is not None:
            doc = _read_doc(args)
            doc_bp = doc.get("breakpoints") if isinstance(doc, dict) else None
            if not isinstance(doc_bp, list):
                raise SchemaError(
                    "input.breakpoints", "expected a list of [x, y] pairs"
                )
            breakpoints = []
            for i, pt in enumerate(doc_bp):
                if (
                    not isinstance(pt, list)
                    or len(pt) != 2
                    or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in pt)
                ):
                    raise SchemaError(
                        f"input.breakpoints[{i}]", "expected an [x, y] pair"
                    )
                breakpoints.append(tuple(
                    _as_float(c, f"input.breakpoints[{i}][{j}]") for j, c in enumerate(pt)
                ))
        try:
            _, pm = gen_mod.gen_interval_map_discretization(
                args.atoms, breakpoints
            )
        except ValueError as exc:
            raise SchemaError("input.breakpoints", str(exc)) from None
        return map_to_obj(pm)

    space = gen_mod.make_space(args.atoms)
    if kind == "t-measure":
        mu = gen_mod.gen_t_measure(rng, space, args.mode)
    elif kind == "d-measure":
        mu = gen_mod.gen_d_measure(rng, space, args.mode)
    elif kind == "signed-measure":
        mu = gen_mod.gen_signed_measure(rng, space, args.mode)
    elif kind == "d-probability":
        mu = gen_mod.gen_d_probability(rng, space, dyadic=(args.mode == "dyadic"))
    elif kind == "function":
        return function_to_obj(gen_mod.gen_function(rng, space, args.mode), expand=False)
    elif kind == "map":
        return map_to_obj(gen_mod.gen_map(rng, space))
    return measure_to_obj(mu, expand=False)


# ------------------------------------------------------------------ driver


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call.

    Parsing keeps no state between calls, and argparse looks up
    ``sys.stdout`` and ``sys.stderr`` when it prints, so help and usage
    errors go to the streams of the current call.
    """
    parser = argparse.ArgumentParser(
        prog="hypmeasure",
        description="Hyperbolic-measure toolbox: decompose, integrate, "
        "push forward, find invariant measures, verify, generate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand registers only the flags it reads.
    for name in ("decompose", "integrate", "pushforward", "find-invariant", "verify", "gen"):
        p = sub.add_parser(name)
        if name != "verify":
            p.add_argument("--input", default=None, help="input JSON path (default stdin)")
        p.add_argument("--output", default=None, help="output JSON path (default stdout)")
        if name in ("verify", "gen"):
            p.add_argument("--seed", type=int, default=42)
        if name == "find-invariant":
            p.add_argument("--tol", type=float, default=1e-9)
        if name == "verify":
            p.add_argument("--cases", type=int, default=1000)
            p.add_argument("--suite", default="*", help="suite name glob")
        if name == "gen":
            p.add_argument("--kind", choices=GEN_KINDS, required=True)
            p.add_argument("--atoms", type=int, default=4)
            p.add_argument(
                "--mode",
                choices=("float", "integer", "dyadic"),
                default="float",
                help="value distribution for generated instances",
            )
    return parser


_COMMANDS = {
    "decompose": _cmd_decompose,
    "integrate": _cmd_integrate,
    "pushforward": _cmd_pushforward,
    "find-invariant": _cmd_find_invariant,
    "gen": _cmd_gen,
}


def main(argv: "list[str] | None" = None) -> int:
    enabled = gc.isenabled()
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
        if args.command == "verify":
            return _cmd_verify(args)
        # A parsed JSON document and the objects built from it hold no
        # reference cycles, so the cyclic collector stays paused from the
        # parse through the write: its collections would only walk the
        # document's tree.
        gc.disable()
        result = _COMMANDS[args.command](args)
        _write_doc(args, result)
        return 0
    except SchemaError as exc:
        sys.stderr.write(
            dumps_canonical(
                {"error": "schema violation", "location": exc.location, "message": exc.message}
            )
        )
        return 2
    except InternalInvariantError as exc:
        sys.stderr.write(
            json.dumps(
                {"error": "internal invariant violation", "message": str(exc), "payload": exc.payload},
                default=repr,
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
        return 3
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
