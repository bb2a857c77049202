"""Seeded job lists for the three workloads, and the output check of every job.

A job is closed-loop work for the program: one ``hypmeasure.cli.main``
invocation with its stdin document (two for the bulk ``gen`` job), or one
suite of a ``run_verify`` call. Inputs are
drawn with ``hypmeasure.generators`` and encoded by this module, not by the
package's codec, so setup time and the output checks stay independent of the
codec being measured. Each check recomputes the expected answer here, from
the arrays the inputs were encoded from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hypmeasure import codec
from hypmeasure import generators as gen

WORKLOADS = ("cli-bulk", "cli-small", "verify")

BULK_ATOMS = 10_000
SMALL_SIZES = range(4, 21)
# hahn refuses spaces above 20 atoms (its 2**n subset check), so these jobs
# end in an uncaught ValueError at the seed. They stay in the mix and count
# as failures until the defect is fixed.
OVERSIZE_DECOMPOSE = range(21, 25)
# cli-bulk probes for the two subcommands its job list lacks. Decompose at
# 18 atoms is dominated by hahn's 2**n subset check, yet its arrays stay
# below the bulk jobs' peak memory (20 atoms doubled peak_rss_mb); a DCT
# sequence of 200 atoms parses in tens of milliseconds. One of each is
# drawn per bulk job and runs PROBE_ROUNDS times after it.
PROBE_SIZES = (("decompose", 18), ("dct", 200))
PROBE_ROUNDS = 3

GEN_KINDS = (
    "t-measure",
    "d-measure",
    "signed-measure",
    "d-probability",
    "function",
    "map",
    "interval-map-discretization",
)

# On verify, a subcommand's latency is the time per case over the suites
# that check the same operations. Every case starts by generating its
# instance, so gen stands for all suites. Groups of suites spread over the
# run read steadier than one short suite on a shared machine.
SUITES_OF_KIND = {
    "decompose": (
        "epsilon-delta", "indefinite-tv", "jordan-hahn", "lattice", "lrn", "polar-measure",
    ),
    "integrate": ("integration", "measure-ops", "total-variation"),
    "dct": ("dct",),
    "pushforward": ("change-of-variables", "pushforward-linearity"),
    "find_invariant": ("cesaro-hull", "continuity", "invariant-nonempty"),
}

# Case budget per suite of the default run_verify(seed, 1000, "*"): the
# registry runs 1000 // scale cases.
VERIFY_CASES = 1000
VERIFY_SUITES = {
    "algebra": 1000,
    "cesaro-hull": 50,
    "change-of-variables": 1000,
    "codec": 200,
    "continuity": 200,
    "dct": 200,
    "epsilon-delta": 1000,
    "indefinite-tv": 1000,
    "integration": 1000,
    "invariant-nonempty": 1000,
    "jordan-hahn": 1000,
    "lattice": 1000,
    "lrn": 1000,
    "measure-ops": 1000,
    "order": 1000,
    "polar-measure": 1000,
    "pushforward-linearity": 1000,
    "series": 100,
    "total-variation": 1000,
}


@dataclass
class Call:
    """One ``cli.main`` invocation and the check on its stdout."""

    argv: list[str]
    stdin: str
    check: Callable[[str], bool]


@dataclass
class Job:
    """One unit of closed-loop work; its latency is that of all its calls."""

    kind: str
    atoms: int
    calls: list[Call]


# ------------------------------------------------------------- encoding


def _masses(labels, e1: np.ndarray, e2: np.ndarray) -> dict:
    e1 = np.asarray(e1, dtype=np.complex128)
    e2 = np.asarray(e2, dtype=np.complex128)
    return {
        label: {"e1": [a, b], "e2": [c, d]}
        for label, a, b, c, d in zip(
            labels, e1.real.tolist(), e1.imag.tolist(), e2.real.tolist(), e2.imag.tolist()
        )
    }


def _decode(masses: dict, labels, comp: str) -> np.ndarray:
    return np.array([complex(*masses[label][comp]) for label in labels])


def _space_doc(labels) -> dict:
    return {"atoms": list(labels)}


def _map_doc(labels, image) -> dict:
    return {label: labels[int(j)] for label, j in zip(labels, image)}


def _ordered_sum(values: np.ndarray) -> complex:
    # cumsum adds in ascending index order, the order the program promises.
    return complex(np.cumsum(values)[-1]) if len(values) else 0j


def count_cycles(image) -> int:
    """Number of cycles of the functional graph i -> image[i]."""
    image = [int(j) for j in image]
    state = [0] * len(image)  # 0 unseen, 1 on the current walk, 2 finished
    cycles = 0
    for start in range(len(image)):
        walk = []
        x = start
        while state[x] == 0:
            state[x] = 1
            walk.append(x)
            x = image[x]
        if state[x] == 1:
            cycles += 1
        for y in walk:
            state[y] = 2
    return cycles


# ----------------------------------------------------------- job builders


def small_cycle_map(rng, n: int, cycles: int, max_cycle: int = 6) -> np.ndarray:
    """A self-map with exactly ``cycles`` cycles, each of length <= ``max_cycle``.

    Built as ``gen_map_with_small_cycles`` builds its maps: the leading atoms
    form the cycles and every later atom points to a uniformly drawn earlier
    one, so no other cycle can form. That generator draws one to three
    cycles, and redrawing until the count matched made set-up time vary
    twofold with the seed; this draws the map once.
    """
    image = np.empty(n, dtype=np.int64)
    pos = 0
    for length in rng.integers(1, max_cycle + 1, size=cycles):
        image[pos : pos + length] = pos + (np.arange(length) + 1) % length
        pos += int(length)
    image[pos:] = (rng.random(n - pos) * np.arange(pos, n)).astype(np.int64)
    return image


def decompose_job(rng, n: int) -> Job:
    space = gen.make_space(n)
    labels = space.atoms
    mu = gen.gen_signed_measure(rng, space)
    doc = {"space": _space_doc(labels), "measure": _masses(labels, mu.e1, mu.e2)}

    def check(text: str) -> bool:
        jordan = json.loads(text)["jordan"]
        plus, minus = jordan["mu_plus"], jordan["mu_minus"]
        return all(
            np.array_equal(_decode(plus, labels, c) - _decode(minus, labels, c), want)
            for c, want in (("e1", mu.e1), ("e2", mu.e2))
        )

    return Job("decompose", n, [Call(["decompose"], json.dumps(doc), check)])


def integrate_job(rng, n: int, with_set: bool = False) -> Job:
    space = gen.make_space(n)
    labels = space.atoms
    mu = gen.gen_d_measure(rng, space)
    f = gen.gen_function(rng, space)
    doc = {
        "space": _space_doc(labels),
        "measure": _masses(labels, mu.e1, mu.e2),
        "function": _masses(labels, f.e1, f.e2),
    }
    idx = np.arange(n)
    if with_set:
        idx = np.flatnonzero(rng.random(n) < 0.5)
        doc["set"] = [labels[i] for i in idx]
    want = {
        "e1": _ordered_sum(f.e1[idx] * mu.e1.real[idx]),
        "e2": _ordered_sum(f.e2[idx] * mu.e2.real[idx]),
    }

    def check(text: str) -> bool:
        got = json.loads(text)["integral"]
        return all(got[c] == [want[c].real, want[c].imag] for c in want)

    return Job("integrate", n, [Call(["integrate"], json.dumps(doc), check)])


def dct_job(rng, n: int, terms: int = 16) -> Job:
    space = gen.make_space(n)
    labels = space.atoms
    seq, f, g, dominator, mu = gen.gen_dct_instance(rng, space, terms)
    # The last term sits 0.9/terms * integral(g) from the limit, so a
    # tolerance of a tenth of the larger integral of g is always met.
    int_g = max(float(np.sum(g.e1.real * mu.e1.real)), float(np.sum(g.e2.real * mu.e2.real)))
    doc = {
        "space": _space_doc(labels),
        "measure": _masses(labels, mu.e1, mu.e2),
        "sequence": [{"function": _masses(labels, fn.e1, fn.e2)} for fn in seq],
        "limit": {"function": _masses(labels, f.e1, f.e2)},
        "dominator": {"function": _masses(labels, dominator.e1, dominator.e2)},
        "tol": 0.1 * int_g,
    }

    def check(text: str) -> bool:
        out = json.loads(text)
        return out["success"] is True and out["domination_ok"] is True

    return Job("dct", n, [Call(["integrate"], json.dumps(doc), check)])


def pushforward_job(rng, n: int, iterations: int | None = None) -> Job:
    space = gen.make_space(n)
    labels = space.atoms
    mu = gen.gen_d_probability(rng, space)
    fmap = gen.gen_map(rng, space)
    if iterations is None:
        iterations = int(rng.integers(1, 9))
    doc = {
        "space": _space_doc(labels),
        "measure": _masses(labels, mu.e1, mu.e2),
        "map": _map_doc(labels, fmap.image),
        "iterations": iterations,
    }
    want = []
    for comp in (mu.e1.real, mu.e2.real):
        for _ in range(iterations):
            comp = np.bincount(fmap.image, weights=comp, minlength=n)
        want.append(comp.astype(np.complex128))

    def check(text: str) -> bool:
        masses = json.loads(text)["measure"]
        return all(
            np.array_equal(_decode(masses, labels, c), w) for c, w in zip(("e1", "e2"), want)
        )

    return Job("pushforward", n, [Call(["pushforward"], json.dumps(doc), check)])


def find_invariant_job(rng, n: int, cycles: int | None = None) -> Job:
    space = gen.make_space(n)
    labels = space.atoms
    # Cycles of length <= 6 keep the period of the averaged orbit within the
    # default max_iter of 256, so the Cesaro limit converges and is checkable.
    # The output holds one dense measure per cycle; a fixed cycle count keeps
    # the output size, and so the cost, the same for every seed.
    if cycles is None:
        image = gen.gen_map_with_small_cycles(rng, space).image
    else:
        image = small_cycle_map(rng, n, cycles)
    found = count_cycles(image)
    doc = {"space": _space_doc(labels), "map": _map_doc(labels, image)}

    def check(text: str) -> bool:
        out = json.loads(text)
        return (
            out["limit_is_invariant"] is True
            and out["limit_in_hull"] is True
            and len(out["basis"]) == found
        )

    return Job("find_invariant", n, [Call(["find-invariant"], json.dumps(doc), check)])


_ROUND_TRIPS = {
    "function": (codec.parse_function, codec.function_to_obj),
    "map": (codec.parse_map, codec.map_to_obj),
    "interval-map-discretization": (codec.parse_map, codec.map_to_obj),
}


def gen_call(rng, n: int, kind: str, mode: str | None = None) -> Call:
    argv = ["gen", "--kind", kind, "--atoms", str(n), "--seed", str(int(rng.integers(0, 2**31)))]
    if kind not in ("map", "interval-map-discretization"):
        # Integer and dyadic values print shorter than floats, so the mode
        # sets the output size; bulk jobs fix it, small jobs draw it.
        argv += ["--mode", mode or ("float", "integer", "dyadic")[int(rng.integers(0, 3))]]
    parse, encode = _ROUND_TRIPS.get(kind, (codec.parse_measure, codec.measure_to_obj))

    def check(text: str) -> bool:
        return codec.dumps_canonical(encode(parse(json.loads(text)))) == text

    return Call(argv, "", check)


def gen_job(rng, n: int, *kinds: str, mode: str | None = None) -> Job:
    return Job("gen", n, [gen_call(rng, n, kind, mode) for kind in kinds])


# -------------------------------------------------------------- workloads


def cli_bulk(rng) -> list[Job]:
    n = BULK_ATOMS
    # One gen job makes the inputs of a bulk push-forward: a measure and a
    # map. It is short, so it runs before and after each long job, where it
    # samples the whole pass; its output is the same each time.
    generate = gen_job(rng, n, "t-measure", "map", mode="float")
    return [
        generate,
        integrate_job(rng, n),
        generate,
        pushforward_job(rng, n, iterations=8),
        generate,
        find_invariant_job(rng, n, cycles=3),
        generate,
    ]


def cli_small(rng) -> list[Job]:
    # Fixed counts per size, so only the values and the order vary with the
    # seed and the cost of a pass does not.
    jobs = []
    for n in SMALL_SIZES:
        for k in range(6):
            jobs.append(decompose_job(rng, n))
            jobs.append(integrate_job(rng, n, with_set=k % 2 == 1))
            jobs.append(dct_job(rng, n))
        for k in range(12):
            jobs.append(pushforward_job(rng, n))
            jobs.append(find_invariant_job(rng, n))
            jobs.append(gen_job(rng, n, GEN_KINDS[(n + k) % len(GEN_KINDS)]))
    for n in OVERSIZE_DECOMPOSE:
        for _ in range(2):
            jobs.append(decompose_job(rng, n))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def build(workload: str, seed: int) -> tuple[list[Job], list[Job]]:
    """The workload's job list and its probe jobs, both fixed by the seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "verify":
        return [], []
    if workload == "cli-small":
        return cli_small(rng), []
    # hahn refuses 10^4 atoms and a bulk DCT sequence would take minutes to
    # parse, so smaller probes stand in for these two subcommands.
    jobs = cli_bulk(rng)
    makers = {"decompose": decompose_job, "dct": dct_job}
    probes = [makers[kind](rng, n) for _ in jobs for kind, n in PROBE_SIZES]
    return jobs, probes


def stands_for(workload: str) -> dict[str, list[str]]:
    """Which job rows give the latency of a subcommand the job list lacks."""
    if workload == "verify":
        groups = dict(SUITES_OF_KIND, gen=tuple(VERIFY_SUITES))
        return {kind: [f"suite:{s}" for s in suites] for kind, suites in groups.items()}
    if workload == "cli-bulk":
        return {"decompose": ["probe:decompose"], "dct": ["probe:dct"]}
    return {}
