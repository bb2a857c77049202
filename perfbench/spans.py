"""Spans and counters around calls into the package, installed from outside.

Each listed function is replaced by a wrapper in every ``hypmeasure`` module
namespace that binds it (``cli`` and ``verify`` import many names directly),
and methods are replaced on their class. A wrapper records one span per call:
name, start, end and the enclosing span. Spans stay in memory, are written
out at the end, and the per-layer metrics are derived from them. The
iterators of ``spaces`` are counted, not timed, because a span per yielded
item would cost more than the work it measures.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

TIMED = {
    "cli": ["main"],
    "codec": [
        "parse_measure",
        "parse_function",
        "parse_map",
        "parse_mask",
        "measure_to_obj",
        "function_to_obj",
        "map_to_obj",
        "dumps_canonical",
    ],
    "measures": [
        "TMeasure.of",
        "TMeasure.total_variation",
        "TMeasure.from_atoms",
        "probability_variant",
        "variation_measure",
        "subset_sums",
        "dominates",
        "total_variation_bruteforce",
    ],
    "integration": [
        "integrate",
        "in_l1",
        "check_modulus_inequality",
        "dct_run",
        "TFunction.from_atoms",
    ],
    "decomposition": [
        "jordan",
        "hahn",
        "polar_density",
        "lebesgue_radon_nikodym",
        "check_lattice_properties",
        "epsilon_delta_witness",
    ],
    "dynamics": [
        "pushforward",
        "pushforward_iter",
        "cesaro_invariant",
        "invariant_basis_bruteforce",
        "is_invariant",
        "in_invariant_hull",
    ],
    "numbers": ["sup_d", "compare_d", "check_convergence", "check_series"],
}
COUNTED = ["SetMask.indices", "all_subsets", "set_partitions"]
ROOT = "bench"


class Tracer:
    """Span store plus the wrappers that feed it; off until ``on`` is set."""

    def __init__(self) -> None:
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self._busy_only: set[str] = set()

    def register(self, name: str, calls: bool = True) -> int:
        """The id of a span name; a registered name is reported even if never called.

        ``calls=False`` reports its busy time only, not its call count.
        """
        if not calls:
            self._busy_only.add(name)
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        i = self._open(self.register(name))
        try:
            yield
        finally:
            self._close(i)

    # ------------------------------------------------------------ wrappers

    def timed(self, fn, name: str, per_first_arg: bool = False):
        tracer = self
        nid = None if per_first_arg else self.register(name)
        by_arg: dict = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if per_first_arg:
                key = args[0]
                if key not in by_arg:
                    by_arg[key] = tracer.register(f"{name}.{key}", calls=False)
                i = tracer._open(by_arg[key])
            else:
                i = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        return wrapper

    def counted(self, fn, name: str):
        """Count calls and yielded items of a generator function.

        Calls made while an outer counted call is producing an item (the
        recursion of ``set_partitions``) are not counted again.
        """
        tracer = self
        depth = [0]
        for key in (f"{name}.calls", f"{name}.items"):
            self.counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            outer = tracer.on and depth[0] == 0
            n = 0
            try:
                while True:
                    depth[0] += 1
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        depth[0] -= 1
                    n += 1
                    yield item
            finally:
                if outer:
                    tracer.counts[f"{name}.calls"] += 1
                    tracer.counts[f"{name}.items"] += n

        return wrapper

    def install(self) -> None:
        """Wrap every listed function of every ``hypmeasure`` module."""
        plan = [(mod, name, "timed") for mod, names in TIMED.items() for name in names]
        plan += [("spaces", name, "counted") for name in COUNTED]
        plan.append(("verify", "run_suite", "suite"))
        generators = importlib.import_module("hypmeasure.generators")
        plan += [("generators", name, "timed") for name in generators.__all__]
        for mod_name, qual, how in plan:
            module = importlib.import_module(f"hypmeasure.{mod_name}")
            metric = f"{mod_name}.{qual}"
            if how == "counted":
                make = lambda fn: self.counted(fn, metric)
            else:
                make = lambda fn: self.timed(fn, metric, per_first_arg=how == "suite")
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(make(raw.__func__)))
                else:
                    setattr(cls, attr, make(raw))
                continue
            original = getattr(module, qual)
            wrapped = make(original)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").split(".")[0] != "hypmeasure":
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)

    # ------------------------------------------------------------- results

    def root_ms(self) -> float:
        """Duration of the first span, the one the benchmark opened."""
        return (self.end[0] - self.start[0]) / 1e6

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls and busy time, per-module self time, counters.

        A span's self time is its duration minus that of its child spans;
        calls run on one thread, so children never overlap.
        """
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        busy = np.bincount(a["name_id"], weights=dur, minlength=k)
        own_by_name = np.bincount(a["name_id"], weights=own, minlength=k)
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            module = name.split(".")[0]
            key = f"{module}.self_ms"
            out[key] = out.get(key, 0.0) + own_by_name[nid] / 1e6
            if module == "generators":
                out["generators.calls"] = out.get("generators.calls", 0) + int(calls[nid])
            elif name != ROOT:
                if name not in self._busy_only:
                    out[f"{name}.calls"] = int(calls[nid])
                out[f"{name}.busy_ms"] = busy[nid] / 1e6
        out.update(self.counts)
        return out
