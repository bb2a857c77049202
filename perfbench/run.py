"""The hypmeasure benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 32 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics of a traced pass, each as a line
``name value unit``, then the run's machine, job and byte counts, and as the
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Every job's output is checked by the benchmark's own code.
The measured work runs in fresh worker processes (``worker.py``); see
README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("cli-bulk", "cli-small", "verify")
SUBCOMMAND_METRICS = {
    "decompose": "decompose_ms",
    "integrate": "integrate_ms",
    "dct": "dct_ms",
    "pushforward": "pushforward_ms",
    "find_invariant": "find_invariant_ms",
    "gen": "gen_ms",
}
# Fresh processes that only import and set up, besides the worker's own
# setup; setup_s is the median of them all.
SETUP_REPEATS = 4
WORKER_TIMEOUT_S = 150


def worker(args, out: Path, *extra: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out), *extra]
    subprocess.run(cmd, check=True, env=env, timeout=WORKER_TIMEOUT_S)
    return json.loads(out.read_text(encoding="utf-8"))


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; failed jobs enter as +inf and rank last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def passes(rows: list) -> list[list]:
    """The job rows of each pass, in the order they ran."""
    by_pass: dict[int, list] = {}
    for row in rows:
        by_pass.setdefault(row[4], []).append(row)
    return list(by_pass.values())


def ms(row: list) -> float:
    """A job's latency in ms; a failed job reads +inf and ranks last."""
    return row[1] * 1e3 if row[3] else math.inf


def per_case_ms(rows: list, suites: list[str]) -> float:
    """Time per case over a group of verify suites."""
    chosen = [row for row in rows if row[0] in suites]
    if not all(row[3] for row in chosen):
        return math.inf
    return sum(row[1] for row in chosen) * 1e3 / sum(row[5] for row in chosen)


def end_to_end(record: dict, setups: list[float]) -> tuple[dict, dict]:
    """Each timing but ``setup_s`` is one value per pass; the run reports their mean.

    The machine's speed changes in spells of seconds to minutes. A mean over
    the two to seven passes of a run follows the share of the run spent in
    slow spells smoothly, where a median of so few values jumps between them.
    """
    rows = record["jobs"]
    verify = record["workload"] == "verify"
    runs = passes(rows)
    if verify:
        # A verify job is the whole run_verify call, the way a user makes
        # it; its suites are the operations attempted and failed count.
        p90s = [w * 1e3 if all(r[3] for r in rs) else math.inf for w, rs in zip(record["walls"], runs)]
        jobs = len(runs)
    else:
        own = [[r for r in rs if not r[0].startswith("probe:")] for rs in runs]
        p90s = [quantile([ms(r) for r in rs], 0.9) for rs in own]
        jobs = sum(map(len, own))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.fmean(record["walls"]), "s"),
        "job_ms_p90": (statistics.fmean(p90s), "ms"),
    }
    samples = {"setup_s": len(setups), "wall_s": len(record["walls"]), "job_ms_p90": jobs}
    for kind, name in SUBCOMMAND_METRICS.items():
        kinds = record["stands_for"].get(kind, [kind])
        if verify:
            values = [per_case_ms(rs, kinds) for rs in runs]
            samples[name] = sum(r[5] for r in rows if r[0] in kinds)
        else:
            values = [statistics.median([ms(r) for r in rs if r[0] in kinds]) for rs in runs]
            samples[name] = sum(1 for r in rows if r[0] in kinds)
        metrics[name] = (statistics.fmean(values), "ms")
    metrics["peak_rss_mb"] = (record["peak_rss_mb"], "MB")
    return metrics, samples


def layer_metrics(record: dict, spec: list[dict]) -> dict:
    layers = record["layers"]
    rows = record["jobs"]
    layers["fail_ratio"] = sum(1 for r in rows if not r[3]) / len(rows)
    unknown = sorted(set(layers) - {m["name"] for m in spec})
    if unknown:
        raise SystemExit(f"layer metrics missing from BENCHMARK.json: {unknown}")
    return {m["name"]: (layers.get(m["name"], 0), m["unit"]) for m in spec}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "hypmeasure" / "__init__.py").is_file():
        print(f"no hypmeasure sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        record = worker(args, stem.with_suffix(".json"))
        setups = [record["setup_s"]]
        if not args.trace:
            for i in range(SETUP_REPEATS):
                again = worker(args, stem.with_name(f"{stem.name}-setup{i}.json"), "--setup-only")
                setups.append(again["setup_s"])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 1

    rows = record["jobs"]
    failed = sum(1 for r in rows if not r[3])
    # A job that ran to exit 0 and failed its check gave a wrong answer.
    correct = not any(r[2] == 0 and not r[3] for r in rows)
    if args.trace:
        metrics, samples = layer_metrics(record, spec["per_layer"]), {}
    else:
        metrics, samples = end_to_end(record, setups)

    for name, (value, unit) in metrics.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:48s} {value:14.6f} {unit}{n}")
    kinds: dict[str, int] = {}
    for r in rows:
        kinds[r[0]] = kinds.get(r[0], 0) + 1
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": record["machine"],
        "passes": len(record["walls"]),
        "jobs_per_subcommand": kinds,
        "stands_for": record["stands_for"],
        "bytes_per_pass": record["bytes"],
        "errors": record["errors"],
    }
    if args.trace:
        # Self times partition the root span, so this ratio should be 1.
        self_ms = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_ms"))
        info["self_ms_sum_over_trace_wall"] = self_ms / metrics["trace.wall_ms"][0]
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem.with_suffix(".result.json").write_text(
        json.dumps({"info": info, "result": result, "setups": setups, "walls": record["walls"]}),
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
