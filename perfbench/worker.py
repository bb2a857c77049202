"""One measured process: set up a workload, run its passes, check every output.

Started by ``run.py`` in a fresh interpreter per run, so that ``setup_s``
includes the package import and ``peak_rss_mb`` is this run's own peak.
Writes one JSON record to the path given by ``--out``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hypmeasure  # noqa: E402
import hypmeasure.cli  # noqa: E402
import hypmeasure.verify  # noqa: E402
import numpy  # noqa: E402

import workloads  # noqa: E402
from spans import ROOT as ROOT_SPAN, Tracer  # noqa: E402


class Outcome:
    """What one job did: latency, exit status, outputs, verdict."""

    __slots__ = ("kind", "seconds", "code", "error", "texts", "ok", "npass", "cases")

    def __init__(self, kind, seconds, code, error, texts, cases=1):
        self.kind = kind
        self.seconds = seconds
        self.code = code
        self.error = error
        self.texts = texts
        self.ok = None
        self.npass = None
        self.cases = cases  # verify cases a suite ran

    def row(self) -> list:
        return [self.kind, self.seconds, self.code, self.ok, self.npass, self.cases]


def run_cli_job(job) -> Outcome:
    seconds, code, error, texts = 0.0, 0, None, []
    for call in job.calls:
        stdin, stdout, stderr = io.StringIO(call.stdin), io.StringIO(), io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = stdin, stdout, stderr
        start = time.perf_counter()
        try:
            code = hypmeasure.cli.main(call.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an escape from cli.main is a failed job, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            seconds += time.perf_counter() - start
            sys.stdin, sys.stdout, sys.stderr = saved
        texts.append(stdout.getvalue())
        if code != 0:
            break
    return Outcome(job.kind, seconds, code, error, texts)


def run_verify_job(seed: int) -> list[Outcome]:
    """The default verify run; each suite is one job."""
    report = hypmeasure.verify.run_verify(seed, workloads.VERIFY_CASES, "*")
    cases = {s.name: s.cases for s in report.suites}
    whole_ok = report.all_passed and cases == workloads.VERIFY_SUITES
    outs = []
    for suite in report.suites:
        o = Outcome(f"suite:{suite.name}", suite.seconds, 0, None, [], suite.cases)
        o.ok = whole_ok and suite.passed
        if not suite.passed:
            o.error = json.dumps(suite.first_counterexample)
        elif not whole_ok:
            o.error = f"verify: suite cases {cases} or all_passed {report.all_passed}"
        outs.append(o)
    return outs


class Run:
    """The passes of one workload and the outcome of every job in them."""

    def __init__(self, workload: str, seed: int, jobs, probes) -> None:
        self.workload = workload
        self.seed = seed
        self.jobs = jobs
        self.probes = probes
        self.verdicts: dict = {}
        self.walls: list[float] = []
        self.outcomes: list[Outcome] = []
        self.bytes: dict[str, dict[str, int]] = {}

    def one_pass(self, jobs=None, probes=()) -> tuple[float, list]:
        """Run the job list once; outputs are checked later by ``settle``.

        The wall time is that of the jobs. Probes run between them, outside
        it, so that they sample the whole pass and not one moment of it.
        Returns the wall time and a (job, outcome) pair per job run; a verify
        suite has no job of its own and pairs with None.
        """
        gc.collect()
        jobs = self.jobs if jobs is None else jobs
        if self.workload == "verify":
            start = time.perf_counter()
            outs = run_verify_job(self.seed)
            return time.perf_counter() - start, [(None, o) for o in outs]
        outs = []
        per_job = -(-len(probes) // max(1, len(jobs)))
        for i, job in enumerate(jobs):
            outs.append((job, run_cli_job(job)))
            for _ in range(workloads.PROBE_ROUNDS):
                for probe in probes[i * per_job : (i + 1) * per_job]:
                    outs.append((probe, self.run_probe(probe)))
        own = [o for _, o in outs if not o.kind.startswith("probe:")]
        return sum(o.seconds for o in own), outs

    def run_probe(self, job) -> Outcome:
        o = run_cli_job(job)
        o.kind = f"probe:{o.kind}"
        return o

    def settle(self, wall: float, outs: list) -> None:
        """Check and record the (job, outcome) pairs of one pass."""
        for job, o in outs:
            if job is not None:
                self.check(job, o)
        if not self.bytes:
            for job, o in outs:
                if job is not None and not o.kind.startswith("probe:"):
                    b = self.bytes.setdefault(job.kind, {"jobs": 0, "in": 0, "out": 0})
                    b["jobs"] += 1
                    b["in"] += sum(len(call.stdin) for call in job.calls)
                    b["out"] += sum(len(text) for text in o.texts)
        for _, o in outs:
            o.texts = []
            o.npass = len(self.walls)
            self.outcomes.append(o)
        self.walls.append(wall)

    def check(self, job, o: Outcome) -> None:
        # The CLI promises byte-identical output for identical input, so a
        # repeat of an already checked output keeps its verdict.
        if o.code != 0:
            o.ok = False
            return
        seen = self.verdicts.get(id(job))
        if seen is not None and seen[0] == o.texts:
            o.ok = seen[1]
            return
        try:
            o.ok = all(call.check(text) for call, text in zip(job.calls, o.texts))
        except (KeyError, TypeError, ValueError) as exc:
            o.ok, o.error = False, f"check: {type(exc).__name__}: {exc}"
        if not o.ok and o.error is None:
            o.error = f"{job.kind} output check failed ({job.atoms} atoms)"
        self.verdicts[id(job)] = (o.texts, o.ok)


def timed_run(run: Run, seconds: float) -> None:
    """Passes until one more would end further from the measuring time.

    The measuring time counts the probes, not the output checks.
    """
    measured = 0.0
    while True:
        start = time.perf_counter()
        wall, outs = run.one_pass(probes=run.probes)
        measured += time.perf_counter() - start
        run.settle(wall, outs)
        if measured + measured / len(run.walls) / 2 > seconds:
            return


def traced_run(run: Run, build_s: float, spans_path: Path) -> dict:
    """One untraced pass, then setup and one pass again with spans on."""
    start = time.perf_counter()
    wall, outs = run.one_pass()
    untraced_ms = (build_s + time.perf_counter() - start) * 1e3
    run.settle(wall, outs)

    tracer = Tracer()
    tracer.install()
    for suite in workloads.VERIFY_SUITES:
        tracer.register(f"verify.run_suite.{suite}", calls=False)
    gc.collect()
    tracer.on = True
    with tracer.span(ROOT_SPAN):
        jobs, _ = workloads.build(run.workload, run.seed)
        wall, outs = run.one_pass(jobs)
    tracer.on = False
    run.settle(wall, outs)
    tracer.save(spans_path)

    layers = tracer.layer_metrics()
    layers["trace.wall_ms"] = tracer.root_ms()
    layers["trace.overhead_ratio"] = layers["trace.wall_ms"] / untraced_ms
    return layers


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    if not Path(hypmeasure.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"hypmeasure imported from {hypmeasure.__file__}, not {ROOT / 'src'}")
    build_start = time.perf_counter()
    jobs, probes = workloads.build(args.workload, args.seed)
    now = time.perf_counter()
    record = {"setup_s": now - T0, "build_s": now - build_start}
    if not args.setup_only:
        run = Run(args.workload, args.seed, jobs, probes)
        if args.trace:
            spans = Path(args.out).with_suffix(".spans.npz")
            record["layers"] = traced_run(run, now - build_start, spans)
            record["spans"] = str(spans)
        else:
            timed_run(run, args.seconds)
        record.update(
            machine=machine(),
            walls=run.walls,
            bytes=run.bytes,
            jobs=[o.row() for o in run.outcomes],
            workload=args.workload,
            stands_for=workloads.stands_for(args.workload),
            errors=sorted({o.error for o in run.outcomes if o.error})[:20],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
