#!/usr/bin/env python3
"""Benchmark of the cluster_painleve package: three workloads, end to end
and per layer.

    python3 perfbench/run.py --workload symbolic|orbit|survey \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
Load model: closed loop, one client, one process per workload.  A pass runs
the workload's fixed job list once, one job after another; passes repeat
until ``--seconds`` have gone by (at least three passes).  On a shared
machine other tenants slow whole stretches of a run by 30-90 %, so every
time reported with ``--trace 0`` is in reference seconds (``hostspeed.py``):
wall time less the sampling kernel's own time, scaled by the host's speed
sampled during the job.  Every job result is checked against an independent reference
(``oracles.py``) and every job runs under a time budget, so a hang counts
as a failed job instead of stalling the run.

``--trace 0`` reports the end-to-end metrics, with no tracing:
  wall_s       time to finish the job list: the sum over its jobs of each
               job's median time over the passes
  job_p50_s    median job time over every job run of the run (the job
               list times the passes: about 28, 105 and 726 job runs on
               symbolic, orbit and survey)
  job_p90_s    90th-percentile job time over the same job runs
  peak_rss_mb  ru_maxrss of this process
  setup_s      median over 7 fresh processes of the time from process
               start to the first job being ready (imports including
               mpmath, preset fixtures, input generation), each scaled by
               the host's speed sampled just before and after it
  ok_frac      jobs that finished in budget with a correct result, over
               jobs attempted (``failed``/``attempted`` carry the counts)

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.LAYER_METRICS`` from the fastest traced pass
(its job list plus two pseudo-jobs: ``setup``, the input generation, and
``tour``, one small call into every layer; see ``workloads.tour``),
its time ``trace.wall_s`` and the tracing overhead ``trace.overhead_s``
(fastest traced pass minus fastest untraced pass).  These are wall seconds:
the host-speed sampler stays off in a traced run, so that its kernel adds
to no layer's time.  Counts must repeat exactly in every traced pass.  The
spans of the first traced pass go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("symbolic", "orbit", "survey")
# Per-job time budgets: several times the slowest job of each workload.
BUDGET_S = {"symbolic": 40.0, "orbit": 15.0, "survey": 10.0}
# The host-speed kernel that slows like each workload (see hostspeed.py):
# symbolic and survey work on dicts of small polynomials, orbit on big Fractions.
SPEED_KERNEL = {"symbolic": "poly", "orbit": "bigint", "survey": "poly"}
MIN_PASSES = 3
DEADLINE_S = 140.0  # no job starts later than this into the measurement
SETUP_PROBES = 7
SETUP_SAMPLES = 5  # host-speed samples on each side of a setup probe
PROBE_TIMEOUT_S = 60.0

END_TO_END_UNITS = {"wall_s": "s", "job_p50_s": "s", "job_p90_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s", "ok_frac": "ratio"}


class JobTimeout(BaseException):
    """Raised by the budget alarm; a BaseException so that library code
    catching Exception cannot swallow it."""


class Budget:
    """Per-job wall-clock budget on SIGALRM (ITIMER_REAL)."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise JobTimeout

    def run(self, fn, speed: HostSpeed | None = None):
        """Return (result, seconds, error message or None); the seconds are
        reference seconds when ``speed`` samples the host."""
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        start = speed.mark() if speed else 0
        t0 = time.perf_counter()
        try:
            out, err = fn(), None
        except JobTimeout:
            out, err = None, f"exceeded its {self.seconds:g} s budget"
        except Exception as exc:  # a failing job is a result, not a crash
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            dt = time.perf_counter() - t0
            end = speed.mark() if speed else 0
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        return out, speed.normalise(dt, start, end) if speed else dt, err


class Pass:
    """Job times and failures of one run of the job list."""

    def __init__(self):
        self.times: list[float] = []
        self.failures: list[tuple[str, str]] = []
        self.complete = False

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(jobs, budget: Budget, deadline: float, tracer=None, speed=None) -> Pass:
    p = Pass()
    for job in jobs:
        if time.perf_counter() > deadline:
            return p
        fn = job.run if tracer is None else (lambda job=job: tracer.run_job(job.label, job.run))
        gc.collect()  # so that no job pays for collecting its predecessor's garbage
        out, dt, err = budget.run(fn, speed)
        if err is None:
            try:
                err = job.check(out)
            except Exception as exc:  # a result the check cannot read is wrong
                err = f"check raised {type(exc).__name__}: {exc}"
        del out
        p.times.append(dt)
        if err:
            p.failures.append((job.label, err))
    p.complete = True
    return p


def measure_setup(workload: str, seed: int, speed: HostSpeed) -> list[float]:
    """Reference seconds from spawning a fresh interpreter to its first job
    being ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        first = speed.mark()
        for _ in range(SETUP_SAMPLES):
            speed.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
            try:
                ready = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]
                line = proc.stdout.readline() if ready else ""
                dt = time.perf_counter() - t0
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        for _ in range(SETUP_SAMPLES):
            speed.sample()
        times.append(speed.scale(dt, speed.samples[first:]))
    return times


def median_times(passes: list[Pass]) -> list[float]:
    """Each job's median time over the passes that reached it."""
    longest = max(len(p.times) for p in passes)
    return [statistics.median(p.times[j] for p in passes if len(p.times) > j)
            for j in range(longest)]


def measure(jobs, budget, seconds, workload, seed) -> tuple[dict, list[Pass]]:
    speed = HostSpeed(SPEED_KERNEL[workload])
    setup = measure_setup(workload, seed, speed)
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    passes: list[Pass] = []
    speed.start()
    try:
        while True:
            passes.append(run_pass(jobs, budget, deadline, speed=speed))
            elapsed = time.perf_counter() - start
            if not passes[-1].complete or (elapsed >= seconds and len(passes) >= MIN_PASSES):
                break
    finally:
        speed.stop()
    job_runs = [t for p in passes for t in p.times]
    attempted = len(job_runs)
    failed = sum(len(p.failures) for p in passes)
    metrics = {
        "wall_s": sum(median_times(passes)),
        "job_p50_s": statistics.median(job_runs),
        "job_p90_s": statistics.quantiles(job_runs, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
        "ok_frac": (attempted - failed) / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, passes


def measure_traced(build, tour, budget, seconds, workload, seed):
    """Alternate untraced and traced passes; per-layer metrics from the traced."""
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        deadline = start + DEADLINE_S
        plain: list[Pass] = []
        traced: list[Pass] = []
        layers: list[dict] = []
        while True:
            if len(plain) <= len(traced):
                plain.append(run_pass(build(workload, seed), budget, deadline))
                last = plain[-1]
            else:
                tracer.reset()
                jobs = tracer.run_job("setup", lambda: build(workload, seed))
                tracer.run_job("tour", tour)
                traced.append(run_pass(jobs, budget, deadline, tracer))
                last = traced[-1]
                layers.append(tracer.layer_metrics())
                if len(traced) == 1:
                    OUT.mkdir(exist_ok=True)
                    tracer.dump(OUT / f"spans-{workload}-seed{seed}.jsonl")
            elapsed = time.perf_counter() - start
            if not last.complete:
                break
            if elapsed >= seconds and plain and traced:
                break
    finally:
        tracer.uninstall()
    counted = [k for k, unit in tracing.LAYER_METRICS.items() if unit in tracing.COUNT_UNITS]
    counts_repeat = all(m[k] == layers[0][k] for m in layers for k in counted)
    done = [i for i, p in enumerate(traced) if p.complete] or [0]
    fastest = min(done, key=lambda i: traced[i].wall)
    metrics = {name: {"value": layers[fastest][name], "unit": unit}
               for name, unit in tracing.LAYER_METRICS.items()}
    untraced_wall = min((p.wall for p in plain if p.complete), default=plain[0].wall)
    metrics["trace.wall_s"] = {"value": traced[fastest].wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced[fastest].wall - untraced_wall, "unit": "s"}
    return metrics, plain + traced, counts_repeat


def _report(args, metrics, passes, extra_failures=()) -> int:
    attempted = sum(len(p.times) for p in passes)
    failures = [f for p in passes for f in p.failures] + list(extra_failures)
    for label, why in failures[:20]:
        print(f"perfbench: job {label} failed: {why}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {attempted} jobs, {len(failures)} failed; pass times "
          + " ".join(f"{p.wall:.3f}" for p in passes))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "cluster_painleve" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'cluster_painleve'} not found; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.probe_setup:
        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    budget = Budget(BUDGET_S[args.workload])
    if args.trace:
        metrics, passes, counts_repeat = measure_traced(
            workloads.build, workloads.tour, budget, args.seconds, args.workload, args.seed)
        extra = [] if counts_repeat else [("trace", "count metrics differ between traced passes")]
        return _report(args, metrics, passes, extra)
    jobs = workloads.build(args.workload, args.seed)
    metrics, passes = measure(jobs, budget, args.seconds, args.workload, args.seed)
    return _report(args, metrics, passes)


if __name__ == "__main__":
    sys.exit(main())
