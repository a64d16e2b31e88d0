#!/usr/bin/env python3
"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--seed N] [--workload NAME ...]

1. Exact counts: two traced runs with the same seed must give identical
   values for every count metric (units count, bits, bytes).  With the
   default seed 0 they must also equal the counts stored in
   ``perfbench/baseline.json``; on a mismatch the new counts are printed as
   JSON.  A change that moves a count has changed results, not speed.
2. Job budget: a job that does not finish in its budget counts as failed
   and the next job still runs, with the host-speed sampler running.  The hanging job is the 7-step symbolic
   orbit of nonintegrable6, which runs for minutes.

Exit status 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced_counts(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"traced run of {workload} failed: {out.stderr.strip()}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"traced run of {workload} reported wrong results")
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in ("count", "bits", "bytes")}


def check_counts(workloads, seed: int) -> bool:
    stored = json.loads((HERE / "baseline.json").read_text())["counts"]
    ok = True
    for w in workloads:
        first, second = traced_counts(w, seed), traced_counts(w, seed)
        if first != second:
            diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
            print(f"FAIL {w}: counts differ between two runs with seed {seed}: {diff}")
            ok = False
            continue
        if seed == 0 and first != stored.get(w):
            print(f"FAIL {w}: counts differ from baseline.json; new counts:")
            print(json.dumps(first, indent=1, sort_keys=True))
            ok = False
            continue
        print(f"ok   {w}: {len(first)} counts repeat exactly"
              + (" and match baseline.json" if seed == 0 else ""))
    return ok


def check_budget() -> bool:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import run
    import workloads
    from hostspeed import HostSpeed
    from cluster_painleve import presets, tsystem

    a = presets.get_preset("nonintegrable6").a
    hang = workloads.Job(
        "nonint6-t7", lambda: tsystem.iterate_t(tsystem.TStencil(a), None, 7, mode="symbolic"),
        lambda out: None)
    quick = workloads.Job("nonint6-t3", lambda: tsystem.iterate_t(tsystem.TStencil(a), None, 3,
                                                                   mode="symbolic"),
                          lambda out: None)
    speed = HostSpeed("poly")  # sampling on SIGPROF while the budget alarm is armed
    speed.start()
    t0 = time.perf_counter()
    try:
        p = run.run_pass([hang, quick], run.Budget(1.0), t0 + 60, speed=speed)
    finally:
        speed.stop()
    dt = time.perf_counter() - t0
    ok = (p.complete and len(p.times) == 2 and [f[0] for f in p.failures] == ["nonint6-t7"]
          and "budget" in p.failures[0][1] and dt < 10)
    print(("ok  " if ok else "FAIL") + f" budget: hanging job cut, both jobs done in {dt:.2f} s, "
          f"{len(p.failures)} failure(s)")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", action="append", choices=("symbolic", "orbit", "survey"))
    args = ap.parse_args()
    ok = check_budget()
    ok &= check_counts(args.workload or ("symbolic", "orbit", "survey"), args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
