"""The benchmark's own orbit oracles on the lowest-terms orbit engines.

The orbit jobs of `perfbench/workloads.py` that run the U-, q-P_I and
Y-engines (each value a product of shared pieces, `coprime.Pieces`) run at
seeds 0 and 1, and one certified integer T-orbit and one
geometric-coefficient T-orbit (where the certificate mostly fails) at seed
0.  Each result must pass the job's own check against
`perfbench/oracles.py`.  The benchmark files are only read.
"""

import fnmatch

ENGINES = ("*-u*", "qp1-*", "*-y*")


def _failures(workloads, seed, patterns, count):
    jobs = [job for job in workloads.build("orbit", seed)
            if any(fnmatch.fnmatch(job.label, p) for p in patterns)]
    assert len(jobs) == count
    failures = {job.label: job.check(job.run()) for job in jobs}
    return {k: v for k, v in failures.items() if v is not None}


def test_orbit_engine_jobs_pass_their_oracles(bench_workloads):
    patterns = ENGINES + ("somos4-t65", "somos4-geo34")
    assert _failures(bench_workloads, 0, patterns, 10) == {}


def test_orbit_engine_jobs_pass_their_oracles_at_seed_1(bench_workloads):
    assert _failures(bench_workloads, 1, ENGINES, 8) == {}
