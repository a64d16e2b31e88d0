"""The benchmark's own orbit oracles on the lowest-terms orbit engines.

The orbit jobs of `perfbench/workloads.py` that run the U-, q-P_I and
Y-engines (each value one `coprime.cancel`), one certified integer T-orbit
and one geometric-coefficient T-orbit (where the certificate mostly fails)
run once each at seed 0, and each result must pass the job's own check
against `perfbench/oracles.py`.  The benchmark files are only read.
"""

import fnmatch

PATTERNS = ("*-u*", "qp1-*", "*-y*", "somos4-t65", "somos4-geo34")


def test_orbit_engine_jobs_pass_their_oracles(bench_workloads):
    jobs = [job for job in bench_workloads.build("orbit", 0)
            if any(fnmatch.fnmatch(job.label, p) for p in PATTERNS)]
    assert len(jobs) == 10
    failures = {job.label: job.check(job.run()) for job in jobs}
    assert {k: v for k, v in failures.items() if v is not None} == {}
