"""The benchmark's own orbit oracles on the lowest-terms orbit engines.

The orbit jobs of `perfbench/workloads.py` that run the U-, q-P_I and
Y-engines and the seed mutation chain (each value a product of shared
pieces, `coprime.Pieces`), and one somos6 integer T-orbit (values over a
coprime base, `coprime.coprime_base`), run at seeds 0 and 1; one somos4
integer T-orbit and one geometric-coefficient T-orbit at seed 0.  Each
result must pass the job's own check against `perfbench/oracles.py`.  The
benchmark files are only read.
"""

import fnmatch

ENGINES = ("*-u*", "qp1-*", "*-y*", "*-chain*", "somos6-t80")


def _failures(workloads, seed, patterns, count):
    jobs = [job for job in workloads.build("orbit", seed)
            if any(fnmatch.fnmatch(job.label, p) for p in patterns)]
    assert len(jobs) == count
    failures = {job.label: job.check(job.run()) for job in jobs}
    return {k: v for k, v in failures.items() if v is not None}


def test_orbit_engine_jobs_pass_their_oracles(bench_workloads):
    patterns = ENGINES + ("somos4-t65", "somos4-geo34")
    assert _failures(bench_workloads, 0, patterns, 13) == {}


def test_orbit_engine_jobs_pass_their_oracles_at_seed_1(bench_workloads):
    assert _failures(bench_workloads, 1, ENGINES, 11) == {}
