"""The benchmark's own survey oracles on the analysis and reduction fast paths.

`perfbench/workloads.py` checks every job against references of its own
(`perfbench/oracles.py`).  Here its survey jobs that run the entropy
detector, the relation scans and the U-system derivation run once each, at
seed 0, and each result must pass its check.  The benchmark files are only
read: no bytecode is written next to them.
"""

import fnmatch

PATTERNS = ("*-entropy*", "*-scan*", "*-derive*")


def test_survey_entropy_scan_and_derive_jobs_pass_their_oracles(bench_workloads):
    jobs = [job for job in bench_workloads.build("survey", 0)
            if any(fnmatch.fnmatch(job.label, p) for p in PATTERNS)]
    assert len(jobs) > 150
    failures = {job.label: job.check(job.run()) for job in jobs}
    assert {k: v for k, v in failures.items() if v is not None} == {}
