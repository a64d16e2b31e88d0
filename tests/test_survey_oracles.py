"""The benchmark's own survey oracles on the analysis and reduction fast paths.

`perfbench/workloads.py` checks every job against references of its own
(`perfbench/oracles.py`).  Here its survey jobs that run the entropy
detector, the relation scans and the U-system derivation run once each, at
seed 0, and each result must pass its check.  The benchmark files are only
read: no bytecode is written next to them.
"""

import fnmatch
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
PATTERNS = ("*-entropy*", "*-scan*", "*-derive*")


def _load_workloads():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))  # workloads.py imports oracles by name
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      BENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # its dataclasses look their module up
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved
    return workloads


def test_survey_entropy_scan_and_derive_jobs_pass_their_oracles():
    jobs = [job for job in _load_workloads().build("survey", 0)
            if any(fnmatch.fnmatch(job.label, p) for p in PATTERNS)]
    assert len(jobs) > 150
    failures = {job.label: job.check(job.run()) for job in jobs}
    assert {k: v for k, v in failures.items() if v is not None} == {}
