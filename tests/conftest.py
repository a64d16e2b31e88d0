"""Fixtures shared by the test modules."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def bench_workloads():
    """`perfbench/workloads.py`, loaded without writing bytecode next to it."""
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


@pytest.fixture
def default_int_digits():
    """Run under the interpreter's default int/str digit limit of 4,300.

    Yields False on an interpreter without the limit (before 3.11).
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield False
        return
    limit, set_limit = sys.get_int_max_str_digits(), sys.set_int_max_str_digits
    set_limit(4300)
    try:
        yield True
    finally:
        set_limit(limit)  # the one read at setup, should a test patch it
