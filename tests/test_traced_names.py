"""The benchmark's span tracer wraps package functions by name; every name it
lists must still exist, so deleting a traced function fails here first."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    missing = []
    for module, path, *_ in tracer.TARGETS:
        obj = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{module}.{path}")
    assert len(tracer.TARGETS) > 50 and missing == []


def test_tracer_installs_and_restores():
    # install() reads a traced method from its own class's __dict__, so a
    # method moved to a base class fails here, not in the benchmark
    tracer = _load_tracer()
    for module, *_ in tracer.TARGETS:
        importlib.import_module(f"{tracer.PACKAGE}.{module}")
    owners = [mod for name, mod in sys.modules.items()
              if name == tracer.PACKAGE or name.startswith(tracer.PACKAGE + ".")]
    owners += [getattr(sys.modules[f"{tracer.PACKAGE}.{module}"], path.split(".")[0])
               for module, path, *_ in tracer.TARGETS if "." in path]
    before = [dict(vars(o)) for o in owners]
    tr = tracer.Tracer()
    tr.install()
    try:
        assert len(tr._undo) >= len(tracer.TARGETS)
        assert [dict(vars(o)) for o in owners] != before
    finally:
        tr.uninstall()
    assert [dict(vars(o)) for o in owners] == before
