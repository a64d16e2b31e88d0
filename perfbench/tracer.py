"""Span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the ``cluster_painleve``
modules from outside the package: nothing under ``src/`` knows about it.
Each wrapped call records a span (id, parent span, job id, layer name,
operation, start, end).  A job is a root span named ``job``; every layer
span opened while the job runs hangs below it.  Outside a job the wrappers
call straight through, so the benchmark's own correctness checks are not
traced.

A layer's self time is its span time minus the time of its direct child
spans.  A layer's ``calls`` counts the outermost entries into that layer, so
a layer function that calls another function of the same layer counts once.

Wrapping a module function only changes the module attribute, so every other
module that imported the same function object (``tsystem.laurent_try_div``,
``acceptance.laurent_try_div``, the re-exports in ``cluster_painleve``) is
rebound as well; otherwise those calls would bypass the wrapper.  Class
attributes (``LaurentPoly.__mul__``) are wrapped on the class itself.
``uninstall`` restores every original object.
"""

from __future__ import annotations

import functools
import io
import json
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "cluster_painleve"


def _coef_bits(poly) -> int:
    return max((abs(c).bit_length() for c in poly.terms.values()), default=0)


def _fraction_bits(values) -> int:
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for v in values), default=0)


# -- counters recorded after a wrapped call returns --------------------------
# Each hook gets (tracer, args, kwargs, result, pre-state).


def _after_mul(tr, args, kwargs, out, _):
    a, b = args[0], args[1]
    tr.add("laurent.mul.term_pairs", len(a.terms) * len(b.terms))
    tr.add("laurent.mul.terms_out", len(out.terms))
    tr.peak("laurent.coef_bits_max", _coef_bits(out))


def _after_div(tr, args, kwargs, out, _):
    if out is None:
        tr.add("laurent.div.none", 1)
        return
    tr.add("laurent.div.terms_out", len(out.terms))
    tr.peak("laurent.coef_bits_max", _coef_bits(out))


def _tz_mode(args, kwargs) -> str:
    return kwargs.get("mode", args[4] if len(args) > 4 else "rational")


def _name_tz(args, kwargs) -> str:
    return "tsystem." + _tz_mode(args, kwargs)


def _after_tz(tr, args, kwargs, out, _):
    mode = _tz_mode(args, kwargs)
    steps = kwargs.get("steps", args[3] if len(args) > 3 else 0)
    tr.add(f"tsystem.{mode}.steps", steps)
    if mode == "rational":
        tr.peak("tsystem.rational.bits_max", _fraction_bits(out.values))


def _after_y(tr, args, kwargs, out, _):
    tr.peak("ysystem.bits_max", _fraction_bits(out))


def _after_relation(tr, args, kwargs, out, _):
    tr.add("analysis.relation.found", out.status == "found")


def _after_entropy(tr, args, kwargs, out, _):
    d = args[0]
    tr.peak("analysis.entropy.len_max", len(getattr(d, "values", d)))


def _before_cli(args, kwargs):
    try:
        return sys.stdout.tell()
    except (AttributeError, OSError, io.UnsupportedOperation):
        return None


def _after_cli(tr, args, kwargs, out, start):
    if start is not None and hasattr(sys.stdout, "getvalue"):
        tr.add("cli.bytes_out", len(sys.stdout.getvalue()[start:].encode("utf-8")))


# (module, attribute path, layer name or naming function, post hook, pre hook)
TARGETS = [
    ("laurent", "LaurentPoly.__mul__", "laurent.mul", _after_mul, None),
    ("laurent", "laurent_try_div", "laurent.div", _after_div, None),
    ("laurent", "LaurentPoly.__add__", "laurent.small", None, None),
    ("laurent", "LaurentPoly.__sub__", "laurent.small", None, None),
    ("laurent", "LaurentPoly.__neg__", "laurent.small", None, None),
    ("laurent", "LaurentPoly.__pow__", "laurent.small", None, None),
    ("laurent", "LaurentPoly.__str__", "laurent.small", None, None),
    ("laurent", "LaurentPoly.evaluate", "laurent.small", None, None),
    ("laurent", "LaurentPoly.partial", "laurent.small", None, None),
    ("laurent", "LaurentPoly.to_json", "laurent.small", None, None),
    ("laurent", "LaurentPoly.from_json", "laurent.small", None, None),
    ("tsystem", "iterate_tz", _name_tz, _after_tz, None),
    ("tsystem", "check_orbit", "tsystem.check", None, None),
    ("zsystem", "z_stencil_from_tuple", "zsystem.solve", None, None),
    ("zsystem", "solve_z", "zsystem.solve", None, None),
    ("zsystem", "exponent_degree_sequence", "zsystem.solve", None, None),
    ("zsystem", "ConstantZ.value", "zsystem.value", None, None),
    ("zsystem", "GeometricZ.value", "zsystem.value", None, None),
    ("zsystem", "PerturbedZ.value", "zsystem.value", None, None),
    ("zsystem", "ZSolution.value", "zsystem.value", None, None),
    ("zsystem", "char_poly", "zsystem.charpoly", None, None),
    ("zsystem", "factor_over_integers", "zsystem.charpoly", None, None),
    ("zsystem", "spectral_radius", "zsystem.charpoly", None, None),
    ("ysystem", "iterate_y", "ysystem.y", _after_y, None),
    ("ysystem", "y_step", "ysystem.y", None, None),
    ("ysystem", "y_residual_ok", "ysystem.y", None, None),
    ("ysystem", "ybar_from_orbit", "ysystem.y", None, None),
    ("ysystem", "verify_tz_correspondence", "ysystem.y", None, None),
    ("ysystem", "qp1_iterate", "ysystem.qp1", _after_y, None),
    ("ysystem", "z_from_qp1", "ysystem.qp1", None, None),
    ("ysystem", "y_from_seed_dynamics", "ysystem.chain", _after_y, None),
    ("quiver", "build_from_tuple", "quiver.build", None, None),
    ("quiver", "ExchangeMatrix.from_rows", "quiver.build", None, None),
    ("quiver", "period1_witness", "quiver.build", None, None),
    ("quiver", "is_period1", "quiver.build", None, None),
    ("quiver", "rho_conjugate", "quiver.build", None, None),
    ("quiver", "mutate_matrix", "quiver.mutate", None, None),
    ("quiver", "mutate_seed", "quiver.mutate", None, None),
    ("presets", "get_preset", "presets.load", None, None),
    ("presets", "list_presets", "presets.load", None, None),
    ("reduction", "palindromic_basis", "reduction.basis", None, None),
    ("reduction", "derive_usystem", "reduction.derive", None, None),
    ("reduction", "derive_uzsystem", "reduction.derive", None, None),
    ("reduction", "iterate_usystem", "reduction.usystem", None, None),
    ("reduction", "project", "reduction.usystem", None, None),
    ("reduction", "verify_conjugacy", "reduction.conjugacy", None, None),
    ("reduction", "verify_form_invariance", "reduction.form", None, None),
    ("reduction", "reduced_structure_matrix", "reduction.form", None, None),
    ("reduction", "symplectic_form_at", "reduction.form", None, None),
    ("reduction", "poisson_bracket_matrix", "reduction.form", None, None),
    ("reduction", "generating_function_check", "reduction.form", None, None),
    ("intlinalg", "hermite_form", "intlinalg.hermite", None, None),
    ("intlinalg", "solve_int", "intlinalg.solve_int", None, None),
    ("intlinalg", "rank", "intlinalg.rank", None, None),
    ("intlinalg", "kernel_basis", "intlinalg.lattice", None, None),
    ("intlinalg", "image_lattice_basis", "intlinalg.lattice", None, None),
    ("intlinalg", "in_lattice", "intlinalg.lattice", None, None),
    ("intlinalg", "lattice_equal", "intlinalg.lattice", None, None),
    ("intlinalg", "invert_fraction", "intlinalg.invert", None, None),
    ("analysis", "relation_search", "analysis.relation", _after_relation, None),
    ("analysis", "tropical_iterate", "analysis.tropical", None, None),
    ("analysis", "degree_sequence", "analysis.tropical", None, None),
    ("analysis", "entropy_estimate", "analysis.entropy", _after_entropy, None),
    ("cli", "main", "cli", _after_cli, _before_cli),
]

# Per-layer metrics reported by the traced run: name -> unit.  Every
# ``.self_s`` comes from spans, every ``.calls`` from outermost entries, the
# rest from the hooks above.
LAYER_METRICS = {
    "laurent.mul.calls": "count",
    "laurent.mul.self_s": "s",
    "laurent.mul.term_pairs": "count",
    "laurent.mul.terms_out": "count",
    "laurent.div.calls": "count",
    "laurent.div.self_s": "s",
    "laurent.div.terms_out": "count",
    "laurent.div.none": "count",
    "laurent.small.self_s": "s",
    "laurent.coef_bits_max": "bits",
    "tsystem.symbolic.self_s": "s",
    "tsystem.symbolic.steps": "count",
    "tsystem.rational.self_s": "s",
    "tsystem.rational.steps": "count",
    "tsystem.rational.bits_max": "bits",
    "tsystem.check.self_s": "s",
    "zsystem.solve.self_s": "s",
    "zsystem.value.calls": "count",
    "zsystem.value.self_s": "s",
    "zsystem.charpoly.self_s": "s",
    "ysystem.y.self_s": "s",
    "ysystem.qp1.self_s": "s",
    "ysystem.chain.self_s": "s",
    "ysystem.bits_max": "bits",
    "quiver.build.self_s": "s",
    "quiver.mutate.calls": "count",
    "quiver.mutate.self_s": "s",
    "presets.load.self_s": "s",
    "reduction.basis.self_s": "s",
    "reduction.derive.self_s": "s",
    "reduction.usystem.self_s": "s",
    "reduction.conjugacy.self_s": "s",
    "reduction.form.self_s": "s",
    "intlinalg.hermite.calls": "count",
    "intlinalg.hermite.self_s": "s",
    "intlinalg.solve_int.calls": "count",
    "intlinalg.solve_int.self_s": "s",
    "intlinalg.rank.self_s": "s",
    "intlinalg.lattice.self_s": "s",
    "intlinalg.invert.self_s": "s",
    "analysis.relation.calls": "count",
    "analysis.relation.self_s": "s",
    "analysis.relation.found": "count",
    "analysis.tropical.self_s": "s",
    "analysis.entropy.calls": "count",
    "analysis.entropy.self_s": "s",
    "analysis.entropy.len_max": "count",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "job.self_s": "s",
}

COUNT_UNITS = ("count", "bits", "bytes")


class Tracer:
    """In-memory span recorder; one instance per benchmark process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, job, name, op, start, end)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0
        self.job = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def add(self, name: str, n: int) -> None:
        self.counters[name] += int(n)

    def peak(self, name: str, value: int) -> None:
        if value > self.counters[name]:
            self.counters[name] = value

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, op, t0, t1) -> None:
        self._stack.pop()
        self.spans.append((sid, parent, self.job, name, op, t0, t1))

    def run_job(self, job_id, fn):
        """Run ``fn()`` as the root span of job ``job_id``."""
        self.job = job_id
        self._stack.clear()
        sid, parent = self._open()
        t0 = perf_counter()
        try:
            return fn()
        finally:
            t1 = perf_counter()
            self._stack[:] = [sid]  # a budget alarm may leave inner spans open
            self._close(sid, parent, "job", str(job_id), t0, t1)
            self.job = None

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, after, before, op):
        tracer = self
        naming = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before else None
            sid, parent = tracer._open()
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._close(sid, parent, naming(args, kwargs) if naming else name,
                              op, t0, t1)
            if after:
                after(tracer, args, kwargs, out, state)
            return out

        return wrapper

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target and rebind every package-level alias of it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        for modname, path, name, after, before in TARGETS:
            mod = mods[f"{PACKAGE}.{modname}"]
            if "." in path:
                clsname, attr = path.split(".")
                cls = getattr(mod, clsname)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, after, before, path))
                else:
                    wrapped = self._wrap(raw, name, after, before, path)
                self._set(cls, attr, wrapped)
                continue
            orig = getattr(mod, path)
            wrapped = self._wrap(orig, name, after, before, path)
            for other in mods.values():
                for attr, value in list(vars(other).items()):
                    if value is orig:
                        self._set(other, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self times, outermost call counts and hook counters of the spans
        recorded since the last reset."""
        by_id = {s[0]: s for s in self.spans}
        self_time = {s[0]: s[6] - s[5] for s in self.spans}
        calls: dict[str, int] = defaultdict(int)
        for sid, parent, _job, name, _op, t0, t1 in self.spans:
            above = by_id.get(parent)  # None for roots and spans cut by a budget alarm
            if above is not None:
                self_time[parent] -= t1 - t0
            if above is None or above[3] != name:
                calls[name] += 1
        totals: dict[str, float] = defaultdict(float)
        for sid, s in by_id.items():
            totals[s[3]] += self_time[sid]
        out = {}
        for metric, unit in LAYER_METRICS.items():
            layer, _, field = metric.rpartition(".")
            if field == "self_s":
                out[metric] = totals.get(layer, 0.0)
            elif field == "calls":
                out[metric] = calls.get(layer, 0)
            else:
                out[metric] = self.counters.get(metric, 0)
        return out

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, op, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": name, "op": op,
                                     "start": t0, "end": t1}) + "\n")
