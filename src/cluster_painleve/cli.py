"""Command-line front end.

One executable, six subcommands, deterministic artifacts.  Exit codes:
0 success, 2 invalid configuration, 3 computation failed (a library error
raised while executing a valid configuration).  All rationals in output
files are "p/q" strings; floats appear only in entropy and root reports,
which carry explicit precision fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis, reduction, ysystem
from .acceptance import run_criteria, summary
from .laurent import format_rational, parse_int, parse_rational
from .presets import Preset, UnknownPreset, get_preset, list_presets
from .quiver import build_from_tuple
from .tsystem import TStencil, iterate_t, iterate_tz, orbit_from_json
from .zsystem import (
    GeometricZ, ZeroTuple, char_poly, factor_roots, format_poly, solve_z, spectral_radius,
    z_stencil_from_tuple,
)

EXIT_CONFIG = 2
EXIT_COMPUTE = 3


class ConfigInvalid(Exception):
    """Bad flags, bad preset, malformed values: nothing was computed."""


# -- option plumbing ---------------------------------------------------------

_RANDOM_INIT = re.compile(r"random\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def _resolve_system(args) -> Preset:
    preset = getattr(args, "preset", None)
    tup = getattr(args, "tuple", None)
    if preset and tup:
        raise ConfigInvalid("--preset and --tuple are mutually exclusive")
    if getattr(args, "n", None) is not None and preset != "primN":
        raise ConfigInvalid("--n applies only to --preset primN")
    if preset:
        try:
            return get_preset(preset, getattr(args, "n", None))
        except (UnknownPreset, ValueError) as exc:
            raise ConfigInvalid(exc.args[0] if exc.args else str(exc)) from exc
    if tup:
        try:
            a = tuple(parse_int(v) for v in tup.split(","))
            return Preset("tuple(" + tup + ")", a, build_from_tuple(a),
                          "builder", "ad hoc system from the command line")
        except ValueError as exc:
            raise ConfigInvalid(f"bad --tuple {tup!r}: {exc}") from exc
    raise ConfigInvalid("one of --preset or --tuple is required "
                        f"(presets: {', '.join(list_presets())})")


def _parse_values(spec: str, what: str) -> list[Fraction]:
    try:
        return [parse_rational(s.strip()) for s in spec.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigInvalid(f"bad {what} {spec!r}: {exc}") from exc


def _parse_init(spec: str | None, count: int, default_seed: int,
                what: str = "--init") -> list[Fraction]:
    """ones (also for None) | comma-separated rationals | random(seed, bound)."""
    if spec is None or spec == "ones":
        return [Fraction(1)] * count
    m = _RANDOM_INIT.fullmatch(spec)
    if m or spec == "random":
        seed = parse_int(m.group(1)) if m else default_seed
        bound = parse_int(m.group(2)) if m else 9
        if bound < 1:
            raise ConfigInvalid(f"{what}: random bound must be >= 1")
        rng = random.Random(seed)
        return [Fraction(rng.randint(1, bound), rng.randint(1, bound))
                for _ in range(count)]
    vals = _parse_values(spec, what)
    if len(vals) != count:
        raise ConfigInvalid(f"{what} needs {count} values, got {len(vals)}")
    return vals


def _orbit_init(args, count: int, positive: bool = False) -> list[Fraction]:
    """The --init window of an orbit.  A window the orbit cannot start from
    (a zero, or for a Y-orbit a value <= 0) is refused before the first step."""
    init = _parse_init(args.init, count, args.seed)
    if positive and min(init) <= 0:
        raise ConfigInvalid("initial y window must be strictly positive")
    if 0 in init:
        raise ConfigInvalid("initial window contains zero")
    return init


def _z_stencil(a: tuple[int, ...]):
    """The coefficient constraint of `a`; an all-zero tuple has none."""
    try:
        return z_stencil_from_tuple(a)
    except ZeroTuple as exc:
        raise ConfigInvalid(str(exc)) from exc


def _resolve_z(args, a: tuple[int, ...], seed: int):
    """Coefficient dynamics for tz runs: explicit window or geometric."""
    z_init = getattr(args, "z_init", None)
    beta, q = getattr(args, "beta", None), getattr(args, "q", None)
    if z_init and (beta or q):
        raise ConfigInvalid("--z-init and --beta/--q are mutually exclusive")
    if beta or q:
        if not (beta and q):
            raise ConfigInvalid("--beta and --q must be given together")
        b, qq = _parse_values(beta, "--beta")[0], _parse_values(q, "--q")[0]
        try:
            return GeometricZ(b, qq)
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from exc
    st = _z_stencil(a)
    if z_init:
        vals = _parse_init(z_init, st.order, seed, "--z-init")
        try:
            return solve_z(st, vals)
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from exc
    return solve_z(st)


def _json_text(payload: dict) -> str:
    """json.dumps(payload), also with ints past sys.get_int_max_str_digits()."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    except ValueError:  # json writes ints with str(); put each in by format_rational
        pass
    ints: list[str] = []

    def mark(o):
        if isinstance(o, dict):
            return {k: mark(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [mark(v) for v in o]
        if type(o) is int:
            ints.append(format_rational(o))
            return f"\0{len(ints) - 1}"
        return o

    text = json.dumps(mark(payload), indent=2, sort_keys=True) + "\n"
    return re.sub(r'"\\u0000(\d+)"', lambda m: ints[int(m.group(1))], text)


def _check_csv(args, has_values: bool) -> None:
    """Refuse --format csv, before any work, where there is no value list."""
    if args.format == "csv" and not has_values:
        raise ConfigInvalid("this command has no CSV form; use --format json")


def _emit(args, stem: str, payload: dict, column: tuple[str, str] | None = None) -> None:
    """Serialize one artifact deterministically; --out picks file vs directory.

    The CSV form lists the payload list `column` = (key, header): a line
    "n,<header>", then "i,<entry>" per entry, ints through format_rational.
    A command without that list refuses CSV up front (`_check_csv`).
    """
    if args.format == "csv":
        key, header = column
        lines = [f"n,{header}"] + [f"{i},{format_rational(v) if type(v) is int else v}"
                                   for i, v in enumerate(payload[key])]
        text, ext = "\n".join(lines) + "\n", ".csv"
    else:
        text, ext = _json_text(payload), ".json"
    out = getattr(args, "out", None)
    if out:
        path = Path(out)
        if path.suffix in (".json", ".csv"):
            path.parent.mkdir(parents=True, exist_ok=True)
        else:
            path.mkdir(parents=True, exist_ok=True)
            path = path / (stem + ext)
        path.write_text(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


# -- subcommands --------------------------------------------------------------

# the target-specific flags each `run` target reads
_RUN_FLAGS = {
    "t": {"--preset", "--tuple", "--n", "--mode symbolic", "--init"},
    "tz": {"--preset", "--tuple", "--n", "--mode symbolic", "--init", "--z-init",
           "--beta", "--q"},
    "y": {"--preset", "--tuple", "--n", "--init"},
    "qp1": {"--beta", "--q", "--init"},
}


def _check_run_flags(args) -> None:
    """Reject a flag that the chosen `run` target would ignore."""
    used = _RUN_FLAGS[args.what]
    if args.what in ("t", "tz") and args.mode == "symbolic":
        # a symbolic orbit runs over the generators and keeps the coefficients
        # as symbols
        used = used - {"--init", "--z-init", "--beta", "--q"}
    given = {"--preset": args.preset, "--tuple": args.tuple, "--n": args.n is not None,
             "--mode symbolic": args.mode == "symbolic", "--z-init": args.z_init,
             "--beta": args.beta, "--q": args.q, "--init": args.init is not None}
    for flag, on in given.items():
        if on and flag not in used:
            # name the mode when it is the reason the flag does not apply
            mode = " --mode symbolic" if flag in _RUN_FLAGS[args.what] else ""
            raise ConfigInvalid(f"{flag} does not apply to run {args.what}{mode}")


def _cmd_run(args) -> int:
    _check_run_flags(args)
    _check_csv(args, args.mode != "symbolic")
    if args.what != "qp1":
        p = _resolve_system(args)
        st = TStencil(p.a)
        n = st.n
    if args.what in ("t", "tz"):
        init = None if args.mode == "symbolic" else _orbit_init(args, n)
        if args.what == "t":
            orb = iterate_t(st, init, args.steps, mode=args.mode)
        else:
            if args.mode == "rational" and not (args.z_init or args.beta or args.q):
                raise ConfigInvalid("run tz in rational mode needs coefficient "
                                    "values: pass --z-init or --beta/--q")
            z = _resolve_z(args, p.a, args.seed)
            orb = iterate_tz(st, z, init, args.steps, mode=args.mode)
        payload = orb.to_json()
        payload["system"] = p.name
        _emit(args, "orbit", payload, ("values", "value"))
        return 0
    if args.what == "y":
        init = _orbit_init(args, n, positive=True)
        ys = ysystem.iterate_y(p.a, init, args.steps)
        payload = {"system": p.name, "tuple": list(p.a),
                   "values": [format_rational(v) for v in ys]}
        _emit(args, "yorbit", payload, ("values", "value"))
        return 0
    # qp1: the second-order coefficient recurrence
    if not (args.beta and args.q):
        raise ConfigInvalid("run qp1 needs --beta and --q")
    beta = _parse_values(args.beta, "--beta")[0]
    q = _parse_values(args.q, "--q")[0]
    init = _parse_init(args.init, 2, args.seed)
    try:
        ys = ysystem.qp1_iterate(beta, q, init, args.steps)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc
    payload = {"beta": format_rational(beta), "q": format_rational(q),
               "values": [format_rational(v) for v in ys]}
    _emit(args, "qp1", payload, ("values", "value"))
    return 0


def _cmd_reduce(args) -> int:
    _check_csv(args, False)
    p = _resolve_system(args)
    try:
        spec = (reduction.derive_uzsystem if args.with_z
                else reduction.derive_usystem)(p.matrix)
    except reduction.ZeroRank as exc:  # an all-zero tuple: nothing to reduce
        raise ConfigInvalid(str(exc)) from exc
    bas = spec.basis()
    chat = reduction.reduced_structure_matrix(p.matrix, bas)
    payload = {
        "system": p.name,
        "generator": list(spec.generator),
        "r": bas.rank,
        "F_num": spec.f_num.to_json(),
        "F_den": spec.f_den.to_json(),
        "formula": spec.format_text(),
        "reduced_form": [[format_rational(v) for v in row] for row in chat],
    }
    if spec.z_flag:
        payload["z_power"] = spec.z_power
    print(spec.format_text())
    _emit(args, "usystem", payload)
    return 0


ZSYS_STEPS = 8  # values listed past the initial window when `zsys` has --init


def _cmd_zsys(args) -> int:
    if args.steps is not None and not args.init:
        raise ConfigInvalid("--steps does not apply to zsys without --init")
    _check_csv(args, bool(args.init))
    p = _resolve_system(args)
    st = _z_stencil(p.a)
    # bind --init before the factor search and the root finder run
    vals = _parse_init(args.init, st.order, args.seed, "--init") if args.init else None
    try:
        sol = solve_z(st, vals)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc
    cp = char_poly(st)
    roots = factor_roots(cp)
    payload = {
        "system": p.name,
        "constraint": st.constraint_text(),
        "order": st.order,
        "char_poly": cp.format_text(),
        "roots": [{"factor": format_poly(f), "multiplicity": mult, "roots": rts}
                  for (f, mult), rts in zip(cp.factors, roots)],
        "spectral_radius": spectral_radius(roots),
        "precision": "roots to ~1e-12; exact factors listed in char_poly",
    }
    if args.init:
        steps = ZSYS_STEPS if args.steps is None else args.steps
        payload["values"] = [format_rational(sol.value(n)) for n in range(steps + st.order)]
    if sol.closed_form:
        payload["closed_form"] = {
            k: ([format_rational(x) for x in v] if isinstance(v, tuple)
                else format_rational(v) if isinstance(v, Fraction) else v)
            for k, v in sol.closed_form.items()
        }
    _emit(args, "zsys", payload, ("values", "value"))
    return 0


def _cmd_entropy(args) -> int:
    p = _resolve_system(args)
    n = len(p.a) + 1
    if args.variable < 1 or args.variable > n:
        raise ConfigInvalid(f"--variable must be in 1..{n}")
    if n + args.steps < analysis.MIN_DEGREES:
        raise ConfigInvalid(f"--steps must be at least {analysis.MIN_DEGREES - n} "
                            f"for {p.name} (entropy needs {analysis.MIN_DEGREES} degrees)")
    if args.mode == "tropical":
        init = [0] * n
        init[args.variable - 1] = -1
        ds = analysis.tropical_iterate(p.a, init, args.steps)
    else:
        orb = iterate_t(TStencil(p.a), None, args.steps, mode="symbolic")
        ds = analysis.degree_sequence(orb, args.variable)
    try:
        est = analysis.entropy_estimate(ds)
    except analysis.TooShort as exc:
        raise ConfigInvalid(f"{exc}; raise --steps") from exc
    payload = {
        "system": p.name,
        "mode": args.mode,
        "definition": ds.definition,
        "degrees": list(ds.d),
        "entropy": est.entropy,
        "fit": est.fit,
        "degree": est.degree,
        "band": est.band,
        "note": est.note,
        "precision": "entropy from exact integer degrees; band is the last "
                      "Aitken increment (0.0 when the fit is exact)",
    }
    _emit(args, "entropy", payload, ("degrees", "d_n"))
    return 0


def _read_orbit(path: str):
    """An orbit file written by `run`; anything else is a config error."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"cannot read orbit file: {exc}") from exc
    if not (isinstance(data, dict) and isinstance(data.get("stencil"), list)
            and isinstance(data.get("values"), list)):
        raise ConfigInvalid(f"{path} is not an orbit file: expected an object "
                            "with 'stencil' and 'values' lists")
    try:
        return orbit_from_json(data)
    except (ValueError, TypeError, KeyError, AttributeError, ArithmeticError) as exc:
        raise ConfigInvalid(f"{path} is not a valid orbit file: {exc}") from exc


LINREL_STEPS = 60  # orbit length when `linrel` computes the orbit itself


def _cmd_linrel(args) -> int:
    if args.orbit:
        if getattr(args, "preset", None) or getattr(args, "tuple", None):
            raise ConfigInvalid("--orbit and --preset/--tuple are mutually exclusive")
        # the orbit comes from the file: these would only shape a computed one
        given = {"--n": args.n, "--init": args.init, "--steps": args.steps,
                 "--beta": args.beta, "--q": args.q, "--z-init": args.z_init}
        for flag, value in given.items():
            if value is not None:
                raise ConfigInvalid(f"{flag} does not apply to linrel --orbit")
    _check_csv(args, False)
    try:
        offs = tuple(parse_int(v) for v in args.offsets.split(","))
    except ValueError as exc:
        raise ConfigInvalid(f"bad --offsets {args.offsets!r}") from exc
    try:
        analysis.check_search_shape(offs, args.train, args.verify)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc
    if args.orbit:
        orb = _read_orbit(args.orbit)
        name = args.orbit
    else:
        p = _resolve_system(args)
        st = TStencil(p.a)
        init = _orbit_init(args, st.n)
        steps = LINREL_STEPS if args.steps is None else args.steps
        z = _resolve_z(args, p.a, args.seed) if args.beta or args.q or args.z_init else None
        try:  # the orbit's length is known before it is built
            analysis.check_search_shape(offs, args.train, args.verify, st.n + steps)
        except analysis.InsufficientData as exc:
            raise ConfigInvalid(str(exc)) from exc
        orb = iterate_t(st, init, steps) if z is None else iterate_tz(st, z, init, steps)
        name = p.name
    try:
        rs = analysis.relation_search(orb, offs, args.train, args.verify)
    except (analysis.InsufficientData, ValueError) as exc:
        raise ConfigInvalid(str(exc)) from exc
    payload = {
        "system": name,
        "offsets": list(offs),
        "train": args.train,
        "verify": args.verify,
        "status": rs.status,
        "train_rank": rs.train_rank,
        "solution_dim": rs.solution_dim,
        "relation": None,
    }
    if rs.relation is not None:
        rel = rs.relation
        payload["relation"] = {
            "offsets": list(rel.offsets),
            "coefficients": [format_rational(c) for c in rel.coefficients],
            "verified_window": rel.verified_window,
            "palindromic": rel.palindromic,
            "formula": rel.format_text(),
        }
        print(rel.format_text())
    else:
        print(f"no relation: {rs.status}")
    _emit(args, "linrel", payload)
    return 0


def _cmd_verify(args) -> int:
    _check_csv(args, False)
    numbers = None
    keyword = None
    if args.filter:
        if re.fullmatch(r"[\d,\s]+", args.filter):
            numbers = {parse_int(v) for v in args.filter.replace(",", " ").split()}
        else:
            keyword = args.filter
    results = run_criteria(numbers=numbers, keyword=keyword)
    if not results:
        raise ConfigInvalid(f"--filter {args.filter} matches no criterion")
    for r in results:
        print(r.line())
    s = summary(results)
    print(f"passed {s['passed']}/{s['total']}"
          + ("" if s["ok"] else f"; blocking failures: {s['blocking_failures']}"))
    if args.out:
        payload = {
            "summary": s,
            "results": [{
                "number": r.number, "title": r.title, "passed": r.passed,
                "blocking": r.blocking, "limit": r.limit, "detail": r.detail,
            } for r in results],
        }
        _emit(args, "verify", payload)
    return 0 if s["ok"] else 1


# -- parser -------------------------------------------------------------------

def _add_common(sp, init: bool = True) -> None:
    sp.add_argument("--preset", help="named system: " + ", ".join(list_presets()))
    sp.add_argument("--tuple", help="exchange tuple a_1,...,a_{N-1} (comma-separated)")
    sp.add_argument("--n", type=int, help="size for the primN family")
    if init:
        # no default: _parse_init reads None as "ones", and `run` can tell an
        # explicit value apart from none
        sp.add_argument("--init",
                        help='initial window: "ones", comma-separated rationals, '
                             'or "random(seed, bound)"')


def _add_io(sp) -> None:
    sp.add_argument("--out", help="output file (*.json/*.csv) or directory")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for bare 'random' inits (default 0)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: argparse sizes a help
    formatter on every add_argument, and parse_args leaves the parser as it
    found it, so every `main` call shares one.  Callers must not change it."""
    ap = argparse.ArgumentParser(
        prog="cluster-painleve",
        description="exact iteration and reduction of mutation-periodic "
                    "cluster recurrences")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="iterate a recurrence")
    run.add_argument("what", choices=("t", "tz", "y", "qp1"))
    _add_common(run)
    run.add_argument("--steps", type=int, default=8,
                     help="number of further terms to append")
    run.add_argument("--mode", choices=("rational", "symbolic"), default="rational")
    run.add_argument("--z-init", dest="z_init",
                     help="initial coefficient window (tz runs)")
    run.add_argument("--beta", help='geometric coefficient scale, "p/q"')
    run.add_argument("--q", help='geometric coefficient ratio, "p/q"')
    _add_io(run)
    run.set_defaults(handler=_cmd_run)

    red = sub.add_parser("reduce", help="palindromic reduction to the U-system")
    _add_common(red, init=False)
    red.add_argument("--with-z", action="store_true",
                     help="keep the coefficient in the reduced recurrence")
    _add_io(red)
    red.set_defaults(handler=_cmd_reduce)

    zs = sub.add_parser("zsys", help="coefficient constraint and its spectrum")
    _add_common(zs, init=False)
    zs.add_argument("--init", help="initial Z window (optional; symbolic otherwise)")
    zs.add_argument("--steps", type=int)  # no default: it needs --init
    _add_io(zs)
    zs.set_defaults(handler=_cmd_zsys)

    en = sub.add_parser("entropy", help="degree growth and entropy estimate")
    _add_common(en, init=False)
    en.add_argument("--steps", type=int, default=40)
    en.add_argument("--mode", choices=("tropical", "symbolic"), default="tropical")
    en.add_argument("--variable", type=int, default=1,
                    help="tracked initial variable, 1-based")
    _add_io(en)
    en.set_defaults(handler=_cmd_entropy)

    lr = sub.add_parser("linrel", help="search for a linear relation with "
                                       "constant coefficients")
    lr.add_argument("--orbit", help="orbit JSON file from `run`")
    _add_common(lr)
    # no default, so that `--orbit` can tell an explicit value apart
    lr.add_argument("--steps", type=int)
    lr.add_argument("--z-init", dest="z_init")
    lr.add_argument("--beta")
    lr.add_argument("--q")
    lr.add_argument("--offsets", required=True, help="e.g. 0,12,24")
    lr.add_argument("--train", type=int, default=4)
    lr.add_argument("--verify", type=int, default=30)
    _add_io(lr)
    lr.set_defaults(handler=_cmd_linrel)

    ve = sub.add_parser("verify", help="run the acceptance battery")
    ve.add_argument("--filter", help="criterion numbers (comma) or title keyword")
    _add_io(ve)
    ve.set_defaults(handler=_cmd_verify)
    return ap


_VALUE_FLAGS = {"--tuple", "--init", "--z-init", "--beta", "--q", "--offsets"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    # let `--tuple -1,2,-1` through argparse, which would read the value as a flag
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _VALUE_FLAGS and nxt and re.match(r"-\d", nxt):
            out.append(tok + "=" + nxt)
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    argv = _merge_negative_values(list(sys.argv[1:] if argv is None else argv))
    args = build_parser().parse_args(argv)
    try:
        if (getattr(args, "steps", None) or 0) < 0:
            raise ConfigInvalid("--steps must be nonnegative")
        rc = args.handler(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed stdout (`| head`): drop the rest of the output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError, KeyError, OverflowError) as exc:
        print(f"compute error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
