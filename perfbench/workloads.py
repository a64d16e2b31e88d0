"""The benchmark's three workloads: fixed job lists with seeded inputs.

``build(name, seed)`` returns the job list of one workload.  A job is a
callable that computes one result through the package, plus a check that
compares the result with an independent reference from ``oracles``.  The
seed draws only inputs: initial windows, coefficient data and points.  Step
counts and job lists are fixed, so the work per pass does not drift with
the seed.

Rational inputs are quotients p/q of distinct primes from [1000, 1100).
Values near 1 of one fixed height keep the height growth of an orbit, and
so its cost, nearly the same for every seed; small random fractions such as
those of the CLI's ``random(seed, 9)`` make the same 275-step Somos-4 orbit
take anywhere from 1.7 s to 9.8 s (Python 3.11 on a 2.1 GHz x86-64 VM).

Jobs call the package through module attributes at call time (never through
names bound at import), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from cluster_painleve import (analysis, cli, laurent, presets, quiver, reduction,
                              tsystem, ysystem, zsystem)

import oracles

F = Fraction
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
PRIMES = tuple(p for p in range(1000, 1300) if all(p % d for d in range(2, 37)))
BAND = tuple(p for p in PRIMES if p < 1100)  # orbit inputs: 16 primes, values within 10% of 1


@dataclass
class Job:
    """One unit of work: ``run()`` computes, ``check(result)`` returns None
    when the result is right and a reason otherwise."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _window(rng: random.Random, k: int) -> list[Fraction]:
    ps = rng.sample(BAND, 2 * k)
    return [F(ps[2 * i], ps[2 * i + 1]) for i in range(k)]


def _point(rng: random.Random, k: int) -> list[Fraction]:
    """k quotients of primes from [1000, 1300), drawn with replacement."""
    return [F(rng.choice(PRIMES), rng.choice(PRIMES)) for _ in range(k)]


def _positive(poly) -> bool:
    return all(c > 0 for c in poly.terms.values())


# -- symbolic: Laurent certification -------------------------------------------
# (label, preset, steps, coefficients, pinned term count of the last iterate)
SYMBOLIC = (
    ("somos4-t17", "somos4", 17, None, 960),
    ("prim4-tz21-c12", "prim4", 21, "solved", 323),
    ("somos7-tz12", "somos7", 12, "solved", 1479),
    ("somos5-t16", "somos5", 16, None, 363),
    ("somos4-geo9", "somos4", 9, "geometric", 1021),
    ("somos6-t12", "somos6", 12, None, 897),
    ("nonint6-t5", "nonintegrable6", 5, None, 550),
)
PRIM4_C_TERMS = 67  # C in x[24] + x[0] = C x[12] (stride-12 relation)


def _symbolic_job(rng, label, name, steps, coef, terms) -> Job:
    p = presets.get_preset(name)
    a, n = p.a, p.n
    x0 = _window(rng, n)
    point = {f"x{i}": v for i, v in enumerate(x0)}
    if coef == "geometric":
        beta, q = _window(rng, 2)
        point.update(beta=beta, q=q)
    elif coef == "solved":
        r = zsystem.z_stencil_from_tuple(a).order
        point.update({f"Z{i}": v for i, v in enumerate(_window(rng, r))})

    @functools.cache
    def expect():
        """The rational orbit from the seeded point."""
        if coef == "geometric":
            zvals = [point["beta"] * point["q"] ** k for k in range(steps)]
        elif coef == "solved":
            zvals = oracles.constraint_sequence(a, [point[f"Z{i}"] for i in range(r)], steps)
        else:
            zvals = None
        return oracles.bilinear_orbit(a, x0, steps, zvals)

    def run():
        st = tsystem.TStencil(a)
        if coef is None:
            orb = tsystem.iterate_t(st, None, steps, mode="symbolic")
        elif coef == "geometric":
            orb = tsystem.iterate_tz(st, zsystem.GeometricZ(), None, steps, mode="symbolic")
        else:
            z = zsystem.solve_z(zsystem.z_stencil_from_tuple(a))
            orb = tsystem.iterate_tz(st, z, None, steps, mode="symbolic")
        extra = None
        if name == "prim4":
            v = orb.values
            extra = laurent.laurent_try_div(v[24] + v[0], v[12])
        return orb, extra

    def check(result):
        orb, extra = result
        vals = orb.values
        if len(vals) != n + steps or vals[-1].n_terms() != terms:
            return f"last iterate has {vals[-1].n_terms()} terms, pinned {terms}"
        if not all(_positive(v) for v in vals):
            return "a negative coefficient appeared"
        for i in range(n):
            shadow = oracles.tropical(a, [-(j == i) for j in range(n)], steps)
            if [oracles.min_degrees(v, i) for v in vals] != shadow:
                return f"degrees in x{i} differ from the tropical shadow"
        if oracles.evaluate(vals[-1], point) != expect()[-1]:
            return "last iterate disagrees with the rational orbit at the seeded point"
        if name == "prim4":
            if extra is None or extra.n_terms() != PRIM4_C_TERMS or not _positive(extra):
                return "stride-12 coefficient is not the pinned 67-term positive polynomial"
            x = expect()
            if oracles.evaluate(extra, point) != (x[24] + x[0]) / x[12]:
                return "stride-12 coefficient disagrees with the rational orbit"
        return None

    return Job(label, run, check)


def symbolic(rng: random.Random) -> list[Job]:
    return [_symbolic_job(rng, *spec) for spec in SYMBOLIC]


# -- orbit: long exact rational orbits -------------------------------------------
# Step counts sit below the steep climb of each recurrence (cost grows like a
# high power of the step count; see perfbench/baseline.json).  Every value is
# re-checked modulo a 61-bit prime; the exact re-checks cover the last windows.
ORBIT_T = (("somos4", 65), ("somos4", 70), ("somos4", 75), ("somos4", 80), ("somos4", 85),
           ("somos6", 80), ("somos6", 90))
ORBIT_ONES = (("somos4", 350), ("somos4", 300))
ORBIT_U = (("somos4", 50), ("somos4", 55), ("somos6", 55))
# The heights of these orbits vary by 10-15 % with the seed (the T- and
# U-orbits above by 0.2 %), so they are kept short to hold wall_s steady.
ORBIT_GEO = (34, 36)
ORBIT_QP1 = (44, 46)
ORBIT_Y = (("somos4", 34), ("somos5", 38), ("somos6", 42))
ORBIT_CHAIN = (("somos4", 24), ("prim4", 30))


def _orbit_check(a, x0, steps, zs=None):
    n_ = len(a) + 1

    def check(orb):
        vals = orb.values
        if vals[:n_] != x0 or len(vals) != n_ + steps:
            return "orbit does not extend its initial window"
        if not oracles.bilinear_ok(a, vals, zs):
            return "orbit fails the recurrence (modular re-check)"
        if not tsystem.check_orbit(orb, start=len(vals) - 2 * n_):
            return "orbit fails the recurrence (exact re-check of the last windows)"
        return None

    return check


def _t_job(rng, name, steps) -> Job:
    a = presets.get_preset(name).a
    x0 = _window(rng, len(a) + 1)
    return Job(f"{name}-t{steps}",
               lambda: tsystem.iterate_t(tsystem.TStencil(a), x0, steps),
               _orbit_check(a, x0, steps))


def _ones_job(name, steps) -> Job:
    a = presets.get_preset(name).a
    ones = [F(1)] * (len(a) + 1)
    rest = _orbit_check(a, ones, steps)

    def check(orb):
        if any(v.denominator != 1 for v in orb.values):
            return "integral start gave a non-integer value"
        return rest(orb)

    return Job(f"{name}-ones{steps}",
               lambda: tsystem.iterate_t(tsystem.TStencil(a), ones, steps), check)


def _geo_job(rng, steps) -> Job:
    a = presets.get_preset("somos4").a
    x0, (beta, q) = _window(rng, 4), _window(rng, 2)

    def run():
        z = zsystem.GeometricZ(beta, q)
        return tsystem.iterate_tz(tsystem.TStencil(a), z, x0, steps)

    return Job(f"somos4-geo{steps}", run,
               _orbit_check(a, x0, steps, [beta * q ** n for n in range(steps)]))


def _qp1_job(rng, steps) -> Job:
    beta, q = _window(rng, 2)
    y0 = _window(rng, 2)

    def check(ys):
        if ys[:2] != y0 or len(ys) != steps + 2:
            return "orbit does not extend its initial window"
        r = [oracles.residue(y) for y in ys]
        b, qr = oracles.residue(beta), oracles.residue(q)
        for n in range(steps):
            exact = None in r[n:n + 3] or n >= steps - 2
            if exact:
                ok = ys[n + 2] * ys[n + 1] ** 2 * ys[n] == beta * q ** n * (1 + ys[n + 1])
            else:
                ok = (r[n + 2] * r[n + 1] ** 2 * r[n] - b * pow(qr, n, oracles.P)
                      * (1 + r[n + 1])) % oracles.P == 0
            if not ok:
                return f"extracted coefficient is not beta*q^n at n={n}"
        return None

    return Job(f"qp1-{steps}", lambda: ysystem.qp1_iterate(beta, q, y0, steps), check)


def _y_job(rng, name, steps) -> Job:
    a = presets.get_preset(name).a
    y0 = _window(rng, len(a) + 1)

    def check(ys):
        if ys[:len(y0)] != y0 or len(ys) != len(y0) + steps:
            return "orbit does not extend its initial window"
        return None if oracles.y_ok(a, ys) else "Y-orbit fails the Y-system"

    return Job(f"{name}-y{steps}", lambda: ysystem.iterate_y(a, y0, steps), check)


def _chain_job(rng, name, steps) -> Job:
    p = presets.get_preset(name)
    y0 = _window(rng, p.n)

    def check(chain):
        # value n is read at node n mod N after n mutations, so only the
        # first value is a seed coefficient as given
        if chain[0] != y0[0] or len(chain) != p.n + steps:
            return "chain does not start from the seed coefficients"
        direct = ysystem.iterate_y(p.a, chain[:p.n], steps)
        return None if chain == direct else "seed chain differs from the Y-recurrence"

    return Job(f"{name}-chain{steps}",
               lambda: ysystem.y_from_seed_dynamics(p.matrix, y0, steps), check)


def _u_job(rng, name, steps) -> Job:
    p = presets.get_preset(name)
    spec = reduction.derive_usystem(p.matrix)
    v, r = spec.generator, spec.order
    x0 = _window(rng, p.n)
    u0 = oracles.project(v, oracles.bilinear_orbit(p.a, x0, r - 1), r)

    def check(us):
        if us[:r] != u0 or len(us) != r + steps:
            return "orbit does not extend its initial window"
        xs = oracles.bilinear_orbit_mod(p.a, x0, steps + r - 1)
        got = [oracles.residue(u) for u in us]
        if xs is None or None in got or 0 in xs:
            want = oracles.project(v, oracles.bilinear_orbit(p.a, x0, steps + r - 1), steps + r)
            return None if us == want else "U-orbit differs from the projected x-orbit"
        for m, u in enumerate(got):
            w = 1
            for x, e in zip(xs[m:m + len(v)], v):
                w = w * pow(x, e, oracles.P) % oracles.P
            if u != w:
                return f"U-orbit differs from the projected x-orbit at {m}"
        return None

    return Job(f"{name}-u{steps}", lambda: reduction.iterate_usystem(spec, u0, steps), check)


def orbit(rng: random.Random) -> list[Job]:
    jobs = [_t_job(rng, *s) for s in ORBIT_T]
    jobs += [_ones_job(*s) for s in ORBIT_ONES]
    jobs += [_geo_job(rng, s) for s in ORBIT_GEO]
    jobs += [_qp1_job(rng, s) for s in ORBIT_QP1]
    jobs += [_y_job(rng, *s) for s in ORBIT_Y]
    jobs += [_chain_job(rng, *s) for s in ORBIT_CHAIN]
    jobs += [_u_job(rng, *s) for s in ORBIT_U]
    return jobs


# -- survey: many small diagnostics ------------------------------------------------
FIXTURES = ("somos4", "somos5", "somos6", "somos7", "prim4", "nonintegrable6")
PRIM_RANGE = range(4, 41)
RANDOM_TUPLES = 100  # lengths 4 to 9 in turn; the seed draws the entries
STRUCTURE = ("somos4", "somos6", "prim8", "prim12", "prim20")
CONJUGACY = (("somos4", 12), ("somos5", 10), ("somos6", 10), ("prim5", 12), ("prim8", 12))
FORM = ("somos4", "somos6", "prim6", "prim9")
SCAN_N = (4, 5, 6, 7)
SCAN_ORBITS = 3  # seeded orbits per window size
SCAN_MAX_STRIDE = {3: 30, 5: 15}  # by number of terms
SCAN_TRAIN, SCAN_VERIFY, SCAN_HELD = 6, 12, 6
# (preset, length): tropical degrees plus entropy_estimate, whose cost grows
# with the square of the length; these jobs are the slowest tenth of a pass.
ENTROPY = (("somos4", 4000), ("somos5", 3000),
           *((name, length) for name in ("somos4", "somos5", "somos6", "somos7", "prim5", "prim6")
             for length in (1000, 1400, 1800)),
           ("somos6", 2400), ("prim5", 2400), ("somos7", 2400),
           ("nonintegrable6", 400), ("nonintegrable6", 800))


def _basis_ok(b, basis) -> str | None:
    rows = [list(r) for r in b.rows]
    vecs = [list(v) for v in basis.vectors]
    gen = list(basis.generator)
    support = [i for i, x in enumerate(gen) if x]
    seg = gen[support[0]:support[-1] + 1]
    if seg != seg[::-1] or not oracles.is_primitive(gen) or gen[support[0]] <= 0:
        return "generator is not a positive primitive palindrome"
    r = oracles.rank(rows)
    if basis.rank != r or oracles.rank(rows + vecs) != r:
        return "basis does not span the rational row space"
    if not oracles.unimodular_rows(vecs):
        return "basis spans a proper sublattice of the saturated row lattice"
    return None


def _reduction_ok(p, spec, rng) -> str | None:
    """One step of the reduced recurrence at a seeded window, against the
    projection of the order-N recurrence (with a seeded coefficient)."""
    n, r = p.n, spec.order
    x0 = _point(rng, n)
    zn = _point(rng, 1)[0] if spec.z_flag else F(1)
    xs = oracles.bilinear_orbit(p.a, x0, r, [zn] + [F(1)] * r)
    u = oracles.project(spec.generator, xs, r + 1)
    f = oracles.evaluate(spec.f_laurent, {f"U{j}": u[j] for j in range(1, r)})
    want = (zn ** spec.z_power if spec.z_flag else 1) * f
    return None if u[r] * u[0] == want else "reduced recurrence fails at the seeded window"


def _derive_job(rng, label, p, with_z) -> Job:
    check_rng = random.Random(rng.random())

    def run():
        derive = reduction.derive_uzsystem if with_z else reduction.derive_usystem
        return reduction.palindromic_basis(p.matrix), derive(p.matrix)

    def check(result):
        basis, spec = result
        return _basis_ok(p.matrix, basis) or _reduction_ok(p, spec, check_rng)

    return Job(label, run, check)


def _random_tuple(rng, n: int) -> tuple[int, ...]:
    """Palindromic n-tuple with end entries -1 and a nonzero middle."""
    half = [rng.choice((-2, -1, 0, 1, 2)) for _ in range((n - 3 + 1) // 2)]
    while not any(half):
        half = [rng.choice((-2, -1, 0, 1, 2)) for _ in range(len(half))]
    mid = half + half[::-1][(n - 3) % 2:]
    return (-1,) + tuple(mid) + (-1,)


def _structure_job(name) -> Job:
    p = presets.get_preset(name)

    def run():
        basis = reduction.palindromic_basis(p.matrix)
        return basis, reduction.reduced_structure_matrix(p.matrix, basis)

    def check(result):
        basis, c = result
        r, n = basis.rank, basis.n
        vecs = basis.vectors
        if any(c[i][j] != -c[j][i] for i in range(r) for j in range(r)):
            return "reduced form is not skew"
        vtc = [[sum(vecs[k][i] * c[k][l] for k in range(r)) for l in range(r)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if sum(vtc[i][l] * vecs[l][j] for l in range(r)) != p.matrix.rows[i][j]:
                    return "reduced form does not pull back to B"
        return None

    return Job(f"{name}-structure", run, check)


def _conjugacy_job(rng, name, steps) -> Job:
    p = presets.get_preset(name)
    x0 = _window(rng, p.n)
    return Job(f"{name}-conjugacy{steps}",
               lambda: reduction.verify_conjugacy(p.matrix, x0, steps),
               lambda ok: None if ok is True else "conjugacy check failed")


def _form_job(rng, name) -> Job:
    p = presets.get_preset(name)
    dim = oracles.rank([list(r) for r in p.matrix.rows])
    points = [_point(rng, dim) for _ in range(2)]
    return Job(f"{name}-form",
               lambda: reduction.verify_form_invariance(p.matrix, points),
               lambda ok: None if ok is True else "2-form not invariant")


def _scan_job(rng, n, k, terms) -> Job:
    """Scan strides up to 30 (3 terms) or 15 (5 terms) for a relation with
    constant coefficients along one seeded primN orbit with solved
    coefficients."""
    p = presets.get_preset(f"prim{n}")
    zinit = _window(rng, zsystem.z_stencil_from_tuple(p.a).order)
    x0 = _window(rng, p.n)
    smax = SCAN_MAX_STRIDE[terms]
    steps = (terms - 1) * smax + SCAN_TRAIN + SCAN_VERIFY + SCAN_HELD

    def run():
        z = zsystem.solve_z(zsystem.z_stencil_from_tuple(p.a), zinit)
        orb = tsystem.iterate_tz(tsystem.TStencil(p.a), z, x0, steps)
        out = {}
        for s in range(1, smax + 1):
            offsets = tuple(s * j for j in range(terms))
            if offsets[-1] + SCAN_TRAIN + SCAN_VERIFY + SCAN_HELD <= len(orb.values):
                out[s] = analysis.relation_search(orb, offsets, SCAN_TRAIN, SCAN_VERIFY)
        return out

    def check(found):
        if n == 4 and terms == 3 and found[12].status != "found":
            return "prim4 lost its stride-12 relation"
        xs = None
        for s, rs in found.items():
            if rs.status not in ("found", "inconsistent", "underdetermined", "failed-verify"):
                return f"unknown status {rs.status}"
            if rs.status != "found":
                continue
            if xs is None:
                zs = oracles.constraint_sequence(p.a, zinit, steps)
                xs = oracles.bilinear_orbit(p.a, x0, steps, zs)
            start = SCAN_TRAIN + SCAN_VERIFY
            for m in range(start, start + SCAN_HELD):
                if sum(c * xs[m + o] for c, o in zip(rs.relation.coefficients, rs.offsets)):
                    return f"stride-{s} relation fails on held-out window {m}"
        return None

    return Job(f"prim{n}-scan{terms}-{k}", run, check)


def _entropy_job(rng, name, length) -> Job:
    a = presets.get_preset(name).a
    n = len(a) + 1
    slot = rng.randrange(n)
    init = [-(j == slot) for j in range(n)]

    def run():
        tr = analysis.tropical_iterate(a, init, length)
        return tr, analysis.entropy_estimate(tr)

    def check(result):
        tr, est = result
        if list(tr.values) != oracles.tropical(a, init, length):
            return "tropical degrees differ from the reference"
        if name == "nonintegrable6":
            lam = math.log((3 + math.sqrt(5)) / 2)
            if est.fit != "exponential" or abs(est.entropy - lam) > 1e-6:
                return f"entropy {est.entropy} ({est.fit}), want log((3+sqrt5)/2)"
        elif est.fit != "polynomial" or est.entropy != 0.0:
            return f"entropy {est.entropy} ({est.fit}), want 0 (polynomial)"
        return None

    return Job(f"{name}-entropy{length}", run, check)


def _cli_job(label, argv, check) -> Job:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        return rc, buf.getvalue()

    def checked(result):
        rc, out = result
        return f"exit code {rc}" if rc != 0 else check(out)

    return Job(label, run, checked)


def _golden(name) -> Callable[[str], str | None]:
    want = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    return lambda out: None if out == want else f"output differs from golden {name}"


def _cli_jobs(rng) -> list[Job]:
    jobs = [
        _cli_job("cli-run-t-golden", ["run", "t", "--preset", "somos4", "--init", "ones",
                                      "--steps", "8"], _golden("run_t_somos4.json")),
        _cli_job("cli-reduce-golden", ["reduce", "--preset", "somos4"],
                 _golden("reduce_somos4.txt")),
        _cli_job("cli-zsys-golden", ["zsys", "--preset", "somos4"], _golden("zsys_somos4.json")),
        _cli_job("cli-entropy-golden", ["entropy", "--preset", "somos4", "--steps", "60"],
                 _golden("entropy_somos4.json")),
        _cli_job("cli-linrel-golden",
                 ["linrel", "--preset", "prim4", "--z-init", "2,3", "--init", "ones",
                  "--steps", "58", "--offsets", "0,12,24", "--train", "4", "--verify", "30"],
                 _golden("linrel_prim4.txt")),
    ]
    for name in FIXTURES:
        p = presets.get_preset(name)
        jobs.append(_cli_job(f"cli-reduce-{name}", ["reduce", "--preset", name],
                             _reduce_check(p)))
        jobs.append(_cli_job(f"cli-zsys-{name}", ["zsys", "--preset", name],
                             _zsys_check(p)))
    for name, steps in (("somos4", 30), ("somos5", 30), ("somos6", 25), ("prim4", 40)):
        p = presets.get_preset(name)
        x0 = _window(rng, p.n)
        init = ",".join(str(v) for v in x0)
        xs = functools.cache(functools.partial(oracles.bilinear_orbit, p.a, x0, steps))
        jobs.append(_cli_job(f"cli-run-t-{name}", ["run", "t", "--preset", name, "--init", init,
                                                   "--steps", str(steps)], _values_check(xs)))
        ys = functools.cache(functools.partial(oracles.y_orbit, p.a, x0, steps // 2))
        jobs.append(_cli_job(f"cli-run-y-{name}", ["run", "y", "--preset", name, "--init", init,
                                                   "--steps", str(steps // 2)], _values_check(ys)))
    for name, steps in (("somos4", 200), ("nonintegrable6", 120), ("prim6", 300)):
        p = presets.get_preset(name)
        argv = ["entropy", "--preset", name, "--steps", str(steps)]
        jobs.append(_cli_job(f"cli-entropy-{name}", argv, _entropy_check(p, steps)))
    for n in (4, 5):
        p = presets.get_preset(f"prim{n}")
        zinit = _window(rng, zsystem.z_stencil_from_tuple(p.a).order)
        argv = ["linrel", "--preset", p.name, "--z-init", ",".join(map(str, zinit)),
                "--init", "ones", "--steps", "58", "--offsets", "0,12,24",
                "--train", "4", "--verify", "20"]
        jobs.append(_cli_job(f"cli-linrel-{p.name}", argv, _linrel_check(p, zinit, n)))
    return jobs


def _payload(out: str) -> dict:
    return json.loads(out[out.index("{"):])


def _values_check(expect):
    def check(out):
        got = [F(v) for v in _payload(out)["values"]]
        return None if got == expect() else "CLI orbit differs from the reference"
    return check


def _reduce_check(p):
    def check(out):
        head, _, rest = out.partition("\n")
        d = json.loads(rest)
        if d["formula"] != head or d["r"] != oracles.rank([list(r) for r in p.matrix.rows]):
            return "reduce payload disagrees with its formula or the rank"
        return None
    return check


def _zsys_check(p):
    def check(out):
        d = _payload(out)
        e = [-v for v in p.a]
        support = [j for j, v in enumerate(e) if v]
        if d["order"] != support[-1] - support[0]:
            return "zsys order differs from the trimmed constraint"
        return None
    return check


def _entropy_check(p, steps):
    def check(out):
        d = _payload(out)
        n = p.n
        degrees = [max(0, v) for v in oracles.tropical(p.a, [-1] + [0] * (n - 1), steps)]
        if d["degrees"] != degrees:
            return "CLI degrees differ from the tropical reference"
        want = "exponential" if p.name == "nonintegrable6" else "polynomial"
        return None if d["fit"] == want else f"fit {d['fit']}, want {want}"
    return check


LINREL_HELD_END = 40  # windows 24..39 lie past the 4 + 20 the CLI used


def _linrel_check(p, zinit, n):
    def check(out):
        d = _payload(out)
        if n == 4 and d["status"] != "found":
            return "prim4 lost its stride-12 relation"
        if d["status"] == "found":
            zs = oracles.constraint_sequence(p.a, zinit, LINREL_HELD_END + 24)
            xs = oracles.bilinear_orbit(p.a, [1] * p.n, LINREL_HELD_END + 24, zs)
            c = [F(v) for v in d["relation"]["coefficients"]]
            for m in range(4 + 20, LINREL_HELD_END):
                if sum(ck * xs[m + o] for ck, o in zip(c, (0, 12, 24))) != 0:
                    return f"relation fails on held-out window {m}"
        return None
    return check


def survey(rng: random.Random) -> list[Job]:
    jobs = []
    for name in FIXTURES:
        p = presets.get_preset(name)
        jobs.append(_derive_job(rng, f"{name}-derive", p, False))
        jobs.append(_derive_job(rng, f"{name}-derive-z", p, True))
    for n in PRIM_RANGE:
        p = presets.get_preset(f"prim{n}")
        jobs.append(_derive_job(rng, f"prim{n}-derive", p, False))
    tuples = [_random_tuple(rng, 4 + i % 6) for i in range(RANDOM_TUPLES)]
    for i, a in enumerate(tuples):
        p = presets.Preset(f"random{i}", a, quiver.build_from_tuple(a), "builder", "")
        jobs.append(_derive_job(rng, f"random{i}-derive", p, i % 2 == 1))
    jobs += [_structure_job(name) for name in STRUCTURE]
    jobs += [_conjugacy_job(rng, *s) for s in CONJUGACY]
    jobs += [_form_job(rng, name) for name in FORM]
    jobs += [_scan_job(rng, n, k, terms) for n in SCAN_N for k in range(SCAN_ORBITS)
             for terms in (3, 5)]
    jobs += [_entropy_job(rng, *s) for s in ENTROPY]
    jobs += _cli_jobs(rng)
    return jobs


def tour() -> None:
    """One small call into every traced layer, on fixed tiny inputs.

    A traced pass runs this next to its jobs, so that every per-layer time
    is a measured value on every workload: a workload that never enters a
    layer would otherwise report the same 0.0 s for it on every run.
    """
    p4 = presets.get_preset("somos4")
    st = tsystem.TStencil(p4.a)
    tsystem.check_orbit(tsystem.iterate_t(st, None, 2, mode="symbolic"))
    orb = tsystem.iterate_t(st, [1, 1, 1, 1], 16)
    zsystem.char_poly(zsystem.z_stencil_from_tuple(p4.a))
    ysystem.iterate_y(p4.a, [F(1)] * 4, 2)
    ysystem.qp1_iterate(F(2), F(3, 2), [F(1), F(1)], 2)
    ysystem.y_from_seed_dynamics(p4.matrix, [F(1)] * 4, 1)
    reduction.verify_conjugacy(p4.matrix, [F(1)] * 4, 2)
    reduction.verify_form_invariance(p4.matrix, [[F(2), F(3)]])
    analysis.relation_search(orb, (0, 1, 2), 2, 2)
    analysis.entropy_estimate(analysis.tropical_iterate(p4.a, [-1, 0, 0, 0], 16))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["zsys", "--preset", "somos4"])


WORKLOADS = {"symbolic": symbolic, "orbit": orbit, "survey": survey}


def build(name: str, seed: int) -> list[Job]:
    """The job list of workload ``name`` with inputs drawn from ``seed``."""
    return WORKLOADS[name](random.Random(seed))
