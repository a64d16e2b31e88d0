"""Independent references for the benchmark's correctness checks.

Nothing here calls ``cluster_painleve``: the recurrences, the Laurent
evaluation, the projection to the reduced variables and the lattice checks
are written out again from their definitions, so a wrong answer from the
package cannot also be the expected answer.  Polynomials are read through
their ``vars`` and ``terms`` (exponent tuple -> integer coefficient).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

P = 2 ** 61 - 1  # prime modulus of the cheap full-orbit re-checks


def _pos(v: int) -> int:
    return v if v > 0 else 0


def _monomial(values, exps) -> Fraction:
    out = Fraction(1)
    for v, e in zip(values, exps):
        if e:
            out *= v ** e
    return out


def bilinear_orbit(a, init, steps, z=None) -> list[Fraction]:
    """x[n+N] x[n] = Z[n] (prod x[n+j]^[a_j]+ + prod x[n+j]^[-a_j]+)."""
    n_ = len(a) + 1
    plus = [_pos(v) for v in a]
    minus = [_pos(-v) for v in a]
    xs = [Fraction(v) for v in init]
    for n in range(steps):
        w = xs[n + 1:n + n_]
        zn = 1 if z is None else z[n]
        xs.append(zn * (_monomial(w, plus) + _monomial(w, minus)) / xs[n])
    return xs


def residue(x: Fraction) -> int | None:
    """x mod P, or None when P divides the denominator."""
    d = x.denominator % P
    return None if d == 0 else x.numerator % P * pow(d, -1, P) % P


def bilinear_orbit_mod(a, init, steps, z=None) -> list[int] | None:
    """The bilinear recurrence run in the field of P elements; None if a
    value vanishes there (then only an exact comparison can decide)."""
    n_ = len(a) + 1
    plus = [_pos(v) for v in a]
    minus = [_pos(-v) for v in a]
    xs = [residue(Fraction(v)) for v in init]
    zs = [1] * steps if z is None else [residue(Fraction(v)) for v in z[:steps]]
    if None in xs or None in zs:
        return None
    for n in range(steps):
        w = xs[n + 1:n + n_]
        num = 1
        for v, e in zip(w, plus):
            num = num * pow(v, e, P) % P
        other = 1
        for v, e in zip(w, minus):
            other = other * pow(v, e, P) % P
        if xs[n] == 0:
            return None
        xs.append(zs[n] * (num + other) * pow(xs[n], -1, P) % P)
    return xs


def bilinear_ok(a, xs, z=None) -> bool:
    """Every value of an orbit against the recurrence, modulo P, falling
    back to the exact recurrence in the rare case P gets in the way."""
    n_ = len(a) + 1
    want = bilinear_orbit_mod(a, xs[:n_], len(xs) - n_, z)
    got = [residue(Fraction(v)) for v in xs]
    if want is None or None in got:
        return list(xs) == bilinear_orbit(a, xs[:n_], len(xs) - n_, z)
    return got == want


def y_ok(a, ys) -> bool:
    """The Y-system at every index, modulo P (exact fallback as above)."""
    n_ = len(a) + 1
    r = [residue(Fraction(v)) for v in ys]
    if None in r or 0 in r:
        return list(ys) == y_orbit(a, ys[:n_], len(ys) - n_)
    for n in range(len(ys) - n_):
        lhs, rhs = r[n + n_] * r[n] % P, 1
        for y, aj in zip(r[n + 1:n + n_], a):
            if aj > 0:
                lhs = lhs * pow(1 + pow(y, -1, P), aj, P) % P
            elif aj < 0:
                rhs = rhs * pow(1 + y, -aj, P) % P
        if lhs != rhs:
            return False
    return True


def y_orbit(a, init, steps) -> list[Fraction]:
    """y[n+N] y[n] = prod (1 + y[n+j])^[-a_j]+ / prod (1 + 1/y[n+j])^[a_j]+."""
    n_ = len(a) + 1
    ys = [Fraction(v) for v in init]
    for n in range(steps):
        num = den = Fraction(1)
        for y, aj in zip(ys[n + 1:n + n_], a):
            if aj < 0:
                num *= (1 + y) ** -aj
            elif aj > 0:
                den *= (1 + 1 / y) ** aj
        ys.append(num / den / ys[n])
    return ys


def constraint_sequence(a, init, count) -> list[Fraction]:
    """Coefficients solving prod_j Z[n+j]^(-a_j) = 1 from the first r entries.

    The exponent window is trimmed to its support; its last entry must be a
    unit, otherwise the sequence needs roots and is not rational.
    """
    e = [-v for v in a]
    support = [j for j, v in enumerate(e) if v]
    t = e[support[0]:support[-1] + 1]
    r, lead = len(t) - 1, t[-1]
    if lead not in (1, -1):
        raise ValueError("constraint with a non-unit leading exponent")
    zs = [Fraction(v) for v in init]
    while len(zs) < count:
        m = len(zs) - r
        zs.append(_monomial(zs[m:m + r], [-lead * tk for tk in t[:r]]))
    return zs


def evaluate(poly, point: dict) -> Fraction:
    """Value of a Laurent polynomial at nonzero rationals ``point[var]``."""
    values = [Fraction(point[v]) for v in poly.vars]
    cache: dict[tuple[int, int], Fraction] = {}
    total = Fraction(0)
    for exps, coef in poly.terms.items():
        term = Fraction(coef)
        for i, e in enumerate(exps):
            if e:
                key = (i, e)
                if key not in cache:
                    cache[key] = values[i] ** e
                term *= cache[key]
        total += term
    return total


def min_degrees(poly, index: int) -> int:
    """Minus the smallest exponent of variable ``index`` (the d-vector entry)."""
    return -min(e[index] for e in poly.terms)


def tropical(a, init, steps) -> list[int]:
    """Max-plus shadow X[n+N] = max(sum [a]+ X, sum [-a]+ X) - X[n]."""
    n_ = len(a) + 1
    xs = list(init)
    for m in range(steps):
        w = xs[m + 1:m + n_]
        up = sum(_pos(aj) * x for aj, x in zip(a, w))
        dn = sum(_pos(-aj) * x for aj, x in zip(a, w))
        xs.append(max(up, dn) - xs[m])
    return xs


def project(generator, xs, count) -> list[Fraction]:
    """U[m] = prod_j x[m+j]^v_j for m < count."""
    return [_monomial(xs[m:m + len(generator)], generator) for m in range(count)]


def rank(rows) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def unimodular_rows(rows) -> bool:
    """Do the rows span a saturated lattice (all Smith invariants equal 1)?

    Reduces by integer row and column operations to a diagonal and checks
    that each pivot is a unit.
    """
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    for t in range(nr):
        while True:
            entries = [(abs(m[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if m[i][j]]
            if not entries:
                return False  # dependent rows
            _, i0, j0 = min(entries)
            m[t], m[i0] = m[i0], m[t]
            for row in m:
                row[t], row[j0] = row[j0], row[t]
            p = m[t][t]
            clean = True
            for i in range(t + 1, nr):
                q = m[i][t] // p
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                clean &= m[i][t] == 0
            for j in range(t + 1, nc):
                q = m[t][j] // p
                if q:
                    for row in m:
                        row[j] -= q * row[t]
                clean &= m[t][j] == 0
            if clean:
                break
        if abs(m[t][t]) != 1:
            return False
    return True


def is_primitive(v) -> bool:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g == 1
