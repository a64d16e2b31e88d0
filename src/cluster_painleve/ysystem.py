"""Coefficient dynamics: Y-system orbits, seed extraction, q-Painleve I.

The Y-system companion of an order-N bilinear stencil a is

    y_{n+N} y_n = prod_j (1 + y_{n+j})^{[-a_j]+} / prod_j (1 + 1/y_{n+j})^{[a_j]+},

a subtraction-free recurrence on positive rationals.  Its solutions arise two
ways that this module cross-checks: from coefficient-free (and coefficient-
carrying) x-orbits via the monomial substitution ybar_n = prod_j
x_{n+j}^{-a_j}, and from tropical-sign seed mutation along the cyclic node
schedule.  The q-Painleve I recurrence is the reduced order-2 flow with a
geometric coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .coprime import Pieces, add_exps
from .quiver import ExchangeMatrix, _pos, build_from_tuple, mutate_matrix, power_product
from .reduction import derive_uzsystem, iterate_usystem
from .tsystem import Orbit, check_orbit
from .zsystem import GeometricZ


class NonPositiveInitial(ValueError):
    pass


class NonPositiveParameter(ValueError):
    pass


class InsufficientWindow(ValueError):
    pass


def _check_positive(values: Sequence[Fraction], what: str) -> list[Fraction]:
    out = [Fraction(v) for v in values]
    if any(v <= 0 for v in out):
        raise NonPositiveInitial(f"{what} must be strictly positive")
    return out


def y_step(a: Sequence[int], window: Sequence[Fraction]) -> Fraction:
    """RHS of the Y-system for one window y_{n+1}..y_{n+N-1}."""
    one = Fraction(1)
    num = power_product([1 + y for y in window], [_pos(-aj) for aj in a], one)
    den = power_product([1 + one / y if aj > 0 else one for y, aj in zip(window, a)],
                        [_pos(aj) for aj in a], one)
    return num / den


def iterate_y(a: Sequence[int], init: Sequence[Fraction], steps: int) -> list[Fraction]:
    """Append `steps` values to a positive initial window of length N.

    With y_{n+j} = a_j / b_j in lowest terms and s_j = a_j + b_j,
    1 + y = s/b and 1 + 1/y = s/a, so y_{n+N} = prod_j s_j^m_j a_j^p_j d /
    (prod_j s_j^p_j b_j^m_j c) for y_n = c/d, p_j = [a_j]+, m_j = [-a_j]+.
    Each value and its s are exponent dicts over one `coprime.Pieces`
    store; s is one new piece, coprime to every piece of its value.
    """
    a = tuple(int(v) for v in a)
    n_ = len(a) + 1
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    ys = _check_positive(init, "initial y window")
    if len(ys) != n_:
        raise ValueError(f"initial window must have {n_} entries")
    exps = [(j, _pos(aj), _pos(-aj)) for j, aj in enumerate(a, start=1) if aj]
    store = Pieces()
    reps: list[dict[int, int]] = []  # y_k as piece exponents
    sums: list[dict[int, int]] = []  # its numerator plus denominator

    def push(y, rep):
        reps.append(rep)
        sums.append(store.new(y.numerator + y.denominator, rep))

    for y in ys:
        push(y, store.of(y))
    for n in range(steps):
        rep: dict[int, int] = {}
        for j, p, m in exps:
            add_exps(rep, sums[n + j], m - p)
            add_exps(rep, reps[n + j], p, m)
        add_exps(rep, reps[n], -1)
        y = store.build(1, rep, [*reps[n + 1:], *sums[n + 1:], rep])
        ys.append(y)
        push(y, rep)
    return ys


def ybar_from_orbit(a: Sequence[int], xorb: Orbit) -> list[Fraction]:
    """Monomial substitution ybar_n = prod_{j=1}^{N-1} x_{n+j}^{-a_j}."""
    a = tuple(int(v) for v in a)
    n_ = len(a) + 1
    if xorb.kind != "rational":
        raise ValueError("substitution needs a rational orbit")
    vals = xorb.values
    if len(vals) < n_:
        raise InsufficientWindow(f"orbit shorter than one window of {n_}")
    vals, exps = [Fraction(x) for x in vals], [-aj for aj in a]
    return [power_product(vals[n + 1:n + n_], exps, Fraction(1))
            for n in range(len(vals) - n_ + 1)]


def y_residual_ok(a: Sequence[int], ys: Sequence[Fraction], n: int) -> bool:
    """Does the Y-system hold exactly at index n of the sequence ys?"""
    n_ = len(a) + 1
    return ys[n + n_] * ys[n] == y_step(a, ys[n + 1 : n + n_])


def verify_tz_correspondence(a: Sequence[int], xorb: Orbit, steps: int) -> list[dict]:
    """Index-by-index: Y-system residual of ybar vs coefficient constraint.

    The orbit must carry its coefficient sequence and satisfy the bilinear
    recurrence with it (checked).  The two boolean columns of the report
    coincide at every index for any valid coefficient dynamics.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    a = tuple(int(v) for v in a)
    n_ = len(a) + 1
    if xorb.z is None:
        raise ValueError("orbit carries no coefficient sequence")
    if len(xorb.values) < 2 * n_ + steps - 1:
        raise InsufficientWindow(
            f"need at least {2 * n_ + steps - 1} orbit values for {steps} checks")
    if not check_orbit(xorb):
        raise ValueError("orbit does not satisfy its own recurrence")
    ybar = ybar_from_orbit(a, xorb)
    out = []
    for n in range(steps):
        y_ok = y_residual_ok(a, ybar, n)
        z_prod = power_product([xorb.z.value(n + j) if aj else 1
                                for j, aj in enumerate(a, start=1)], [-aj for aj in a])
        out.append({"n": n, "y_ok": y_ok, "z_ok": z_prod == 1})
    return out


def qp1_iterate(beta: Fraction, q: Fraction, init: Sequence[Fraction],
                steps: int) -> list[Fraction]:
    """y_{n+2} y_n = beta*q^n*(1 + y_{n+1}) / y_{n+1}^2 on positive data."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    beta, q = Fraction(beta), Fraction(q)
    if beta <= 0 or q <= 0:
        raise NonPositiveParameter("beta and q must be strictly positive")
    ys = _check_positive(init, "initial window")
    # the Somos-4 U-map U1^-1 + U1^-2 with Z_n = beta * q^n
    return iterate_usystem(derive_uzsystem(build_from_tuple((-1, 2, -1))), ys, steps,
                           GeometricZ(beta, q))


def z_from_qp1(ys: Sequence[Fraction]) -> list[Fraction]:
    """Coefficient extraction Z_n = y_{n+2} y_{n+1}^2 y_n / (1 + y_{n+1})."""
    return [ys[n + 2] * ys[n + 1] ** 2 * ys[n] / (1 + ys[n + 1])
            for n in range(len(ys) - 2)]


def y_from_seed_dynamics(b: ExchangeMatrix, y_init: Sequence[Fraction],
                         steps: int) -> list[Fraction]:
    """Extract the Y-system solution from mutating the matrix and its coefficients.

    Nodes are mutated cyclically 0, 1, 2, ...; the chain value y_n is the
    coefficient at node n mod N after n mutations (so the first N values are
    read off while the window slides past the seed).  Returns N + steps
    values, which satisfy the Y-system of the matrix's defining tuple.

    Mutation at k (`quiver.mutate_seed`) sends y_k to 1/y_k and each other
    y_j to y_j (1 + y_k^-sgn(b_kj))^-b_kj.  With y_k = p/q in lowest terms
    and s = p + q, 1 + 1/y_k = s/p and 1 + y_k = s/q.  Each coefficient is
    an exponent dict over one `coprime.Pieces` store, so a mutation is one
    new piece s, coprime to p and q, and exponent sums; only y_k, the value
    read off, is put in lowest terms.
    """
    n_ = b.n
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    ys = _check_positive(y_init, "seed coefficients")
    if len(ys) != n_:
        raise ValueError(f"seed needs {n_} coefficients")
    store = Pieces()
    reps = [store.of(y) for y in ys]  # the coefficients as piece exponents
    out = []
    for n in range(n_ + steps):
        k = n % n_
        y = store.build(1, reps[k], reps)
        out.append(y)
        if n == n_ + steps - 1:
            break
        s = store.new(y.numerator + y.denominator, reps[k])
        for j, bkj in enumerate(b.rows[k]):
            if bkj:
                # (s/p)^-bkj for bkj > 0, (s/q)^-bkj for bkj < 0
                add_exps(reps[j], s, -bkj)
                add_exps(reps[j], reps[k], _pos(bkj), _pos(-bkj))
        reps[k] = {p: -e for p, e in reps[k].items()}
        b = mutate_matrix(b, k)
    return out
