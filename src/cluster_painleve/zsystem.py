"""Multiplicative coefficient constraints and their log-linear solutions.

A bilinear lattice recurrence with a coefficient sequence Z_n admits the
Laurent/Y-substitution structure only when Z satisfies a multiplicative
constraint prod_j Z_{n+j}^{e_j} = 1 with exponents e_j read off the defining
tuple (e_j = -a_j).  Taking logs turns this into a linear difference
equation; its solutions are signed monomials in the initial data whose
exponent vectors follow the same linear recurrence.  This module builds the
constraint, iterates exponent tables exactly, recognizes the closed forms
that occur for the shipped systems, and analyzes the characteristic
polynomial (factorization, spectral radius).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .intlinalg import poly_div, poly_gcd


class ZeroTuple(ValueError):
    """All exponents vanish; no constraint to solve."""


class ZeroInitial(ValueError):
    pass


class AlgebraicZCase(ArithmeticError):
    """A requested value needs a fractional power of the initial data."""


# -- stencil ------------------------------------------------------------------


@dataclass(frozen=True)
class ZStencil:
    """Constraint prod_{j=1}^{N-1} Z_{n+j}^{exponents[j-1]} = 1.

    lo/hi bound the nonzero exponents (1-based offsets); the trimmed window
    determines a difference equation of order hi - lo for the Z-sequence.
    """

    exponents: tuple[int, ...]
    lo: int
    hi: int

    @property
    def order(self) -> int:
        return self.hi - self.lo

    @property
    def trimmed(self) -> tuple[int, ...]:
        return self.exponents[self.lo - 1 : self.hi]

    def constraint_text(self) -> str:
        num, den = [], []
        for j, e in enumerate(self.exponents, start=1):
            if e > 0:
                num.append(f"Z[n+{j}]" + (f"^{e}" if e > 1 else ""))
            elif e < 0:
                den.append(f"Z[n+{j}]" + (f"^{-e}" if e < -1 else ""))
        lhs = "*".join(num) if num else "1"
        if den:
            lhs += " / (" + "*".join(den) + ")"
        return lhs + " = 1"


def z_stencil_from_tuple(a: Sequence[int]) -> ZStencil:
    """Exponents e_j = -a_j with the zero tail trimmed to find the order."""
    e = tuple(-int(x) for x in a)
    support = [j for j, v in enumerate(e, start=1) if v != 0]
    if not support:
        raise ZeroTuple("tuple with empty support gives no constraint")
    return ZStencil(e, support[0], support[-1])


# -- characteristic polynomial ------------------------------------------------
# Small exact helpers on integer polynomials, coefficients ascending.


def _poly_normalize(p: Sequence[int]) -> tuple[int, ...]:
    """Primitive with a positive leading coefficient; (0,) for zero."""
    return poly_gcd((p,)) or (0,)


# Limits of the factor search, past which it raises ArithmeticError: the
# largest trial divisor when listing the divisors of a coefficient, and the
# trial factors tried in one factorization (10^4 take about 0.25 s of CPU).
DIVISOR_LIMIT = 10 ** 6
TRIAL_LIMIT = 10 ** 4


def _divisors(n: int) -> list[int]:
    """Positive divisors of |n| in increasing order ([] for 0)."""
    n = abs(n)
    if math.isqrt(n) > DIVISOR_LIMIT:
        raise ArithmeticError(f"factor search: the divisors of {n} need trial "
                              f"divisors past the DIVISOR_LIMIT of {DIVISOR_LIMIT}")
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


def _candidates(work: tuple[int, ...]):
    """Primitive trial factors of `work` (normalized, degree >= 1): the linear
    s*L - r with r | constant term and s | leading coefficient, then, from
    degree 3, the quadratics a2*L^2 + b*L + c0 with |b| at most the sum of
    the coefficient magnitudes, in order of a2, c0, sign of c0 and b.  Only
    quadratics whose values at L = 1 and L = -1 divide those of `work` are
    tried: a primitive factor must pass, and one with content g > 1 has its
    primitive part tried before it, at the smaller leading coefficient
    a2 / g."""
    leads = _divisors(work[-1])
    consts = _divisors(next(c for c in work if c != 0))
    for s in leads:
        for r in consts:
            for sign in (1, -1):
                yield _poly_normalize((-sign * r, s))
    if len(work) <= 3:
        return
    bound = sum(abs(c) for c in work)
    # L - 1 and L + 1 were tried above, so work(1) and work(-1) are nonzero;
    # b runs over the values v at L = 1 that divide work(1)
    work_at_one, work_at_minus_one = sum(work), sum(work[0::2]) - sum(work[1::2])
    values = sorted(x for d in _divisors(work_at_one) for x in (d, -d))
    for a2 in leads:
        for c0 in consts:
            for c0s in (c0, -c0):
                for v in values:
                    b = v - c0s - a2
                    at_minus_one = c0s - b + a2
                    if (abs(b) <= bound and at_minus_one
                            and work_at_minus_one % at_minus_one == 0):
                        yield _poly_normalize((c0s, b, a2))


def _squarefree_part(p: tuple[int, ...]) -> tuple[int, ...]:
    # p / gcd(p, p'), then primitive; the quotient is integral since the gcd
    # is primitive (Gauss's lemma)
    quo = poly_div(p, poly_gcd((p, [k * p[k] for k in range(1, len(p))])))
    if quo is None:
        raise ArithmeticError("squarefree part: polynomial gcd left a remainder")
    return _poly_normalize(quo)


def factor_over_integers(p: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """Peel degree-1 and degree-2 integer factors; split the leftover into
    squarefree factors, each with its multiplicity.

    Good enough for the low-degree reciprocal polynomials that arise from
    palindromic constraint stencils; not a general factorization routine.
    Every factor is squarefree, but a leftover one need not be irreducible.
    """
    work = _poly_normalize(p)
    factors: dict[tuple[int, ...], int] = {}
    trials = 0
    while len(work) > 1:
        for cand in _candidates(work):
            trials += 1
            if trials > TRIAL_LIMIT:
                raise ArithmeticError(f"factor search: more than the TRIAL_LIMIT of "
                                      f"{TRIAL_LIMIT} trial factors")
            quo = poly_div(work, cand)
            if quo is not None:
                factors[cand] = factors.get(cand, 0) + 1
                work = _poly_normalize(quo)
                break
        else:
            break
    # no small factor divides what is left.  Its squarefree part sf holds each
    # factor once; those that occur exactly m times are gone from work / sf.
    m, sf = 1, _squarefree_part(work)
    while len(work) > 1:
        work = poly_div(work, sf)
        nxt = _squarefree_part(work)
        once = poly_div(sf, nxt)
        if len(once) > 1:
            factors[once] = factors.get(once, 0) + m
        sf, m = nxt, m + 1
    return sorted(factors.items(), key=lambda kv: (len(kv[0]), kv[0]))


def format_poly(p: Sequence[int]) -> str:
    """Ascending integer coefficients as text in L, leading term first."""
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        term = "L" + (f"^{k}" if k > 1 else "") if k else ""
        mag = abs(c)
        lead = "" if (mag == 1 and k) else str(mag)
        parts.append(("- " if c < 0 else "+ " if parts else "") + (lead + term).strip())
    return " ".join(parts) or "0"


@dataclass(frozen=True)
class CharPoly:
    coeffs: tuple[int, ...]  # ascending, primitive, leading > 0
    factors: tuple[tuple[tuple[int, ...], int], ...]

    def format_text(self) -> str:
        pieces = []
        for f, m in self.factors:
            s = "(" + format_poly(f) + ")"
            if m > 1:
                s += f"^{m}"
            pieces.append(s)
        return "".join(pieces)


def char_poly(st: ZStencil) -> CharPoly:
    """Characteristic polynomial of the log-linearized constraint recurrence."""
    coeffs = _poly_normalize(st.trimmed)
    return CharPoly(coeffs, tuple(factor_over_integers(coeffs)))


def factor_roots(cp: CharPoly) -> list[list[tuple[float, float]]]:
    """The complex roots of each factor of ``cp`` as (re, im) floats, found
    at 30 digits; ArithmeticError when a root search does not converge."""
    import mpmath
    from mpmath.libmp import NoConvergence

    out = []
    with mpmath.workdps(30):
        for f, _ in cp.factors:
            try:
                roots = mpmath.polyroots([int(c) for c in reversed(f)])
            except NoConvergence as exc:
                raise ArithmeticError(f"the roots of {format_poly(f)} did not converge") from exc
            out.append([(float(mpmath.re(r)), float(mpmath.im(r))) for r in roots])
    return out


def spectral_radius(roots: list[list[tuple[float, float]]]) -> float:
    """Largest modulus of the roots of `factor_roots`, 0.0 when there are none."""
    return max((abs(complex(re, im)) for block in roots for re, im in block), default=0.0)


# -- Z-sequences ---------------------------------------------------------------
# Each sequence has `symbols`, `bound` (the symbol values, or None while
# unbound), `value(n)` and `monomial(n)`: the integer exponents of Z_n over
# `symbols`, so Z_n = prod(bound[i] ** exps[i]) once bound, or None when entry
# n has no integral monomial form.  Symbolic orbits and the integer path of
# rational orbits read Z_n through `monomial`.


class ConstantZ:
    """Z_n = c for all n (default c = 1, the coefficient-free case)."""

    symbols: tuple[str, ...] = ()
    bound: tuple[Fraction, ...] = ()

    def __init__(self, c: Fraction | int = 1):
        self.c = Fraction(c)
        if self.c == 0:
            raise ZeroInitial("constant coefficient must be nonzero")

    def value(self, n: int) -> Fraction:
        return self.c

    def monomial(self, n: int) -> tuple[int, ...] | None:
        return () if self.c == 1 else None


class GeometricZ:
    """Z_n = beta * q^n; symbolic over ("beta", "q") or numeric when bound."""

    symbols = ("beta", "q")

    def __init__(self, beta: Fraction | None = None, q: Fraction | None = None):
        if (beta is None) != (q is None):
            raise ValueError("bind both beta and q or neither")
        if beta is not None and (beta == 0 or q == 0):
            raise ZeroInitial("beta and q must be nonzero")
        self.beta = Fraction(beta) if beta is not None else None
        self.q = Fraction(q) if q is not None else None
        self.bound = None if beta is None else (self.beta, self.q)

    def value(self, n: int) -> Fraction:
        if self.beta is None:
            raise ValueError("unbound symbolic sequence has no rational values")
        return self.beta * self.q ** n

    def monomial(self, n: int) -> tuple[int, ...]:
        return 1, n


class PerturbedZ:
    """Wrap another sequence, multiplying finitely many entries by factors."""

    def __init__(self, base, factors: dict[int, Fraction]):
        self.base = base
        self.factors = {int(k): Fraction(v) for k, v in factors.items()}
        self.symbols = base.symbols
        self.bound = base.bound

    def value(self, n: int) -> Fraction:
        f = self.factors.get(n, Fraction(1))
        return self.base.value(n) * f

    def monomial(self, n: int) -> tuple[int, ...] | None:
        return None if n in self.factors else self.base.monomial(n)


@dataclass
class ZSolution:
    """Monomial solution of a constraint stencil.

    Entry n is prod_i S_i^{table[n][i]} over the initial symbols S_0..S_{r-1}
    (bound to the rational values `bound` when it is not None).  Tables grow on
    demand.  Each exponent is an exact int where the division by the leading
    exponent comes out even (always, when that exponent is +-1) and a
    Fraction with denominator > 1 only where it does not, so `monomial`
    hands out the stored int tuples.
    """

    stencil: ZStencil
    symbols: tuple[str, ...]
    bound: tuple[Fraction, ...] | None
    closed_form: dict | None
    _tables: list[tuple[int | Fraction, ...]] = field(default_factory=list)

    @property
    def order(self) -> int:
        return self.stencil.order

    def _extend_to(self, n: int) -> None:
        e = self.stencil.trimmed
        r = self.order
        lead = e[r]
        while len(self._tables) <= n:
            m = len(self._tables) - r
            acc = [0] * r
            for k in range(r):
                ek = e[k]
                if ek:
                    row = self._tables[m + k]
                    for i in range(r):
                        acc[i] -= ek * row[i]
            self._tables.append(tuple(_exact_quotient(x, lead) for x in acc))

    def exponents(self, n: int) -> tuple[int | Fraction, ...]:
        if n < 0:
            raise IndexError("negative indices not tracked")
        self._extend_to(n)
        return self._tables[n]

    def monomial(self, n: int) -> tuple[int, ...] | None:
        exps = self.exponents(n)
        if any(type(e) is Fraction for e in exps):
            return None
        return exps

    def value(self, n: int) -> Fraction:
        if self.bound is None:
            raise ValueError("no initial values bound")
        out = Fraction(1)
        for base, exp in zip(self.bound, self.exponents(n)):
            if exp.denominator != 1:
                root = _exact_fraction_root(base, exp.denominator)
                if root is None:
                    raise AlgebraicZCase(
                        f"entry {n} needs a root of degree {exp.denominator} of {base}")
                base, exp = root, Fraction(exp.numerator)
            out *= base ** int(exp)
        return out

    def degree(self, n: int) -> int | Fraction:
        """Total monomial degree |numerator| + |denominator| at entry n."""
        return sum(abs(e) for e in self.exponents(n))


def _exact_quotient(x: int | Fraction, lead: int) -> int | Fraction:
    """x / lead as an int when it is one, else as a Fraction."""
    if type(x) is int:
        q, rem = divmod(x, lead)
        return Fraction(x, lead) if rem else q
    q = x / lead
    return q.numerator if q.denominator == 1 else q


def _exact_int_root(m: int, k: int) -> int | None:
    """The k-th root of m >= 0 when m is a perfect k-th power, else None."""
    if m < 2:
        return m
    if k >= m.bit_length():
        return None  # 1 < m^(1/k) < 2
    if k == 2:
        r = math.isqrt(m)
    else:
        # integer Newton from above; the sequence falls to floor(m^(1/k))
        r = 1 << -(-m.bit_length() // k)
        while True:
            s = ((k - 1) * r + m // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
    return r if r ** k == m else None


def _exact_fraction_root(x: Fraction, k: int) -> Fraction | None:
    if x < 0:
        return None
    pn, pd = _exact_int_root(x.numerator, k), _exact_int_root(x.denominator, k)
    if pn is None or pd is None:
        return None
    return Fraction(pn, pd)


def _recognize_closed_form(st: ZStencil) -> dict | None:
    t = st.trimmed
    r = st.order
    if t == (1, -2, 1):
        return {"family": "geometric", "note": "Z_n = beta * q^n"}
    if r >= 3 and t == (1, -1) + (0,) * (r - 3) + (-1, 1):
        return {
            "family": "periodic_geometric",
            "period": r - 1,
            "note": "Z_n = beta_n * q^n with beta periodic",
        }
    if r >= 2 and t == (1,) + (0,) * (r - 1) + (1,):
        return {
            "family": "antiperiodic",
            "period": 2 * r,
            "note": "Z_{n+%d} = 1/Z_n" % r,
        }
    return None


def solve_z(st: ZStencil, init: Sequence[Fraction] | None = None) -> ZSolution:
    """Solve the constraint as exact exponent tables over the initial window.

    `init` holds the rational values to bind, one per symbol, or is None for
    a purely symbolic solution.  A leading exponent of magnitude > 1 makes
    exponents fractional: `ZSolution.value` then takes the positive rational
    root, or raises AlgebraicZCase when there is none.
    """
    r = st.order
    values: tuple[Fraction, ...] | None = None
    if init is not None:
        values = tuple(Fraction(v) for v in init)
        if len(values) != r:
            raise ValueError(f"stencil needs {r} initial entries, got {len(values)}")
        if any(v == 0 for v in values):
            raise ZeroInitial("initial coefficient data must be nonzero")
    symbols = tuple(f"Z{i}" for i in range(r))
    sol = ZSolution(
        stencil=st,
        symbols=symbols,
        bound=values,
        closed_form=_recognize_closed_form(st),
        _tables=[tuple(int(i == m) for i in range(r)) for m in range(r)],
    )
    cf = sol.closed_form
    if cf is not None and cf["family"] == "periodic_geometric":
        # the stencil polynomial is (1 - L)(1 - L^p), so d_m = e_{m+p} - e_m
        # has (1 - L) d = 0: every d_m is d_0, the exponents of q^period
        p = cf["period"]
        cf["ratio_power_vector"] = tuple(
            x - y for x, y in zip(sol.exponents(p), sol.exponents(0)))
    return sol


def exponent_degree_sequence(sol: ZSolution, count: int) -> list[int]:
    """Integer degree growth of the solution monomials (raises if fractional)."""
    out = []
    for n in range(count):
        d = sol.degree(n)
        if d.denominator != 1:
            raise AlgebraicZCase("fractional exponents have no integer degree")
        out.append(int(d))
    return out
