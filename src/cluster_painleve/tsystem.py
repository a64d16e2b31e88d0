"""Bilinear lattice recurrences: exact rational and Laurent-symbolic orbits.

The central object is the order-N recurrence

    x_{n+N} x_n = Z_n * ( prod_j x_{n+j}^{[a_j]+} + prod_j x_{n+j}^{[-a_j]+} )

for a palindromic integer tuple a = (a_1,...,a_{N-1}) and a coefficient
sequence Z_n (identically 1 in the coefficient-free case).  Symbolic
iteration certifies the Laurent property step by step: every division must
come out exact in the Laurent ring, otherwise the iterate is rejected.

Rational iteration writes x_n = N_n / M_n with N_n a signed integer and
M_n = prod c^e over the pairwise coprime base C of the numerators and
denominators of the initial window and the bound coefficient values
(`coprime.coprime_base`), so each step is one exact integer division
(`coprime.int_divmod`, subquadratic past 9,000-bit divisors).  A zero
remainder proves the step.  From the first step with a remainder, or whose
Z_n has no integral monomial form (`monomial` and `bound` in `zsystem`),
the orbit goes on in plain Fraction arithmetic, the only path for
non-Laurent data.

The exponents of M_n follow the max-plus (tropical) shadow of the
recurrence, one coordinate per c, in which a value weighs its exponent of
c.  The shadow is the tropicalisation of a subtraction-free recurrence
(Fomin and Zelevinsky, "Cluster algebras IV", Compositio 143, 2007), and
at any weight w on the initial variables and Z's symbols it gives the
least <m, w> over the monomials m of the Laurent polynomial L_n of x_n:
L_n has positive coefficients, so a sum does not cancel; a product adds
the minima, because Z[x^±] is a domain; an exact quotient subtracts them.
With w the exponents of c, for each c, every term of L_n at the data is an
integer over M_n, so x_n M_n is an integer.  Correctness never rests on
this: the remainder test proves each step and the lowest-terms step always
runs, so a bound too small only hands over to Fraction steps early and one
too large only costs a gcd.

M_n is a numerator part (e < 0) over a denominator part (e > 0).  Both,
and the scales that bring the exchange's two products to one denominator,
are carried from step to step by their changed exponents.  A value is in
lowest terms once N_n is divided by its gcd with c^e for each denominator
element c that shares a factor with it, which one residue of N_n decides
(the argument is in `coprime`).  As the shadow is exact, that happens only
where the terms of L_n of least weight sum to a multiple of c, rarely for
a large c.

Symbolic iteration runs in the coordinates of the lattice L = im B, the
saturated image of the exchange matrix, on its palindromic basis: the
shifts s^i(v), i < r, of one palindromic vector v
(`quiver.palindromic_basis`).  By the separation formula of Fomin and
Zelevinsky (Cluster algebras IV, 2007) every iterate is x^{g_n} P_n(U, z)
with U_i = x^{s^i v}, Z's symbols z and P_n a Laurent polynomial in r + |z|
variables.  The ring Z[x^±, z^±] is graded by Z^N / L with z in degree 0,
and every exchange relation is homogeneous, so the two monomials of step n
differ by x^d with d = sum_j a_j g_{n+j} in L; its coordinates c in the
basis (`PalindromicBasis.coordinates`) give

    P_{n+N} = Z_n (U^c P_+ + P_-) / P_n,    g_{n+N} = g_- - g_n,

with P_± the products of the window's P over the exponents [±a_j]+ and g_±
the matching sums of its g.
Since L is saturated, Z^N / L is torsion-free, hence orderable, and a
quotient of homogeneous elements of a graded domain over such a group is
homogeneous: if x^{g_n} P_n divides the numerator in the Laurent ring of x
and z, the quotient has degree g_- - g_n and so lies in x^{g_- - g_n}
Z[U^±, z^±].  The division in U therefore certifies exactly what the
division in x certifies, and fails at the same step.  Each value is lifted
to x once, by `laurent.monomial_map`.  For somos4, v = (1, -2, 1, 0) and
x_4 = x_0^{-1} x_1 x_3 (1 + U_1^{-1}).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod
from typing import Sequence

from .coprime import _from_coprime_ints, coprime_base, int_divmod
from .intlinalg import residue
from .laurent import LaurentPoly, format_rational, laurent_try_div, monomial_map, parse_rational
from .quiver import NotPalindromic, _pos, build_from_tuple, palindromic_basis, power_product
from .zsystem import AlgebraicZCase, ConstantZ


class NonLaurentIterate(ArithmeticError):
    """A symbolic division left a remainder; the iterate is not Laurent."""


class ZeroEncountered(ArithmeticError):
    pass


class TermBudgetExceeded(ArithmeticError):
    """A symbolic iterate has more terms than the ``max_terms`` budget."""


@dataclass(frozen=True)
class TStencil:
    """Palindromic exponent tuple a; defines an order len(a)+1 recurrence."""

    a: tuple[int, ...]

    def __post_init__(self):
        a = tuple(int(v) for v in self.a)
        object.__setattr__(self, "a", a)
        if a != a[::-1]:
            raise NotPalindromic(f"tuple {a} is not palindromic")

    @property
    def n(self) -> int:
        return len(self.a) + 1

    @property
    def plus_exponents(self) -> tuple[int, ...]:
        return tuple(_pos(v) for v in self.a)

    @property
    def minus_exponents(self) -> tuple[int, ...]:
        return tuple(_pos(-v) for v in self.a)


@dataclass
class Orbit:
    """Values x_0, x_1, ... of a stencil run; rational or Laurent-valued.

    A rational orbit also keeps the residues of the values read through
    `residue`, outside equality, repr and `to_json`.
    """

    stencil: TStencil
    kind: str  # "rational" | "symbolic"
    values: list
    z: object | None = None
    variables: tuple[str, ...] | None = None
    _residues: list = field(default_factory=list, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.values)

    def residue(self, n: int) -> int | None:
        """x_n modulo `intlinalg.P`, or None when P divides its denominator.

        Computed once per value: the entry keeps the value it came from and
        is recomputed when `values[n]` is no longer that object, so a caller
        who edits, truncates or extends `values` never reads a stale residue.
        A negative n counts from the end, as it does in `values`.
        """
        v, cache = self.values[n], self._residues
        if n < 0:
            n += len(self.values)
        if n >= len(cache):
            cache.extend([(None, None)] * (n + 1 - len(cache)))
        seen, r = cache[n]
        if seen is not v:
            r = residue(v)
            cache[n] = (v, r)
        return r

    def to_json(self) -> dict:
        if self.kind == "rational":
            vals = [format_rational(v) for v in self.values]
        else:
            vals = [v.to_json() for v in self.values]
        return {"stencil": list(self.stencil.a), "kind": self.kind, "values": vals}


def orbit_from_json(data: dict) -> Orbit:
    """Rebuild an orbit written by Orbit.to_json (coefficient data not kept)."""
    st = TStencil(tuple(int(v) for v in data["stencil"]))
    kind = data.get("kind", "rational")
    if kind == "rational":
        vals = [parse_rational(v) for v in data["values"]]
    elif kind == "symbolic":
        vals = [LaurentPoly.from_json(v) for v in data["values"]]
    else:
        raise ValueError(f"unknown orbit kind {kind!r}")
    variables = tuple(vals[0].vars) if kind == "symbolic" and vals else None
    return Orbit(st, kind, vals, None, variables)


def check_orbit(orb: Orbit, start: int = 0) -> bool:
    """Exact recurrence check at every index where the window is defined."""
    st = orb.stencil
    n_ = st.n
    z = orb.z if orb.z is not None else ConstantZ(1)
    vals = orb.values
    rational = orb.kind == "rational"
    one = Fraction(1) if rational else LaurentPoly.const(orb.variables, 1)
    for n in range(start, len(vals) - n_):
        w = vals[n + 1 : n + n_]
        rhs = power_product(w, st.plus_exponents, one) + power_product(w, st.minus_exponents, one)
        rhs = z.value(n) * rhs if rational else rhs.shift(_z_exponents(z, n, len(one.vars)))
        if vals[n + n_] * vals[n] != rhs:
            return False
    return True


def _z_exponents(z, n: int, width: int) -> tuple[int, ...]:
    """Z_n's exponents over ``width`` variables, of which Z's symbols are the last."""
    exps = z.monomial(n)
    if exps is None:
        raise AlgebraicZCase("symbolic iteration needs integer coefficient exponents")
    return (0,) * (width - len(exps)) + exps


def _rescale(m: int, old: list[int], new: list[int], base: list[int]) -> tuple[int, list[int]]:
    """m = prod base[i]^old[i] as prod base[i]^new[i], by the changed
    exponents; returned with `new`, the exponents to carry on."""
    up = down = 1
    for c, o, e in zip(base, old, new):
        if e > o:
            up *= c ** (e - o)
        elif e < o:
            down *= c ** (o - e)
    return m * up // down, new


def _integer_steps(st: TStencil, z, vals: list[Fraction], steps: int) -> int:
    """Append x_n = N_n / M_n to `vals` while each step divides exactly.

    An initial value x has N = sign(x) and M = prod c^-w over C, w the
    exponent of c in x; Z_n adds its exponents over C, and its sign to N.
    Returns the number of steps done: `steps`, or the first step whose
    division leaves a remainder or whose Z_n has no integral monomial form,
    from where the caller goes on in Fraction arithmetic.
    """
    n_ = st.n
    bound = z.bound
    if not steps or bound is None or 0 in bound:
        return 0
    variables = (*vals, *bound)  # x_0..x_{N-1}, then Z's symbol values
    base, factors = coprime_base([b for v in variables for b in (v.numerator, v.denominator)])
    weights = [[0] * len(base) for _ in variables]  # each variable's exponents over C
    for k, fac in enumerate(factors):  # a numerator, then its denominator
        for i, m in fac:
            weights[k // 2][i] += -m if k % 2 else m
    zweights = [(w, v < 0) for w, v in zip(weights[n_:], bound)]
    plus = [(j, e) for j, e in enumerate(st.plus_exponents, start=1) if e]
    minus = [(j, e) for j, e in enumerate(st.minus_exponents, start=1) if e]
    nums = [1 if v > 0 else -1 for v in vals]  # N over the sliding window
    degs = [[-d for d in w] for w in weights[:n_]]  # the exponents of M over C
    zero = [0] * len(base)
    # the scales of the exchange's two products and the numerator and
    # denominator parts of the last M, each with its exponents over C
    ca = cb = num = den = 1
    ca_exps = cb_exps = num_exps = den_exps = zero

    def side(exps):
        acc, deg = 1, zero
        for j, e in exps:
            acc *= nums[j] ** e
            deg = [a + e * d for a, d in zip(deg, degs[j])]
        return acc, deg

    for n in range(steps):
        zexp = z.monomial(n)
        if zexp is None:
            return n
        na, ua = side(plus)
        nb, ub = side(minus)
        top = [u if u > d else d for u, d in zip(ua, ub)]
        ca, ca_exps = _rescale(ca, ca_exps, [t - u for t, u in zip(top, ua)], base)
        cb, cb_exps = _rescale(cb, cb_exps, [t - d for t, d in zip(top, ub)], base)
        quo, rem = int_divmod(ca * na + cb * nb, nums[0])
        if rem:
            return n
        if not quo:
            raise ZeroEncountered(f"orbit value x_{n + n_} vanished")
        deg = [t - d for t, d in zip(top, degs[0])]
        for zk, (w, negative) in zip(zexp, zweights):
            if zk:
                deg = [d - zk * x for d, x in zip(deg, w)]
                if negative and zk % 2:
                    quo = -quo
        num, num_exps = _rescale(num, num_exps, [-d if d < 0 else 0 for d in deg], base)
        den, den_exps = _rescale(den, den_exps, [d if d > 0 else 0 for d in deg], base)
        # quo against the denominator part: one pass over quo, then a gcd
        # on quo only for the elements that share a factor with it
        n_out, d_out = quo, den
        modulus = prod(c for c, e in zip(base, den_exps) if e)
        r = quo % modulus
        if gcd(r, modulus) > 1:
            for c, e in zip(base, den_exps):
                if e and gcd(r % c, c) > 1:
                    # divmod gives the remainder the gcd with c^e starts
                    # from, and the cofactor when it is 0
                    ce = c ** e
                    q, rem = int_divmod(n_out, ce)
                    if not rem:
                        n_out, d_out = q, d_out // ce
                    else:
                        g = gcd(ce, rem)
                        n_out //= g
                        d_out //= g
        vals.append(_from_coprime_ints(n_out * num, d_out))
        nums = nums[1:] + [quo]
        degs = degs[1:] + [deg]
    return steps


def iterate_tz(st: TStencil, z, init: Sequence[Fraction] | None, steps: int,
               mode: str = "rational", max_terms: int = 10 ** 6) -> Orbit:
    """Append `steps` further values to the initial window.

    rational: exact Fraction arithmetic from a nonzero initial window.
    symbolic: start from generators x0..x{N-1} (plus the coefficient symbols)
    and certify each division exactly; NonLaurentIterate on failure.
    """
    n_ = st.n
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if mode == "rational":
        if init is None or len(init) != n_:
            raise ValueError(f"initial window must have {n_} entries")
        vals = [Fraction(v) for v in init]
        if any(v == 0 for v in vals):
            raise ZeroEncountered("initial window contains zero")
        one = Fraction(1)
        for n in range(_integer_steps(st, z, vals, steps), steps):
            w = vals[n + 1 : n + n_]
            num = z.value(n) * (
                power_product(w, st.plus_exponents, one)
                + power_product(w, st.minus_exponents, one))
            nxt = num / vals[n]
            if nxt == 0:
                raise ZeroEncountered(f"orbit value x_{n + n_} vanished")
            vals.append(nxt)
        return Orbit(st, "rational", vals, z)
    if mode != "symbolic":
        raise ValueError("mode must be 'rational' or 'symbolic'")
    return _symbolic(st, z, steps, max_terms)


def _symbolic(st: TStencil, z, steps: int, max_terms: int) -> Orbit:
    """Symbolic iterates as x^{g_n} P_n(U, z), lifted to x once each."""
    n_ = st.n
    basis = palindromic_basis(build_from_tuple(st.a))
    images, zsyms = basis.vectors, tuple(z.symbols)
    variables = tuple(f"x{i}" for i in range(n_)) + zsyms
    one = LaurentPoly.const(tuple(f"U{i}" for i in range(basis.rank)) + zsyms, 1)
    window = [one] * n_  # P over the sliding window
    g = [tuple(int(i == k) for i in range(n_)) for k in range(n_)]
    vals = [monomial_map(one, variables, images, gk) for gk in g]
    for n in range(steps):
        zexps = _z_exponents(z, n, len(one.vars))
        w, gw = window[1:], g[1:]
        # the two monomials of the exchange differ by x^d, d in im B
        c = basis.coordinates([sum(a * x[i] for a, x in zip(st.a, gw)) for i in range(n_)])
        num = (power_product(w, st.plus_exponents, one).shift(c + (0,) * len(zsyms))
               + power_product(w, st.minus_exponents, one))
        nxt = laurent_try_div(num, window[0])
        if nxt is None:
            raise NonLaurentIterate(
                f"x_{n + n_} is not a Laurent polynomial in the initial window")
        if nxt.n_terms() > max_terms:
            raise TermBudgetExceeded(
                f"x_{n + n_} exceeds the {max_terms}-term budget")
        nxt = nxt.shift(zexps)
        gnext = tuple(sum(e * x[i] for e, x in zip(st.minus_exponents, gw)) - g[0][i]
                      for i in range(n_))
        vals.append(monomial_map(nxt, variables, images, gnext))
        window, g = window[1:] + [nxt], g[1:] + [gnext]
    return Orbit(st, "symbolic", vals, z, variables)


def iterate_t(st: TStencil, init: Sequence[Fraction] | None, steps: int,
              mode: str = "rational", max_terms: int = 10 ** 6) -> Orbit:
    """Coefficient-free iteration (Z_n = 1)."""
    orb = iterate_tz(st, ConstantZ(1), init, steps, mode, max_terms)
    orb.z = None
    return orb
