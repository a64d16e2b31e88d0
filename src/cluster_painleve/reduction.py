"""Reduction of a rank-r exchange matrix to an order-r recurrence.

With v the generator of the palindromic basis of im B
(`quiver.palindromic_basis`), the monomial map
U_n = prod_j x_{n+j}^{v_{j+1}} intertwines the order-N bilinear recurrence
with an order-r recurrence U_{n+r} U_n = F(U_{n+1..n+r-1}) in the reduced
variables, carrying a log-canonical symplectic/presymplectic form.
This module eliminates the recurrence, and verifies the conjugacy, the
2-form invariance, and, exactly, the dilogarithm generating function of the
period-1 map.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import ClassVar, Sequence

from .coprime import Pieces, add_exps
from .intlinalg import invert_fraction, mat_mul, transpose
from .laurent import LaurentPoly
from .quiver import (EliminationFailed, ExchangeMatrix, PalindromicBasis, _pos, _sgn,
                     palindromic_basis, power_product)
from .tsystem import TStencil, iterate_tz
from .zsystem import ConstantZ


class ZeroComponent(ValueError):
    pass


class SingularPoint(ValueError):
    pass


class ZeroRank(ValueError):
    pass


def project(basis: PalindromicBasis, window: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Monomial projection of one x-window to the reduced torus."""
    if len(window) != basis.n:
        raise ValueError(f"window must have {basis.n} entries")
    xs = [Fraction(x) for x in window]
    if any(x == 0 for x in xs):
        raise ZeroComponent("window contains a zero component")
    return tuple(power_product(xs, vec, Fraction(1)) for vec in basis.vectors)


# -- reduced recurrences ---------------------------------------------------------


@dataclass(frozen=True)
class USystemSpec:
    """Order-r recurrence U_{n+r} U_n = Z_n * F(U_{n+1},...,U_{n+r-1}).

    F is stored as an exact Laurent polynomial over variables U1..U{r-1}
    (variable Uj stands for U_{n+j}), plus a canonical numerator/denominator
    split with a coefficient-1 monomial denominator.  The coefficient
    sequence enters only when z_flag is set, to the power z_power: 1, the
    leading entry of every generator.
    """

    a: tuple[int, ...]
    order: int
    generator: tuple[int, ...]
    variables: tuple[str, ...]
    f_laurent: LaurentPoly
    f_num: LaurentPoly
    f_den: LaurentPoly
    z_flag: bool
    z_power: ClassVar[int] = 1

    def basis(self) -> PalindromicBasis:
        return PalindromicBasis(len(self.a) + 1, self.order, self.generator)

    def format_text(self) -> str:
        lhs = f"U[n+{self.order}]*U[n]"
        num = f"{self.f_num}"
        if self.f_num.n_terms() > 1 and (self.z_flag or not self.f_den.is_one()):
            num = f"({num})"
        rhs = num if self.f_den.is_one() else f"{num} / ({self.f_den})"
        z = "Z[n] * " if self.z_flag else ""
        return f"{lhs} = {z}{rhs}"


def _derive(b: ExchangeMatrix, z_flag: bool) -> USystemSpec:
    basis = palindromic_basis(b)
    r = basis.rank
    if r == 0:
        raise ZeroRank("zero matrix has no reduced recurrence")
    v = basis.generator
    a = b.first_row_tuple()

    # x_N = (x^+ + x^-) / x_0 in U_{n+r} U_n = x^w, whose top entry is
    # v[0] = 1: F is x^(w + plus) + x^(w + minus), w[0] lowered by 1
    w = [x + y for x, y in zip(v, (0,) * r + v)]  # v + s^r v without w[N]
    w[0] -= 1
    st = TStencil(a)
    uvars = tuple(f"U{j}" for j in range(1, r))
    terms: dict[tuple[int, ...], int] = {}
    for part in (st.plus_exponents, st.minus_exponents):
        exps = tuple(x + p for x, p in zip(w, (0,) + part))
        sol = basis.coordinates(exps)
        if sol is None:
            raise EliminationFailed(f"monomial {exps} is not a product of reduced variables")
        # sol[0] = c_0 = exps[0] = w[0] = 0: F does not depend on U_n
        key = tuple(sol[1:])
        terms[key] = terms.get(key, 0) + 1
    f = LaurentPoly(uvars, terms)
    den_exps = tuple(max(0, -f.min_exponent(i)) for i in range(len(uvars)))
    f_num = f.shift(den_exps)
    f_den = LaurentPoly.monomial(uvars, den_exps, 1)
    return USystemSpec(a, r, v, uvars, f, f_num, f_den, z_flag)


def derive_usystem(b: ExchangeMatrix) -> USystemSpec:
    """Coefficient-free reduced recurrence of the matrix's bilinear system."""
    return _derive(b, z_flag=False)


def derive_uzsystem(b: ExchangeMatrix) -> USystemSpec:
    """Reduced recurrence carrying the coefficient sequence Z_n."""
    return _derive(b, z_flag=True)


def iterate_usystem(spec: USystemSpec, init: Sequence[Fraction], steps: int,
                    z=None) -> list[Fraction]:
    """Append `steps` values of U_{n+r} U_n = Z_n F(U_{n+1}, ..., U_{n+r-1}).

    F = sum_t c_t prod_j U_j^e_tj is given by its terms {e_t: c_t}.  With
    U_{n+j} = a_j / b_j in lowest terms and lo_j, hi_j the lowest and top
    exponent of U_j in F, F = Ph * prod_j a_j^lo_j b_j^-hi_j where
    Ph = sum_t c_t prod_j a_j^(e_tj - lo_j) b_j^(hi_j - e_tj) is the
    homogenised numerator.  Each value is an exponent dict over one
    `coprime.Pieces` store, and Ph is one new piece a step.  Z_n (to the
    power `spec.z_power`, which is 1) enters as the pieces of its bound
    bases, zip(z.bound, z.monomial(n)), and as the one value z.value(n)
    where `bound` or `monomial(n)` is None; a base reused from the step
    before keeps its pieces.  A zero in the window raises what
    `LaurentPoly.evaluate` and Fraction division raised there.
    """
    r = spec.order
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    us = [Fraction(u) for u in init]
    if len(us) != r:
        raise ValueError(f"initial window must have {r} entries")
    if any(u == 0 for u in us):
        raise ZeroComponent("initial window contains zero")
    if spec.z_flag and z is None:
        raise ValueError("recurrence carries a coefficient sequence; pass z")
    if not spec.z_flag and z is not None:
        raise ValueError("recurrence carries no coefficient sequence; z would be ignored")
    terms = spec.f_laurent.terms
    items = list(terms.items())
    lo = [min(e[j] for e, _ in items) for j in range(r - 1)]
    hi = [max(e[j] for e, _ in items) for j in range(r - 1)]
    powers = [(c, [(j + 1, k - l, h - k) for j, (k, l, h) in enumerate(zip(e, lo, hi))])
              for e, c in items]
    if r == 2:
        # Ph = c_lo b^D mod a and c_hi a^D mod b, so Ph is coprime to a and b
        # when c_lo and c_hi are; that is decided per step
        c_lo, c_hi = terms[(lo[0],)], terms[(hi[0],)]
    store = Pieces()
    reps = [store.of(u) for u in us]  # U_k as piece exponents
    zf: list[tuple[Fraction, int]] = []  # Z_n as (base, exponent) pairs
    zreps: dict[Fraction, dict[int, int]] = {}
    for n in range(steps):
        w = us[n:n + r]
        a = [u.numerator for u in w]
        b = [u.denominator for u in w]
        if 0 in a and any(a[j] == 0 and lo[j - 1] < 0 for j in range(1, r)):
            raise ZeroDivisionError("negative exponent at zero value")
        if z is not None:
            exps = None if z.bound is None else z.monomial(n)
            zf = [(z.value(n), 1)] if exps is None else list(zip(z.bound, exps))
        zreps = {zb: zreps[zb] if zb in zreps else store.of(zb) for zb, _ in zf}
        ph = 0
        for c, pw in powers:
            t = c
            for j, ka, kb in pw:
                t *= a[j] ** ka * b[j] ** kb
            ph += t
        sign = _sgn(ph)
        for zb, e in zf:
            # a solved exponent may be negative: the parity gives the sign
            sign *= _sgn(zb) ** (e % 2)
        for j in range(1, r):
            sign *= _sgn(a[j]) ** abs(lo[j - 1])
        if a[0] == 0:
            # Fraction's division by 0/1 cancels gcd(numerator, 0) first, so
            # its message carries only the sign of Z_n * F
            raise ZeroDivisionError(f"Fraction({sign}, 0)")
        window = reps[n + 1:]
        rep = {}
        if sign:
            seed = window[0] if r == 2 and gcd(c_lo, a[1]) == 1 == gcd(c_hi, b[1]) else ()
            rep = store.new(abs(ph), seed)
            for zb, e in zf:
                add_exps(rep, zreps[zb], e)
            for j in range(1, r):
                add_exps(rep, reps[n + j], lo[j - 1], hi[j - 1])
            add_exps(rep, reps[n], -1)
        us.append(store.build(sign * _sgn(a[0]), rep, [*window, *zreps.values(), rep]))
        reps.append(rep)
    return us


def verify_conjugacy(b: ExchangeMatrix, init: Sequence[Fraction], steps: int,
                     z=None) -> bool:
    """Does projection of the order-N orbit equal direct reduced iteration?"""
    spec = derive_uzsystem(b) if z is not None else derive_usystem(b)
    basis = spec.basis()
    n, r = basis.n, basis.rank
    xorb = iterate_tz(TStencil(spec.a), ConstantZ(1) if z is None else z, init, steps + r)
    # the window at m projects to U_m, ..., U_{m+r-1}
    projected = [u for m in range(0, steps + r, r)
                 for u in project(basis, xorb.values[m:m + n])][:steps + r]
    direct = iterate_usystem(spec, projected[:r], steps, z=z)
    return direct == projected


# -- log-canonical 2-form -------------------------------------------------------


def reduced_structure_matrix(b: ExchangeMatrix, basis: PalindromicBasis) -> list[list[Fraction]]:
    """Unique skew matrix C with V^T C V = B, where V stacks the basis rows.

    C gives the reduced 2-form sum_{i<j} C_ij dlogU_i ^ dlogU_j whose pullback
    is the quiver's log-canonical form.  The rows of B lie in im B, which the
    basis spans over Z, so B = K V with row i of K the coordinates of B's
    row i.  V has full row rank, so V^T C V = K V gives V^T C = K, and since
    C is skew, C V = -K^T: row i of C is the coordinates of minus column i
    of K.  Both solves are exact (`PalindromicBasis.coordinates` checks that
    the trailing columns vanish), so when both succeed V^T C V = B and C is
    skew.  The coordinates are integers, so C is integral; a basis that does
    not span B's rows raises.
    """
    def solve(rows):
        out = [basis.coordinates(row) for row in rows]
        if None in out:
            raise EliminationFailed("2-form does not push down exactly")
        return out

    k = solve(b.rows)
    c = solve([[-row[i] for row in k] for i in range(basis.rank)])
    return [[Fraction(x) for x in row] for row in c]


def _phase_map(spec: USystemSpec, u: Sequence[Fraction]) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Coefficient-free shift map on the reduced torus and its Jacobian."""
    r = spec.order
    if any(x == 0 for x in u):
        raise SingularPoint("zero coordinate")
    env = {f"U{j}": u[j] for j in range(1, r)}
    fval = spec.f_laurent.evaluate(env)
    last = fval / u[0]
    if last == 0:
        raise SingularPoint("image leaves the torus (F vanishes)")
    image = list(u[1:]) + [last]
    jac = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r - 1):
        jac[i][i + 1] = Fraction(1)
    jac[r - 1][0] = -fval / u[0] ** 2
    for j in range(1, r):
        jac[r - 1][j] = spec.f_laurent.partial(f"U{j}").evaluate(env) / u[0]
    return image, jac


def symplectic_form_at(c: list[list[Fraction]], u: Sequence[Fraction]) -> list[list[Fraction]]:
    r = len(c)
    return [[c[i][j] / (u[i] * u[j]) for j in range(r)] for i in range(r)]


def verify_form_invariance(b: ExchangeMatrix, points: Sequence[Sequence[Fraction]]) -> bool:
    """Exact check J^T Omega(phi(U)) J = Omega(U) at each supplied point."""
    spec = derive_usystem(b)
    basis = spec.basis()
    c = reduced_structure_matrix(b, basis)
    r = spec.order
    for point in points:
        u = [Fraction(x) for x in point]
        if len(u) != r:
            raise ValueError(f"points live on the {r}-torus")
        image, jac = _phase_map(spec, u)
        pulled = mat_mul(mat_mul(transpose(jac), symplectic_form_at(c, image)), jac)
        if pulled != symplectic_form_at(c, u):
            return False
    return True


def poisson_bracket_matrix(c: list[list[Fraction]], u: Sequence[Fraction]) -> list[list[Fraction]]:
    """Inverse of the reduced 2-form at a point: {U_i, U_j} entries."""
    om = symplectic_form_at(c, u)
    inv = invert_fraction(om)
    if inv is None:
        raise SingularPoint("2-form is degenerate at this point")
    return inv


# -- dilogarithm generating function ---------------------------------------------


def _mono(n: int, *idx: int) -> tuple[int, ...]:
    """Exponents over z_0..z_{n-1}, zeta (slot n) of the product of the slots."""
    e = [0] * (n + 1)
    for i in idx:
        e[i] += 1
    return tuple(e)


def _theta_pullback_minus_theta(b: ExchangeMatrix) -> list[Counter]:
    """2 T_i for i = 0..N-1, as exponent dicts over z_0..z_{N-1}, zeta: T_i is
    the coefficient of dz_i in s*theta - theta, for the shift s and
    theta = sum_{j<k} B_jk z_j dz_k.

    The exchange weight x^+ / (x^+ + x^-), with x^(+-) = exp(sum_k a_k^(+-) z_k),
    is zeta, so with s_N = sum_k B_{k-1,N-1} z_k the pullback adds
    s_N * (a_i^+ zeta + a_i^- (1 - zeta)) = s_N * (a_i^- + a_i zeta) to T_i
    for i >= 1, and -s_N to T_0.
    """
    n = b.n
    a = (0,) + b.first_row_tuple()
    rows = b.rows
    out = [Counter() for _ in range(n)]
    for i, t in enumerate(out):
        for j in range(i):
            t[_mono(n, j)] -= 2 * rows[j][i]
        for j in range(i - 1):
            t[_mono(n, j + 1)] += 2 * rows[j][i - 1]
        lo, hi = (-1, 0) if i == 0 else (_pos(-a[i]), a[i])
        for k in range(1, n):
            t[_mono(n, k)] += 2 * lo * rows[k - 1][n - 1]
            t[_mono(n, k, n)] += 2 * hi * rows[k - 1][n - 1]
    return out


def generating_function_check(b: ExchangeMatrix) -> bool:
    """Does dG = s*theta - theta hold exactly, for the dilogarithm generating
    function G = g0(z) + gl(zeta) of the shift s, in z_k = log x_k?

    A period-1 map is a cluster transformation, so it moves the 2-form's
    potential theta by a Rogers dilogarithm (Fock and Goncharov, "Cluster
    ensembles, quantization and the dilogarithm", Ann. Sci. ÉNS 42, 2009;
    Nakanishi, "Periodicities in cluster algebras and dilogarithm
    identities", 2011).  Here
      g0 = sum_{1<=j<k<N} a_j^- a_k z_j z_k + sum_j a_j z_j (a_j^- z_j / 2 - z_0),
    and the derivative of gl is elementary:
      arg = sum_k a_k z_k, zeta = 1 / (1 + e^(-arg)), A = log zeta, B = log(1 - zeta);
      gl = -Li2(zeta) - A B + B^2 / 2, so dgl/dzeta = (A - B) / (1 - zeta);
      A - B = arg, and dzeta/dz_i = a_i zeta (1 - zeta);
      so dgl/dz_i = a_i zeta arg, and the shift's exchange weight is zeta;
      dG = s*theta - theta is 2 dg0/dz_i + 2 a_i zeta arg = 2 T_i(z, zeta).
    The factor 2 keeps every coefficient an integer, and both sides lie in
    Z[z_0..z_{N-1}, zeta] with degree at most 2.  An identity in independent
    z and zeta gives the identity on zeta = 1 / (1 + e^(-arg)).  Conversely,
    when a = 0 neither side contains zeta, and otherwise zeta is
    transcendental over Q(z), so a failed comparison is a true failure.
    """
    n = b.n
    a = (0,) + b.first_row_tuple()
    names = [f"z{k}" for k in range(n)] + ["zeta"]
    g = Counter()
    for j in range(1, n):
        g[_mono(n, 0, j)] -= 2 * a[j]
        g[_mono(n, j, j)] += a[j] * _pos(-a[j])
        for k in range(j + 1, n):
            g[_mono(n, j, k)] += 2 * _pos(-a[j]) * a[k]
    two_g0 = LaurentPoly(names, g)
    for i, t in enumerate(_theta_pullback_minus_theta(b)):
        for k in range(1, n):
            t[_mono(n, k, n)] -= 2 * a[i] * a[k]
        if two_g0.partial(names[i]) != LaurentPoly(names, t):
            return False
    return True
