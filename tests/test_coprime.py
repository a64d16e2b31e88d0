"""Orbit values built in lowest terms, against the plain Fraction loops.

The U-, q-P_I and Y-engines and the seed mutation chain carry each value as
a product of shared pieces (`coprime.Pieces`) and construct the Fraction
without a gcd on the full-size integers.  The plain Fraction loops are kept
below as references: every value must agree with them on `==` and on the
exact numerator and denominator, and every raised exception on its type and
message.  The integer T-path's coprime base (`coprime.Pieces.refine`) and
its exact division (`coprime.int_divmod`, against builtin `divmod`) are
tested here too; its orbits are checked in `test_tsystem.py`.
"""

import fnmatch
import functools
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cluster_painleve import coprime, reduction, ysystem
from cluster_painleve.analysis import tropical_iterate
from cluster_painleve.laurent import LaurentPoly
from cluster_painleve.presets import get_preset
from cluster_painleve.quiver import build_from_tuple, mutate_seed
from cluster_painleve.zsystem import (ConstantZ, GeometricZ, PerturbedZ, solve_z,
                                      z_stencil_from_tuple)

F = Fraction


# -- the loops the engines ran before ---------------------------------------------


def fraction_usystem(spec, init, steps, z=None):
    """Reference for `reduction.iterate_usystem` (its validation is unchanged)."""
    r = spec.order
    us = [F(u) for u in init]
    if not spec.z_flag:
        z = ConstantZ(1)
    for n in range(steps):
        env = {f"U{j}": us[n + j] for j in range(1, r)}
        fval = spec.f_laurent.evaluate(env)
        zval = z.value(n) ** spec.z_power
        us.append(zval * fval / us[n])
    return us


def fraction_y(a, init, steps):
    """Reference for `ysystem.iterate_y`."""
    n_ = len(a) + 1
    ys = [F(v) for v in init]
    for n in range(steps):
        ys.append(ysystem.y_step(a, ys[n + 1:n + n_]) / ys[n])
    return ys


def fraction_chain(b, y_init, steps):
    """Reference for `ysystem.y_from_seed_dynamics`: the `mutate_seed` loop."""
    n_ = b.n
    ys = [F(v) for v in y_init]
    out = []
    for n in range(n_ + steps):
        k = n % n_
        out.append(ys[k])
        b, ys = mutate_seed(b, ys, k)
    return out


def fraction_qp1(beta, q, init, steps):
    """Reference for `ysystem.qp1_iterate`."""
    beta, q = F(beta), F(q)
    ys = [F(v) for v in init]
    for n in range(steps):
        ys.append(beta * q ** n * (1 + ys[n + 1]) / (ys[n + 1] ** 2 * ys[n]))
    return ys


def outcome(f):
    """Exact values as (numerator, denominator) pairs, or the raised error."""
    try:
        vals = f()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return vals, [(v.numerator, v.denominator) for v in vals]


def assert_same(got, want):
    assert outcome(got) == outcome(want)


# -- the coprime constructor ----------------------------------------------------------


@pytest.mark.parametrize("n, d", [
    (0, 1), (1, 1), (-1, 1), (3, 4), (-3, 4), (7, 1), (-(2 ** 521 - 1), 2 ** 607),
    (3 ** 2000 + 2, 5 ** 1500), (-(10 ** 400 + 1), 10 ** 399 * 7),
    # a denominator the hash modulus divides
    (1, 2 ** 61 - 1), (5, (2 ** 61 - 1) * 3),
])
def test_coprime_constructor_is_the_normalized_fraction(n, d):
    assert math.gcd(n, d) == 1
    got, want = coprime._from_coprime_ints(n, d), Fraction(n, d)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and hash(got) == hash(want)
    assert str(got) == str(want) and repr(got) == repr(want)
    assert got + 1 == want + 1 and got * want == want * want


@given(st.integers(-10 ** 60, 10 ** 60), st.integers(1, 10 ** 60))
@settings(max_examples=200, deadline=None)
def test_coprime_constructor_hypothesis(n, d):
    g = math.gcd(n, d)
    n, d = n // g, d // g
    got, want = coprime._from_coprime_ints(n, d), Fraction(n, d)
    assert (got.numerator, got.denominator, hash(got), str(got)) == \
        (want.numerator, want.denominator, hash(want), str(want))


# -- the coprime base of the integer T-path ----------------------------------------


def assert_refined(values):
    # the pieces the live dicts hold are pairwise coprime, they are all the
    # store holds, and each dict still stands for its value in lowest terms
    store = coprime.Pieces()
    live = [store.of(F(v)) for v in values]
    store.refine(live)
    held, val = set().union(*live), store.value
    assert set(val) == held and all(val[p] > 1 for p in held)
    assert all(math.gcd(val[p], val[q]) == 1 for p, q in itertools.combinations(held, 2))
    for v, exps in zip(values, live):
        assert store.ints(exps) == (abs(F(v).numerator), F(v).denominator)


@pytest.mark.parametrize("values", [
    [], [1], [-1, 1], [2, 2, -2], [6, 35, 10, 21, 15, 14, 7, 6],
    [12, 18, -8, 27], [1009, -1013, 1, 1009 * 1013], [2 ** 40, 6 ** 7, 3 ** 5, -1],
    [F(6, 35), F(-10, 21), F(15, 14), F(7, 6)], [F(4, 9), F(-9, 4), F(4, 9), F(1, 6)],
    [F(1009, 1013), F(-1013, 1019), F(1019 * 1009, 2), F(1, 1009 ** 3)],
])
def test_refine(values):
    assert_refined(values)


# products of a few small primes share factors in every way; signs and 1 too
smooth = st.builds(lambda s, ps: s * math.prod(ps), st.sampled_from([1, -1]),
                   st.lists(st.sampled_from([2, 3, 5, 7, 1009]), max_size=6))
windows = st.lists(st.one_of(st.builds(F, smooth, smooth.map(abs)),
                             st.integers(-10 ** 6, 10 ** 6).filter(bool)), max_size=10)


@given(windows.flatmap(lambda vs: st.lists(st.sampled_from(vs), max_size=3).map(
    vs.__add__) if vs else st.just(vs)))  # some values repeated
@settings(max_examples=300, deadline=None)
def test_refine_hypothesis(values):
    assert_refined(values)


def assert_memo_sound(store):
    # each pair the memo holds is two live pieces, held both ways, coprime
    val, known = store.value, store.coprime
    for p, ps in known.items():
        assert p in val
        for q in ps:
            assert q in val and p in known[q] and math.gcd(val[p], val[q]) == 1


@given(windows.flatmap(lambda vs: st.lists(st.sampled_from(vs), max_size=3).map(
    vs.__add__) if vs else st.just(vs)))
@settings(max_examples=200, deadline=None)
def test_refine_leaves_the_memo_sound(values):
    store = coprime.Pieces()
    live = [store.of(F(v)) for v in values]
    assert_memo_sound(store)
    store.refine(live)
    assert_memo_sound(store)


# -- the exact division of the integer T-path ---------------------------------------

SIGNS = list(itertools.product([1, -1], repeat=2))


def bits(rnd, k):
    """A random integer of exactly k bits (0 for k = 0)."""
    return rnd.getrandbits(k) | 1 << k - 1 if k else 0


def assert_divmod(a, b):
    got = coprime.int_divmod(a, b)
    assert got == divmod(a, b)
    assert all(type(x) is int for x in got)


# divisor sizes on both sides of the 9,000-bit gate, quotients on both sides of
# 4,000 bits, dividends up to about 60,000 bits
@given(st.one_of(st.integers(1, 300), st.integers(8_900, 30_000)),
       st.integers(-300, 30_000), st.sampled_from(SIGNS),
       st.sampled_from(["any", "exact", "inexact"]), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_int_divmod_is_divmod(nb, nq, signs, kind, rnd):
    b = bits(rnd, nb)
    if kind == "any":
        a = bits(rnd, max(nb + nq, 0))
    else:
        a = bits(rnd, max(nq, 0)) * b + (rnd.randrange(1, b) if kind == "inexact" and b > 1 else 0)
    assert_divmod(signs[0] * a, signs[1] * b)


@given(st.integers(0, 2_000), st.integers(1, 1_000), st.sampled_from(SIGNS),
       st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_int_divmod_recursion_on_small_ints(na, nb, signs, rnd):
    # a gate of a few bits runs every branch of the recursion, down to
    # one-bit halves, on small integers
    with mock.patch.object(coprime, "_DIV_BITS", 8), mock.patch.object(coprime, "_QUO_BITS", 2):
        assert_divmod(signs[0] * bits(rnd, na), signs[1] * bits(rnd, nb))


@pytest.mark.parametrize("sa, sb", SIGNS)
@pytest.mark.parametrize("nb, nq", [(9_001, 4_001), (20_000, 20_000), (20_001, 39_999),
                                    (43_755, 48_084), (12_000, 48_000)])
def test_int_divmod_exact_and_inexact(sa, sb, nb, nq):
    rnd = random.Random(nb * nq)
    b, q = bits(rnd, nb), bits(rnd, nq)
    for r in (0, 1, rnd.randrange(1, b), b - 1):
        assert_divmod(sa * (q * b + r), sb * b)


@pytest.mark.parametrize("sa, sb", SIGNS)
def test_int_divmod_edge_sizes(sa, sb):
    rnd = random.Random(7)
    big = bits(rnd, 60_000)
    for a, b in [(big, 3), (big, 1), (big, bits(rnd, 9_000)), (big, bits(rnd, 9_001)),
                 (bits(rnd, 20_000), big), (big - 1, big), (big, big), (0, big), (0, 1)]:
        assert_divmod(sa * a, sb * b)


def test_int_divmod_by_zero():
    for a in (0, 1, -5, 1 << 60_000):
        with pytest.raises(ZeroDivisionError):
            coprime.int_divmod(a, 0)


def test_int_divmod_odd_lengths_are_padded():
    # an odd divisor length at the top, and odd halves below it
    rnd = random.Random(11)
    for nb in (20_001, 18_003, 9_001):
        b = bits(rnd, nb)
        assert_divmod(bits(rnd, 2 * nb - 1), b)
        assert_divmod(bits(rnd, 3 * nb + 5), b)


def test_int_divmod_equal_top_halves_need_the_correction():
    # b = b1 * 2^h + b2 with b2 all ones, and the 3h-by-2h step's top half
    # equal to b1: the estimate 2^h - 1 is too large and must be corrected
    h = 10_000
    b1, b2 = 1 << h - 1, (1 << h) - 1
    b = b1 << h | b2
    a = b1 << 3 * h
    assert a >> 3 * h == b >> h and a < b << 2 * h
    assert divmod(a, b)[0] >> h < (1 << h) - 1
    for sa, sb in SIGNS:
        assert_divmod(sa * a, sb * b)
        assert_divmod(sa * (a + b - 1), sb * b)


# -- U-systems --------------------------------------------------------------------------


@functools.cache
def spec_of(a, with_z):
    b = build_from_tuple(a)
    return reduction.derive_uzsystem(b) if with_z else reduction.derive_usystem(b)


PRESET_TUPLES = [get_preset(n).a for n in
                 ("somos4", "somos5", "somos6", "somos7", "prim4", "nonintegrable6")]
PRESET_TUPLES += [get_preset("primN", n).a for n in (5, 6, 7)]
palindromes = st.integers(1, 3).flatmap(lambda h: st.tuples(
    st.lists(st.integers(-2, 2), min_size=h, max_size=h),
    st.lists(st.integers(-2, 2), max_size=1),
)).map(lambda hm: tuple(hm[0] + hm[1] + hm[0][::-1])).filter(any)
tuples = st.one_of(st.sampled_from(PRESET_TUPLES), palindromes)
# signed values of small height, so that windows hit zeros and shared factors
signed = st.builds(lambda s, p, q: F(s * p, q), st.sampled_from([1, -1]),
                   st.integers(1, 12), st.integers(1, 12))


def coefficient(data):
    kind = data.draw(st.sampled_from(["const", "geo", "perturbed", "zero"]))
    if kind == "const":
        return ConstantZ(data.draw(signed))
    geo = GeometricZ(data.draw(signed), data.draw(signed))
    if kind == "geo":
        return geo
    f = F(0) if kind == "zero" else data.draw(signed)
    return PerturbedZ(geo, {data.draw(st.integers(0, 6)): f})


@given(tuples, st.booleans(), st.data(), st.integers(0, 10))
@settings(max_examples=200, deadline=None)
def test_usystem_matches_fraction_loop(a, with_z, data, steps):
    spec = spec_of(a, with_z)
    init = data.draw(st.lists(signed, min_size=spec.order, max_size=spec.order))
    z = coefficient(data) if with_z else None
    assert_same(lambda: reduction.iterate_usystem(spec, init, steps, z),
                lambda: fraction_usystem(spec, init, steps, z))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_usystem_with_solved_coefficients(n):
    a = get_preset("primN", n).a if n != 4 else get_preset("prim4").a
    spec = spec_of(a, True)
    z = solve_z(z_stencil_from_tuple(a), [F(2, 3), F(-5, 4), F(7), F(1, 6), F(3)][:n - 2])
    init = [F(3, 2), F(-2, 5), F(1, 4), F(4, 3), F(-1, 7), F(5)][:spec.order]
    assert_same(lambda: reduction.iterate_usystem(spec, init, 30, z),
                lambda: fraction_usystem(spec, init, 30, z))


def test_usystem_fractional_coefficient_exponents_raise_the_same():
    # Z_2 needs a square root of 3: AlgebraicZCase with the same message
    a = (-2, 1, -2)
    spec = spec_of(a, True)
    z = solve_z(z_stencil_from_tuple(a), [F(1), F(3)])
    init = [F(3, 2), F(-2, 5), F(1, 4), F(4, 3)][:spec.order]
    got = outcome(lambda: reduction.iterate_usystem(spec, init, 6, z))
    assert got == outcome(lambda: fraction_usystem(spec, init, 6, z))
    assert got[0].__name__ == "AlgebraicZCase"


@pytest.mark.parametrize("init, steps", [
    ([F(2), F(-1)], 1),   # U_2 = 0
    ([F(2), F(-1)], 3),   # F has U1^-1 and U1^-2: evaluating it at U_2 = 0 raises
    ([F(-3, 5), F(-1)], 4),
])
def test_somos4_zero_values_raise_the_same(init, steps):
    spec = spec_of(get_preset("somos4").a, False)
    assert_same(lambda: reduction.iterate_usystem(spec, init, steps),
                lambda: fraction_usystem(spec, init, steps))


@pytest.mark.parametrize("name, n, init, steps", [
    # F = 1 + U1 U3: U_4 = U_6 = 0 drop the U1 U3 term, then U_8 = 0 / 0
    ("prim4", None, [F(2), F(-1), F(5), F(1)], 5),
    # F = (1 + U1 U2 U3) / (U1 U2 U3)^2: U_8 = 0, then F reads U^-2 at 0
    ("somos6", None, [F(1), F(1), F(1), F(-2)], 6),
    ("somos6", None, [F(1), F(2, 3), F(1), F(-1, 2)], 13),
    # F = U1 U3 / U2 (1 + U1 U3 / U2): U_14 = 0 makes U_15 = 0, then U2 = 0
    ("primN", 5, [F(1), F(-1), F(-3), F(3)], 13),
])
def test_zero_values_above_order_two_raise_the_same(name, n, init, steps):
    # every orbit prefix: the values up to the zeros, and the raise after them
    spec = spec_of(get_preset(name, n).a if n else get_preset(name).a, False)
    for k in range(steps + 1):
        assert_same(lambda: reduction.iterate_usystem(spec, init, k),
                    lambda: fraction_usystem(spec, init, k))
    assert outcome(lambda: fraction_usystem(spec, init, steps))[0] is ZeroDivisionError


@pytest.mark.parametrize("zvalue, message", [
    (F(1), "Fraction(1, 0)"), (F(-5, 3), "Fraction(-1, 0)"), (F(0), "Fraction(0, 0)")])
def test_division_by_a_zero_value_raises_the_same(zvalue, message):
    # U_{n+2} U_n = Z (U1 + 2) from (1, -2): U_2 = 0, U_3 = -1, then U_4 = Z / 0
    spec = hand_spec(2, {(1,): 1, (0,): 2})
    z = PerturbedZ(ConstantZ(1), {2: zvalue})
    got = outcome(lambda: reduction.iterate_usystem(spec, [F(1), F(-2)], 3, z))
    assert got == (ZeroDivisionError, message)
    assert got == outcome(lambda: fraction_usystem(spec, [F(1), F(-2)], 3, z))


def test_usystem_reads_monomials_before_values(monkeypatch):
    # Z_n enters as the pieces of its bound bases wherever it has a monomial
    # form, negative exponents included; value(n) only where it has none
    a = get_preset("somos5").a
    spec = spec_of(a, True)
    init = [F(-6, 5), F(10, 3)]
    geo = GeometricZ(F(-10, 21), F(6, 35))
    solved = solve_z(z_stencil_from_tuple(a), [F(-2, 3), F(5, 4), F(-7)])
    assert any(e < 0 and e % 2 for n in range(20) for e in solved.monomial(n))
    perturbed = PerturbedZ(geo, {3: F(-7, 9)})
    want = {id(z): outcome(lambda: fraction_usystem(spec, init, 20, z))
            for z in (geo, solved, perturbed)}

    def value(self, n):
        raise AssertionError("value read where a monomial form exists")

    with monkeypatch.context() as m:
        m.setattr(GeometricZ, "value", value)
        m.setattr(type(solved), "value", value)
        for z in (geo, solved):
            assert outcome(lambda: reduction.iterate_usystem(spec, init, 20, z)) == want[id(z)]
    seen, real = [], PerturbedZ.value
    monkeypatch.setattr(PerturbedZ, "value", lambda self, n: seen.append(n) or real(self, n))
    got = outcome(lambda: reduction.iterate_usystem(spec, init, 20, perturbed))
    assert got == want[id(perturbed)] and seen == [3]
    unbound = solve_z(z_stencil_from_tuple(a))
    assert_same(lambda: reduction.iterate_usystem(spec, init, 3, unbound),
                lambda: fraction_usystem(spec, init, 3, unbound))
    assert outcome(lambda: reduction.iterate_usystem(spec, init, 3, unbound)) == (
        ValueError, "no initial values bound")


def hand_spec(order, terms, z_flag=True):
    """A U-system with any F: iterate_usystem reads order, F and z_flag."""
    uvars = tuple(f"U{j}" for j in range(1, order))
    f = LaurentPoly(uvars, terms)
    one = LaurentPoly.const(uvars, 1)
    return reduction.USystemSpec((), order, (), uvars, f, f, one, z_flag)


laurent_terms = st.integers(1, 4).flatmap(lambda r: st.tuples(
    st.just(r), st.dictionaries(
        st.tuples(*[st.integers(-2, 2)] * (r - 1)),
        st.sampled_from([-6, -3, -2, -1, 1, 2, 3, 4, 6, 10, 15]), min_size=1, max_size=4)))


@given(laurent_terms, st.booleans(), st.data(), st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_usystem_with_any_laurent_map(rt, z_flag, data, steps):
    # coefficients that share factors with the values (c_lo, c_top not 1),
    # orders 1-4 (pieces every term holds over up to three slots) and zero
    # values
    r, terms = rt
    spec = hand_spec(r, terms, z_flag)
    init = data.draw(st.lists(signed, min_size=r, max_size=r))
    z = coefficient(data) if z_flag else None
    assert_same(lambda: reduction.iterate_usystem(spec, init, steps, z),
                lambda: fraction_usystem(spec, init, steps, z))


# -- q-Painleve I ---------------------------------------------------------------------

positive = st.builds(F, st.integers(1, 40), st.integers(1, 40))


@given(positive, positive, st.lists(positive, min_size=2, max_size=2), st.integers(0, 16))
@settings(max_examples=150, deadline=None)
def test_qp1_matches_fraction_loop(beta, q, init, steps):
    assert_same(lambda: ysystem.qp1_iterate(beta, q, init, steps),
                lambda: fraction_qp1(beta, q, init, steps))


@pytest.mark.parametrize("beta, q, init", [
    # the same primes in the window and in beta/q, and composites 6/10/15
    (F(6, 35), F(10, 21), [F(15, 14), F(7, 6)]),
    (F(7), F(1, 7), [F(7, 2), F(2, 7)]),
    (F(15, 4), F(4, 15), [F(6), F(10)]),
    (F(1), F(1), [F(1), F(1)]),
])
def test_qp1_shared_and_composite_bases(beta, q, init):
    assert_same(lambda: ysystem.qp1_iterate(beta, q, init, 30),
                lambda: fraction_qp1(beta, q, init, 30))


def test_qp1_is_the_derived_somos4_usystem():
    spec = reduction.derive_uzsystem(build_from_tuple((-1, 2, -1)))
    assert spec.z_flag and spec.f_laurent.terms == {(-1,): 1, (-2,): 1}
    beta, q, init = F(6, 35), F(10, 21), [F(15, 14), F(7, 6)]
    assert_same(lambda: ysystem.qp1_iterate(beta, q, init, 30),
                lambda: reduction.iterate_usystem(spec, init, 30, GeometricZ(beta, q)))


# -- Y-systems ---------------------------------------------------------------------------


# The height of a Y-value grows like the tropical degree of its x-orbit:
# quadratically for the integrable tuples (at most 18 after 10 steps), and
# exponentially for the others, where the Fraction loop takes seconds a step
# past this degree (nonintegrable6 goes past it after 8 steps).
DEGREE_LIMIT = 250_000


def tropical_degree(a, steps):
    """The largest |exponent| of one initial variable in x_0..x_{N+steps}."""
    n_ = len(a) + 1
    return max(max(map(abs, tropical_iterate(a, [-(i == k) for i in range(n_)], steps + n_).d))
               for k in range(n_))


def capped(a, steps, ahead=0):
    """`steps`, cut back to the last step whose degree `ahead` steps on is
    within DEGREE_LIMIT."""
    while steps and tropical_degree(a, steps + ahead) > DEGREE_LIMIT:
        steps -= 1
    return steps


def test_degree_cap_keeps_the_integrable_steps():
    for name in ("somos4", "somos5", "somos6", "somos7", "prim4"):
        assert capped(get_preset(name).a, 10) == 10
    assert capped(get_preset("nonintegrable6").a, 10) == 8


@given(tuples, st.data(), st.integers(0, 10))
@settings(max_examples=100, deadline=None)
def test_y_matches_fraction_loop(a, data, steps):
    init = data.draw(st.lists(positive, min_size=len(a) + 1, max_size=len(a) + 1))
    steps = capped(a, steps)
    assert_same(lambda: ysystem.iterate_y(a, init, steps),
                lambda: fraction_y(a, init, steps))


@pytest.mark.parametrize("name, steps", [
    ("somos4", 16), ("somos5", 16), ("somos6", 16), ("somos7", 16), ("prim4", 16),
    ("nonintegrable6", 5),  # its heights grow about 80-fold a step
])
def test_y_presets_with_composite_window(name, steps):
    a = get_preset(name).a
    init = [F(6, 35), F(10, 21), F(15, 14), F(7, 6), F(14, 15), F(35), F(1, 6)][:len(a) + 1]
    assert_same(lambda: ysystem.iterate_y(a, init, steps),
                lambda: fraction_y(a, init, steps))


# -- the seed mutation chain ---------------------------------------------------------

COMPOSITE = [F(6, 35), F(10, 21), F(15, 14), F(7, 6), F(14, 15), F(35), F(1, 6)]


@pytest.mark.parametrize("name, steps", [
    ("somos4", 30), ("somos5", 24), ("somos6", 20), ("somos7", 16), ("prim4", 30),
    ("prim5", 30),
    ("nonintegrable6", 3),  # its chain heights grow about 3-fold a step
])
@pytest.mark.parametrize("window", ["composite", "small"])
def test_chain_matches_fraction_loop(name, steps, window):
    b = build_from_tuple(get_preset("primN", 5).a if name == "prim5" else get_preset(name).a)
    init = COMPOSITE[:b.n] if window == "composite" else [F(2), F(1, 3), F(5), F(7, 2),
                                                           F(1), F(4, 9), F(3)][:b.n]
    assert_same(lambda: ysystem.y_from_seed_dynamics(b, init, steps),
                lambda: fraction_chain(b, init, steps))


@given(tuples, st.data(), st.integers(0, 10))
@settings(max_examples=100, deadline=None)
def test_chain_matches_fraction_loop_hypothesis(a, data, steps):
    b = build_from_tuple(a)
    init = data.draw(st.lists(positive, min_size=b.n, max_size=b.n))
    # the chain reads its first N values while mutating its way along the
    # seed, so its heights run about N steps ahead of the Y-orbit's
    steps = capped(a, steps, b.n)
    assert_same(lambda: ysystem.y_from_seed_dynamics(b, init, steps),
                lambda: fraction_chain(b, init, steps))


# -- long orbits from shared composites ------------------------------------------------
# Thirty steps let pieces split again and again.


@pytest.mark.parametrize("name", ["somos4", "somos5", "somos6", "somos7"])
def test_y_long_orbit_from_shared_composites(name):
    a = get_preset(name).a
    init = [F(6, 5), F(10, 9), F(15, 4), F(12, 35), F(2 ** 5 * 3, 7), F(1, 6),
            F(2 ** 3 * 3, 5)][:len(a) + 1]
    assert_same(lambda: ysystem.iterate_y(a, init, 30),
                lambda: fraction_y(a, init, 30))


@pytest.mark.parametrize("name", ["somos4", "somos6"])
def test_u_long_orbit_with_geometric_z_sharing_primes(name):
    spec = spec_of(get_preset(name).a, True)
    init = [F(-6, 5), F(10, 3), F(-15, 4), F(12, 7)][:spec.order]
    z = GeometricZ(F(-10, 21), F(6, 35))
    assert_same(lambda: reduction.iterate_usystem(spec, init, 30, z),
                lambda: fraction_usystem(spec, init, 30, z))


def test_qp1_long_orbit_with_parameters_sharing_primes():
    beta, q, init = F(12, 35), F(10, 21), [F(6, 7), F(15, 2 ** 4 * 3)]
    assert_same(lambda: ysystem.qp1_iterate(beta, q, init, 30),
                lambda: fraction_qp1(beta, q, init, 30))


@pytest.mark.parametrize("label, most, exact", [
    ("somos6-u55", 3 * 55, False), ("somos4-u55", 55, True), ("qp1-46", 44, True)])
def test_u_orbit_splits_on_the_benchmark_windows(bench_workloads, monkeypatch,
                                                 label, most, exact):
    # the pieces every term of Ph holds enter the step by id, so the order-4
    # somos6 orbit splits at most 3 times a step (743 times in all when they
    # were multiplied into Ph and found again by division); the order-2
    # orbits split once a step, q-P_I on all but two
    seen = []
    split = coprime.Pieces._split
    monkeypatch.setattr(coprime.Pieces, "_split",
                        lambda self, *args: seen.append(1) or split(self, *args))
    next(j for j in bench_workloads.build("orbit", 0) if j.label == label).run()
    assert len(seen) == most if exact else len(seen) <= most


@pytest.mark.parametrize("workload, patterns, refines, tests, splits, pieces", [
    ("survey", ("*-scan*",), 24, 2468, 130, 302),
    ("orbit", ("*-t[0-9]*", "*-ones*", "*-geo*"), 11, 336, 4, 84),
])
def test_refine_counts_on_the_benchmark_windows(bench_workloads, monkeypatch, workload,
                                                patterns, refines, tests, splits, pieces):
    # the T-bases of the seed-0 benchmark orbits: the pair test skips every
    # pair the memo holds, so each pair is tested about once (a rescan of
    # every pair after each split made 11,608 and 509 tests for the same
    # splits into the same pieces)
    seen = {"refines": 0, "tests": 0, "splits": 0, "pieces": 0}
    inside = [False]
    divide, split, refine = coprime.int_divmod, coprime.Pieces._split, coprime.Pieces.refine

    def divide_spy(a, b):
        seen["tests"] += inside[0]
        return divide(a, b)

    def split_spy(self, *args):
        seen["splits"] += inside[0]
        return split(self, *args)

    def refine_spy(self, live):
        inside[0] = True
        try:
            refine(self, live)
        finally:
            inside[0] = False
        seen["refines"] += 1
        seen["pieces"] += len(set().union(*live))

    monkeypatch.setattr(coprime, "int_divmod", divide_spy)
    monkeypatch.setattr(coprime.Pieces, "_split", split_spy)
    monkeypatch.setattr(coprime.Pieces, "refine", refine_spy)
    for job in bench_workloads.build(workload, 0):
        if any(fnmatch.fnmatch(job.label, p) for p in patterns):
            job.run()
    assert seen == {"refines": refines, "tests": tests, "splits": splits, "pieces": pieces}


# -- the piece store ---------------------------------------------------------------------


@given(st.lists(st.integers(2, 400), min_size=1, max_size=6), st.data())
@settings(max_examples=200, deadline=None)
def test_pieces_build_lowest_terms_and_keep_live_values(ints, data):
    # dicts over composite pieces that share factors; a split must leave the
    # value of every live dict as it was, and the first build forgets the
    # pieces that no live dict holds
    store = coprime.Pieces()
    ids = [next(iter(store.new(v))) for v in ints]
    dead = next(iter(store.new(7)))
    exps = st.dictionaries(st.sampled_from(ids), st.integers(-3, 3).filter(bool), max_size=6)
    live = data.draw(st.lists(exps, min_size=1, max_size=3))

    def value(d):
        return math.prod(F(store.value[p]) ** e for p, e in d.items())

    before = [value(d) for d in live]
    sign = data.draw(st.sampled_from([1, -1]))
    got = store.build(sign, live[0], live)
    want = sign * before[0]
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert [value(d) for d in live] == before
    assert dead not in store.value and dead not in store.coprime
    assert set(store.value) == set().union(*live)
    assert all(p in store.value for ps in store.coprime.values() for p in ps)


@given(st.lists(st.integers(2, 400), min_size=1, max_size=6), st.data())
@settings(max_examples=200, deadline=None)
def test_pieces_build_leaves_the_memo_sound(ints, data):
    # a run of builds over dicts that share composite pieces, each build
    # reading the memo that the ones before it wrote
    store = coprime.Pieces()
    ids = [next(iter(store.new(v))) for v in ints]
    exps = st.dictionaries(st.sampled_from(ids), st.integers(-3, 3).filter(bool), max_size=6)
    live = data.draw(st.lists(exps, min_size=1, max_size=4))
    for i in data.draw(st.lists(st.integers(0, len(live) - 1), min_size=1, max_size=6)):
        store.build(1, live[i], live)
        assert_memo_sound(store)
