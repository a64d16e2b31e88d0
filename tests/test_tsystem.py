"""Bilinear recurrences: exact orbits, Laurentness, serialization.

The rational and symbolic iteration paths are independent implementations
of the same dynamics; several tests pin them against each other.  The
rational path runs in integer arithmetic (x_n = N_n / M_n) until its first
inexact step; `fraction_orbit` below is the plain Fraction loop it is
checked against, values and exceptions alike.  The symbolic path runs in
the coordinates of the lattice im B; `x_symbolic_orbit` below is the loop in
the coordinates of the initial window it is checked against, terms and
exceptions alike.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cluster_painleve import coprime, tsystem
from cluster_painleve.intlinalg import residue
from cluster_painleve.laurent import LaurentPoly, laurent_try_div
from cluster_painleve.presets import get_preset
from cluster_painleve.tsystem import (
    NonLaurentIterate,
    Orbit,
    TermBudgetExceeded,
    TStencil,
    ZeroEncountered,
    check_orbit,
    iterate_t,
    iterate_tz,
    orbit_from_json,
)
from cluster_painleve.zsystem import (
    AlgebraicZCase,
    ConstantZ,
    GeometricZ,
    PerturbedZ,
    solve_z,
    z_stencil_from_tuple,
)

F = Fraction

SOMOS4 = (-1, 2, -1)
SOMOS5 = (-1, 1, 1, -1)
SOMOS6 = (-1, 1, 0, 1, -1)
SOMOS7 = (-1, 0, 1, 1, 0, -1)
PRIM4 = (-1, 0, -1)

# regression pins for the unit-initialized orbits
ONES_TAILS = {
    SOMOS4: [2, 3, 7, 23, 59, 314, 1529, 8209, 83313],
    SOMOS5: [2, 3, 5, 11, 37, 83, 274, 1217, 6161, 22833],
    SOMOS6: [2, 3, 5, 8, 18, 60, 135, 385, 1102, 5367],
    SOMOS7: [2, 3, 4, 6, 12, 24, 72, 144, 288, 864],
    PRIM4: [2, 3, 4, 9, 14, 19, 43, 67, 91],
}


@pytest.mark.parametrize("a", ONES_TAILS)
def test_unit_orbits(a):
    n = len(a) + 1
    want = ONES_TAILS[a]
    orb = iterate_t(TStencil(a), [F(1)] * n, len(want))
    assert orb.values[n:] == want
    assert check_orbit(orb)


def test_somos4_recurrence_shape():
    # x_{n+4} x_n = x_{n+2}^2 + x_{n+1} x_{n+3}
    orb = iterate_t(TStencil(SOMOS4), [F(1), F(2), F(3), F(5)], 4)
    v = orb.values
    for n in range(4):
        assert v[n + 4] * v[n] == v[n + 2] ** 2 + v[n + 1] * v[n + 3]


def test_steps_must_be_nonnegative():
    with pytest.raises(ValueError):
        iterate_t(TStencil(SOMOS4), [F(1)] * 4, -1)


def test_term_budget_is_an_arithmetic_error():
    with pytest.raises(ArithmeticError, match="exceeds the 5-term budget"):
        iterate_t(TStencil(SOMOS4), None, 8, mode="symbolic", max_terms=5)


def test_zero_initial_rejected():
    with pytest.raises(ZeroEncountered):
        iterate_t(TStencil(SOMOS4), [F(0), F(1), F(1), F(1)], 2)


@pytest.mark.parametrize("a", [SOMOS4, SOMOS5, SOMOS6, SOMOS7, PRIM4, (-1, 0, 0, -1)])
def test_laurent_property_past_one_period(a):
    n = len(a) + 1
    orb = iterate_t(TStencil(a), None, n + 8, mode="symbolic")
    assert all(p.coefficients_positive() for p in orb.values)


def test_symbolic_specializes_to_rational():
    init = [F(2), F(1, 3), F(5), F(1)]
    sym = iterate_t(TStencil(SOMOS4), None, 10, mode="symbolic")
    rat = iterate_t(TStencil(SOMOS4), init, 10)
    env = {v: init[i] for i, v in enumerate(sym.variables)}
    assert [p.evaluate(env) for p in sym.values] == rat.values


def test_symbolic_tz_specializes_to_rational():
    beta, q = F(2), F(3, 2)
    init = [F(1), F(2), F(1, 2), F(3)]
    sym = iterate_tz(TStencil(SOMOS4), GeometricZ(F(1), F(1)), None, 8,
                     mode="symbolic")
    rat = iterate_tz(TStencil(SOMOS4), GeometricZ(beta, q), init, 8)
    env = dict(zip(sym.variables, init + [beta, q]))
    assert [p.evaluate(env) for p in sym.values] == rat.values


def test_constraint_violating_coefficients_break_laurentness():
    # a geometric Z never satisfies the antiperiodic constraint of this system
    with pytest.raises(NonLaurentIterate):
        iterate_tz(TStencil(PRIM4), GeometricZ(F(1), F(1)), None, 8,
                   mode="symbolic")


def test_tz_with_solved_coefficients_stays_consistent():
    z = solve_z(z_stencil_from_tuple(PRIM4), [F(2), F(3)])
    orb = iterate_tz(TStencil(PRIM4), z, [F(1)] * 4, 9)
    assert orb.values[4:8] == [F(4), F(15), F(8), F(11)]
    assert check_orbit(orb)


def test_check_orbit_detects_corruption():
    orb = iterate_t(TStencil(SOMOS4), [F(1)] * 4, 6)
    bad = Orbit(orb.stencil, orb.kind, orb.values[:-1] + [F(999)], None, None)
    assert not check_orbit(bad)


@pytest.mark.parametrize("a", [SOMOS4, SOMOS5, PRIM4])
def test_check_orbit_on_symbolic_orbits(a):
    # N steps: prim4's x_8 is not Laurent under a geometric Z
    for z in (ConstantZ(), GeometricZ(), _solved(a)):
        orb = iterate_tz(TStencil(a), z, None, len(a) + 1, mode="symbolic")
        assert check_orbit(orb)
        one = LaurentPoly.const(orb.variables, 1)
        bad = Orbit(orb.stencil, orb.kind, orb.values[:-1] + [orb.values[-1] + one],
                    z, orb.variables)
        assert not check_orbit(bad)
        # a corrupted first value sits only in the window at index 0
        early = Orbit(orb.stencil, orb.kind, [orb.values[0] + one] + orb.values[1:],
                      z, orb.variables)
        assert not check_orbit(early)
        assert check_orbit(early, start=1)


def test_residue_with_a_negative_index():
    orb = iterate_t(TStencil(SOMOS4), [F(2, 3), F(5, 7), F(1), F(3)], 6)
    last = len(orb) - 1
    assert orb.residue(-1) == orb.residue(last) == residue(orb.values[last])
    warm = iterate_t(TStencil(SOMOS4), [F(2, 3), F(5, 7), F(1), F(3)], 6)
    want = [residue(v) for v in warm.values]
    for k in range(4):  # the cache holds indices 0..3, not the last one
        warm.residue(k)
    assert warm.residue(-1) == want[-1] and warm.residue(-len(warm)) == want[0]
    # the slots of indices 0..3 still hold their own values and residues
    assert warm._residues[:4] == list(zip(warm.values[:4], want[:4]))
    assert warm._residues[-1] == (warm.values[-1], want[-1])
    assert [warm.residue(k) for k in range(len(warm))] == want
    for n in (len(warm), -len(warm) - 1):
        with pytest.raises(IndexError):
            warm.residue(n)


def test_rational_json_roundtrip():
    orb = iterate_t(TStencil(SOMOS5), [F(1), F(2), F(1, 2), F(3), F(1)], 7)
    back = orbit_from_json(orb.to_json())
    assert back.values == orb.values and back.stencil == orb.stencil


def test_symbolic_json_roundtrip():
    orb = iterate_t(TStencil(SOMOS4), None, 5, mode="symbolic")
    back = orbit_from_json(orb.to_json())
    assert back.values == list(orb.values)


rational9 = st.fractions(min_value=F(1, 9), max_value=F(9), max_denominator=9)


@given(st.lists(rational9, min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_orbit_windows_satisfy_recurrence_everywhere(init):
    orb = iterate_t(TStencil(SOMOS4), init, 12)
    assert check_orbit(orb)
    v = orb.values
    for n in range(8):
        assert v[n + 4] * v[n] == v[n + 2] ** 2 + v[n + 1] * v[n + 3]


def test_json_roundtrip_past_the_int_digit_limit(default_int_digits):
    orb = iterate_t(TStencil(SOMOS4), [1] * 4, 350)
    assert orb.values[-1].numerator.bit_length() > 4300 * 3.33  # over 4,300 digits
    assert orbit_from_json(orb.to_json()).values == orb.values


# -- the integer path against a plain Fraction loop ----------------------------


def fraction_orbit(a, z, init, steps):
    """Reference: x_{n+N} = Z_n (prod x^[a]+ + prod x^[-a]+) / x_n in Fractions."""
    n_ = len(a) + 1
    vals = [Fraction(v) for v in init]
    for n in range(steps):
        w = vals[n + 1 : n + n_]
        plus = minus = Fraction(1)
        for v, e in zip(w, a):
            if e > 0:
                plus *= v ** e
            elif e < 0:
                minus *= v ** -e
        nxt = z.value(n) * (plus + minus) / vals[n]
        if nxt == 0:
            raise ZeroEncountered(f"orbit value x_{n + n_} vanished")
        vals.append(nxt)
    return vals


def _outcome(f):
    """Values with their exact numerators and denominators, or the error."""
    try:
        vals = f()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return vals, [(v.numerator, v.denominator) for v in vals]


def assert_matches_reference(a, z, init, steps):
    got = _outcome(lambda: iterate_tz(TStencil(a), z, init, steps).values)
    assert got == _outcome(lambda: fraction_orbit(a, z, init, steps))


def integer_steps(a, z, init, steps):
    """How many steps the integer path takes before it hands over."""
    return tsystem._integer_steps(TStencil(a), z, [F(v) for v in init], steps)


signed_pq = st.builds(lambda s, p, q: F(s * p, q), st.sampled_from([1, -1]),
                      st.integers(1, 5), st.integers(1, 5))
palindromes = st.integers(0, 2).flatmap(lambda h: st.tuples(
    st.lists(st.integers(-2, 2), min_size=h, max_size=h),
    st.lists(st.integers(-2, 2), min_size=0, max_size=1),
)).map(lambda hm: tuple(hm[0] + hm[1] + hm[0][::-1])).filter(len)


@given(palindromes, st.data(), st.integers(0, 10))
@settings(max_examples=150, deadline=None)
def test_integer_path_matches_fraction_loop(a, data, steps):
    init = data.draw(st.lists(signed_pq, min_size=len(a) + 1, max_size=len(a) + 1))
    assert_matches_reference(a, ConstantZ(1), init, steps)


@pytest.mark.parametrize("a", [SOMOS4, SOMOS5, SOMOS6, SOMOS7])
def test_geometric_coefficients_match_fraction_loop(a):
    z = GeometricZ(F(-3, 2), F(5, 7))
    init = [F(2, 3), F(-1, 5), F(7), F(3, 4), F(5, 2), F(-2), F(1, 3)][:len(a) + 1]
    assert integer_steps(a, z, init, 24) == 24
    assert_matches_reference(a, z, init, 24)


def test_coefficient_sign_enters_the_integer_step():
    # the signs ride in the bound values: Z_n < 0 at every even n
    z = GeometricZ(F(-3, 2), F(-5, 7))
    init = [F(2, 3), F(-1, 5), F(7), F(3, 4)]
    assert integer_steps(SOMOS4, z, init, 20) == 20
    assert_matches_reference(SOMOS4, z, init, 20)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_solved_coefficients_match_fraction_loop(n):
    a = (-1,) + (0,) * (n - 3) + (-1,)
    z = solve_z(z_stencil_from_tuple(a), [F(2, 3), F(-5, 4), F(7), F(1, 6), F(3)][:n - 2])
    init = [F(3, 2), F(-2, 5), F(1), F(4, 3), F(-1, 7), F(5), F(2)][:n]
    assert integer_steps(a, z, init, 40) == 40
    assert_matches_reference(a, z, init, 40)


def test_fractional_coefficient_exponents_hand_over():
    # Z_{n+2} = Z_n^-1 Z_{n+1}^(1/2): Z_2 needs a square root, Z_4 an 8th root of 16
    a = (-2, 1, -2)
    z = solve_z(z_stencil_from_tuple(a), [F(1), F(16)])
    init = [F(1), F(2), F(-1, 3), F(3)]
    assert integer_steps(a, z, init, 6) == 2
    for steps in range(7):
        assert_matches_reference(a, z, init, steps)
    assert len(iterate_tz(TStencil(a), z, init, 4)) == 8
    with pytest.raises(AlgebraicZCase):
        iterate_tz(TStencil(a), z, init, 5)


@pytest.mark.parametrize("a, z, init, steps, handover", [
    # the perturbed coefficient data of acceptance criterion 8
    (SOMOS4, PerturbedZ(GeometricZ(F(2), F(3, 2)), {5: F(2)}),
     [F(5, 2), F(5, 2), F(1, 2), F(4, 5)], 36, 5),
    (SOMOS4, ConstantZ(3), [F(1), F(2), F(1, 3), F(-4)], 20, 0),
    # the geometric sequence breaks prim4's coefficient constraint
    (PRIM4, GeometricZ(F(1), F(2)), [F(1)] * 4, 20, 4),
    # unbound symbols: the Fraction step raises as before
    (SOMOS4, GeometricZ(), [F(1)] * 4, 3, 0),
])
def test_hand_over_to_fraction_steps(a, z, init, steps, handover):
    assert integer_steps(a, z, init, steps) == handover
    assert_matches_reference(a, z, init, steps)


def test_zero_value_raises_on_the_integer_path():
    with pytest.raises(ZeroEncountered, match=r"^orbit value x_4 vanished$"):
        integer_steps(SOMOS4, ConstantZ(1), [1, 1, -1, -1], 3)
    with pytest.raises(ZeroEncountered, match=r"^orbit value x_4 vanished$"):
        iterate_t(TStencil(SOMOS4), [F(1), F(1), F(-1), F(-1)], 3)


# -- values in lowest terms on the integer path ------------------------------

# numerators and denominators with shared and composite factors: 6, 10, 15,
# the same prime in the window and in the coefficients, negative bases
shared_pq = st.builds(lambda s, p, q: F(s * p, q), st.sampled_from([1, -1]),
                      st.sampled_from([1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 35]),
                      st.sampled_from([1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 35]))


def _coefficients(data, a):
    kind = data.draw(st.sampled_from(["one", "geo", "perturbed", "solved"]))
    if kind == "one":
        return ConstantZ(1)
    if kind == "solved" and a in (PRIM4, (-1, 0, 0, -1), (-1, 0, 0, 0, -1)):
        st_ = z_stencil_from_tuple(a)
        return solve_z(st_, data.draw(st.lists(shared_pq, min_size=st_.order,
                                               max_size=st_.order)))
    geo = GeometricZ(data.draw(shared_pq), data.draw(shared_pq))
    if kind == "perturbed":
        return PerturbedZ(geo, {data.draw(st.integers(0, 8)): data.draw(shared_pq)})
    return geo


@given(st.sampled_from([SOMOS4, SOMOS5, SOMOS6, SOMOS7, PRIM4, (-1, 0, 0, -1),
                        (-1, 0, 0, 0, -1)]), st.data(), st.integers(0, 16))
@settings(max_examples=150, deadline=None)
def test_shared_and_composite_bases_match_fraction_loop(a, data, steps):
    init = data.draw(st.lists(shared_pq, min_size=len(a) + 1, max_size=len(a) + 1))
    assert_matches_reference(a, _coefficients(data, a), init, steps)


CYCLE = [1009, 1013, 1019, 1021, 1031, 1033, 1039]


def _cycle_window(n):
    """prim{n} data in which each prime is the numerator of one window value
    and the denominator of the next, and the numerator or denominator of a
    coefficient value too."""
    a = get_preset(f"prim{n}").a
    init = [F((-1) ** i * CYCLE[i], CYCLE[(i + 1) % n]) for i in range(n)]
    z_st = z_stencil_from_tuple(a)
    zinit = [F(CYCLE[(i + 2) % n], CYCLE[i]) for i in range(z_st.order)]
    return a, solve_z(z_st, zinit), init


def test_every_step_on_the_integer_path_is_in_lowest_terms():
    for a, z, init, steps in [
            # distinct primes near 1000
            (SOMOS4, ConstantZ(1), [F(1009, 1013), F(-1019, 1021), F(1031, 1033), F(1039, 1049)],
             30),
            # N_n shares factors with M_n: 2 divides every N_n from this window
            (SOMOS4, ConstantZ(1), [F(2, 37), F(-11, 3), F(13, 17), F(19, 23)], 24),
            # composite bases, refined to the coprime base 2, 3, 5, 7
            (SOMOS4, ConstantZ(1), [F(6, 35), F(-10, 21), F(15, 14), F(7, 6)], 24),
            # Z's symbol values share primes with the window
            (SOMOS4, GeometricZ(F(3, 2), F(5, 7)), [F(2, 3), F(-1, 5), F(7), F(3, 4)], 24),
            # 3, 5 and 7 each in a numerator and a denominator of the window, and in Z
            (SOMOS4, GeometricZ(F(5, 2), F(7, 3)), [F(3, 5), F(-5, 7), F(7, 3), F(2, 3)], 40),
            (SOMOS5, GeometricZ(F(-7, 10), F(3, 14)), [F(10, 3), F(3, 7), F(-7, 2), F(5, 6), F(6)],
             40),
            (*_cycle_window(5), 60),
            (*_cycle_window(7), 60)]:
        assert integer_steps(a, z, init, steps) == steps
        assert_matches_reference(a, z, init, steps)


def test_exact_shadow_leaves_the_lowest_terms_division_idle(monkeypatch):
    # a bound per numerator and denominator would overcount each shared
    # prime, leaving c^e in N_n to be divided out on nearly every step
    calls = []
    inner = tsystem.int_divmod

    def spy(a, b):
        calls.append(b)
        return inner(a, b)

    monkeypatch.setattr(tsystem, "int_divmod", spy)
    a, z, init = _cycle_window(7)
    assert integer_steps(a, z, init, 84) == 84
    # the step's exact division is the first of each step's calls; any
    # further ones divide N_n by c^e
    assert len(calls) - 84 <= 2


# -- divisions past the recursive gate of coprime.int_divmod ------------------


@pytest.fixture
def recursive_divisors(monkeypatch):
    """The divisor bit lengths of the recursive 2n-by-n divisions that run."""
    seen = []
    inner = coprime._div2n1n

    def spy(a, b, n):
        seen.append(n)
        return inner(a, b, n)

    monkeypatch.setattr(coprime, "_div2n1n", spy)
    return seen


def test_long_orbit_divides_recursively_and_matches_fraction_loop(recursive_divisors):
    # prime quotients from [1000, 1100); the last divisors have about 44,000 bits
    init = [F(1009, 1013), F(1019, 1021), F(1031, 1033), F(1039, 1049)]
    assert integer_steps(SOMOS4, ConstantZ(1), init, 85) == 85
    assert max(recursive_divisors) > 40_000
    assert_matches_reference(SOMOS4, ConstantZ(1), init, 85)


def test_long_integral_orbit_divides_recursively(recursive_divisors):
    orb = iterate_t(TStencil(SOMOS4), [F(1)] * 4, 300)
    assert max(recursive_divisors) > coprime._DIV_BITS
    assert all(v.denominator == 1 for v in orb.values)
    assert orb.values[-1].numerator.bit_length() > 13_000
    assert check_orbit(orb)


# -- lattice coordinates against the loop in the initial window ---------------


def _repeated_product(values, exps, one):
    acc = one
    for v, e in zip(values, exps):
        for _ in range(e):
            acc = acc * v
    return acc


def x_symbolic_orbit(a, z, steps, max_terms=10 ** 6):
    """Reference: x_{n+N} = Z_n (prod x^[a]+ + prod x^[-a]+) / x_n, each
    division certified in the Laurent ring of x_0..x_{N-1} and Z's symbols."""
    st_ = TStencil(a)
    n_ = st_.n
    variables = tuple(f"x{i}" for i in range(n_)) + tuple(z.symbols)
    vals = [LaurentPoly.gen(variables, f"x{i}") for i in range(n_)]
    one = LaurentPoly.const(variables, 1)
    for n in range(steps):
        w = vals[n + 1 : n + n_]
        zmono = LaurentPoly.monomial(variables, tsystem._z_exponents(z, n, len(variables)))
        num = zmono * (
            _repeated_product(w, st_.plus_exponents, one)
            + _repeated_product(w, st_.minus_exponents, one))
        nxt = laurent_try_div(num, vals[n])
        if nxt is None:
            raise NonLaurentIterate(
                f"x_{n + n_} is not a Laurent polynomial in the initial window")
        if nxt.n_terms() > max_terms:
            raise TermBudgetExceeded(f"x_{n + n_} exceeds the {max_terms}-term budget")
        vals.append(nxt)
    return vals


def _symbolic_outcome(f):
    """The variables and terms of each value, or the error."""
    try:
        vals = f()
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return [(v.vars, dict(v.terms)) for v in vals]


def assert_symbolic_matches_reference(a, z, steps, max_terms=10 ** 6):
    got = _symbolic_outcome(
        lambda: iterate_tz(TStencil(a), z, None, steps, "symbolic", max_terms).values)
    assert got == _symbolic_outcome(lambda: x_symbolic_orbit(a, z, steps, max_terms))
    return got


def _solved(a):
    """The symbolic solution of a's coefficient constraint, if a has one."""
    try:
        return solve_z(z_stencil_from_tuple(a))
    except ValueError:
        return None


# (tuple, steps): the six presets, prim3-prim9, rank 0 and full rank
LATTICE_CASES = [(get_preset(name).a, steps) for name, steps in (
    ("somos4", 10), ("somos5", 10), ("somos6", 9), ("somos7", 10),
    ("prim4", 12), ("nonintegrable6", 3))]
LATTICE_CASES += [(get_preset(f"prim{n}").a, n + 4) for n in range(3, 10)]
LATTICE_CASES += [((0, 0), 8), ((2, -3, 2), 5), ((0, 1, 0), 8), ((0,), 8), ((0, 0, 0), 8)]


@pytest.mark.parametrize("a, steps", LATTICE_CASES)
def test_lattice_coordinates_match_the_initial_window(a, steps):
    for z in (ConstantZ(), GeometricZ(), _solved(a)):
        if z is not None:
            assert_symbolic_matches_reference(a, z, steps, max_terms=2000)


def test_errors_match_the_initial_window():
    got = assert_symbolic_matches_reference(PRIM4, GeometricZ(), 8)
    assert got == (NonLaurentIterate, "x_8 is not a Laurent polynomial in the initial window")
    got = assert_symbolic_matches_reference(SOMOS4, ConstantZ(), 12, max_terms=20)
    assert got == (TermBudgetExceeded, "x_9 exceeds the 20-term budget")
    got = assert_symbolic_matches_reference(SOMOS4, ConstantZ(3), 2)
    assert got[0] is AlgebraicZCase


small_palindromes = st.integers(1, 6).flatmap(lambda k: st.lists(
    st.integers(-2, 2), min_size=(k + 1) // 2, max_size=(k + 1) // 2).map(
    lambda h: tuple(h + h[::-1][k % 2:])))


@given(small_palindromes, st.sampled_from(["one", "geo", "solved"]), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_lattice_coordinates_on_palindromic_tuples(a, kind, steps):
    z = {"one": ConstantZ(), "geo": GeometricZ(), "solved": _solved(a)}[kind]
    if z is not None:
        assert_symbolic_matches_reference(a, z, steps, max_terms=60)
