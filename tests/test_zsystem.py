"""Coefficient constraints: stencils, spectra, closed forms, solutions."""

import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from cluster_painleve import zsystem
from cluster_painleve.intlinalg import poly_div
from cluster_painleve.laurent import format_rational
from cluster_painleve.presets import get_preset
from cluster_painleve.zsystem import (
    AlgebraicZCase,
    ConstantZ,
    GeometricZ,
    PerturbedZ,
    ZeroInitial,
    char_poly,
    exponent_degree_sequence,
    factor_over_integers,
    factor_roots,
    solve_z,
    spectral_radius,
    z_stencil_from_tuple,
)
from cluster_painleve.zsystem import _exact_fraction_root, _exact_int_root, _poly_normalize

F = Fraction

# small primitive factors, coefficients ascending
SMALL_FACTORS = [(-1, 1), (1, 1), (-1, 2), (1, 2), (1, 1, 1), (1, -1, 1), (1, 0, 1),
                 (1, -3, 1), (-1, 0, 1), (1, 0, 0, 1), (-1, 0, 0, 1), (2, 1, 1)]


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def test_stencil_negates_and_trims():
    st = z_stencil_from_tuple((-1, 2, -1))
    assert st.exponents == (1, -2, 1)
    assert (st.lo, st.hi, st.order) == (1, 3, 2)
    assert st.trimmed == (1, -2, 1)


def test_stencil_interior_zeros_keep_order():
    st = z_stencil_from_tuple((-1, 0, -1))
    assert st.trimmed == (1, 0, 1)
    assert st.order == 2


def test_constraint_text():
    st = z_stencil_from_tuple((-1, 2, -1))
    assert st.constraint_text() == "Z[n+1]*Z[n+3] / (Z[n+2]^2) = 1"


class TestCharPoly:
    def test_double_root_at_one(self):
        cp = char_poly(z_stencil_from_tuple((-1, 2, -1)))
        assert cp.factors == (((-1, 1), 2),)
        assert cp.format_text() == "(L - 1)^2"

    def test_quartic_splits_into_quadratics(self):
        cp = char_poly(z_stencil_from_tuple((-2, 6, -4, 6, -2)))
        assert {f for f, _ in cp.factors} == {(1, 0, 1), (1, -3, 1)}

    @pytest.mark.parametrize("name, text", [
        ("somos4", "(L - 1)^2"),
        ("somos5", "(L - 1)^2(L + 1)"),
        ("somos6", "(L - 1)^2(L^2 + L + 1)"),
        ("somos7", "(L - 1)^2(L + 1)(L^2 + L + 1)"),
        ("nonintegrable6", "(L^2 - 3L + 1)(L^2 + 1)"),
        ("prim3", "(L + 1)"),
        ("prim4", "(L^2 + 1)"),
        ("prim5", "(L + 1)(L^2 - L + 1)"),
        ("prim6", "(L^4 + 1)"),
        ("prim7", "(L + 1)(L^4 - L^3 + L^2 - L + 1)"),
        ("prim8", "(L^2 + 1)(L^4 - L^2 + 1)"),
        ("prim9", "(L + 1)(L^6 - L^5 + L^4 - L^3 + L^2 - L + 1)"),
        ("prim10", "(L^8 + 1)"),
        ("prim11", "(L + 1)(L^2 - L + 1)(L^6 - L^3 + 1)"),
        ("prim12", "(L^2 + 1)(L^8 - L^6 + L^4 - L^2 + 1)"),
    ])
    def test_preset_factorizations(self, name, text):
        assert char_poly(z_stencil_from_tuple(get_preset(name).a)).format_text() == text

    def test_leftover_splits_into_squarefree_factors(self):
        # no factor of degree 1 or 2 divides these leftovers
        cp = char_poly(z_stencil_from_tuple((-1, -2, -7, -8, -13, -8, -7, -2, -1)))
        assert cp.factors == (((1, 1, 3, 1, 1), 2),)
        assert cp.format_text() == "(L^4 + L^3 + 3L^2 + L + 1)^2"
        quartic, quintic = (1, 1, 3, 1, 1), (1, 0, 0, 1, 0, 1)
        p = _poly_mul(_poly_mul(quartic, quartic), _poly_mul(quintic, _poly_mul(quintic, quintic)))
        assert factor_over_integers(p) == [(quartic, 2), (quintic, 3)]

    def test_roots_per_factor(self):
        cp = char_poly(z_stencil_from_tuple((-1, -2, -7, -8, -13, -8, -7, -2, -1)))
        roots = factor_roots(cp)
        assert [len(block) for block in roots] == [4]
        assert spectral_radius(roots) == 1.539222338420433
        assert spectral_radius(factor_roots(char_poly(z_stencil_from_tuple((0, 1, 0))))) == 0.0

    def test_a_root_search_that_does_not_converge_names_its_factor(self, monkeypatch):
        import mpmath
        from mpmath.libmp import NoConvergence

        def stuck(*args, **kwargs):
            raise NoConvergence("no convergence")
        monkeypatch.setattr(mpmath, "polyroots", stuck)
        with pytest.raises(ArithmeticError, match=r"roots of L\^2 - 3L \+ 1 did not"):
            factor_roots(char_poly(z_stencil_from_tuple(get_preset("nonintegrable6").a)))

    @given(st.lists(st.sampled_from(SMALL_FACTORS), min_size=1, max_size=4),
           st.sampled_from([1, -1, 2, -3]))
    @settings(max_examples=150, deadline=None)
    def test_factors_multiply_back(self, fs, scale):
        p = (scale,)
        for f in fs:
            p = _poly_mul(p, f)
        prod = (1,)
        for f, m in factor_over_integers(p):
            assert f == _poly_normalize(f) and f[-1] > 0 and len(f) > 1
            for _ in range(m):
                prod = _poly_mul(prod, f)
        assert prod == _poly_normalize(p)


class TestClosedForms:
    def test_geometric(self):
        sol = solve_z(z_stencil_from_tuple((-1, 2, -1)))
        assert sol.closed_form["family"] == "geometric"

    def test_periodic_geometric(self):
        sol = solve_z(z_stencil_from_tuple((-1, 1, 1, -1)))
        cf = sol.closed_form
        assert cf["family"] == "periodic_geometric" and cf["period"] == 2

    def test_antiperiodic_prim4(self):
        sol = solve_z(z_stencil_from_tuple((-1, 0, -1)))
        cf = sol.closed_form
        assert cf["family"] == "antiperiodic" and cf["period"] == 4

    def test_antiperiodic_prim5(self):
        sol = solve_z(z_stencil_from_tuple((-1, 0, 0, -1)))
        cf = sol.closed_form
        assert cf["family"] == "antiperiodic" and cf["period"] == 6


def test_solved_antiperiodic_cycle():
    sol = solve_z(z_stencil_from_tuple((-1, 0, -1)), [F(2), F(3)])
    got = [sol.value(n) for n in range(8)]
    assert got == [F(2), F(3), F(1, 2), F(1, 3), F(2), F(3), F(1, 2), F(1, 3)]
    assert all(got[n] * got[n + 2] == 1 for n in range(6))


def test_solve_z_symbol_count_check():
    st = z_stencil_from_tuple((-1, 2, -1))
    assert solve_z(st, [F(2), F(3)]).symbols == ("Z0", "Z1")
    with pytest.raises(ValueError, match="needs 2 initial entries, got 3"):
        solve_z(st, [F(2), F(3), F(5)])


def test_solve_z_rejects_zero_values():
    st = z_stencil_from_tuple((-1, 2, -1))
    with pytest.raises(ZeroInitial):
        solve_z(st, [F(0), F(1)])


def test_geometric_z_values_and_symbols():
    z = GeometricZ(F(2), F(3, 2))
    assert [z.value(n) for n in range(4)] == [F(2), F(3), F(9, 2), F(27, 4)]
    assert z.symbols == ("beta", "q") and z.bound == (F(2), F(3, 2))
    assert z.monomial(5) == (1, 5)
    assert GeometricZ().bound is None and GeometricZ().monomial(5) == (1, 5)


def test_perturbed_z_wraps_base():
    z = PerturbedZ(GeometricZ(F(1), F(2)), {3: F(7)})
    assert z.value(3) == 7 * 2 ** 3
    assert z.value(4) == 2 ** 4
    assert z.bound == (F(1), F(2))
    assert z.monomial(2) == (1, 2)  # untouched entries keep their monomial form
    assert z.monomial(3) is None


def test_constant_z_monomial_only_for_one():
    assert ConstantZ().monomial(9) == () and ConstantZ().bound == ()
    assert ConstantZ(F(2)).monomial(0) is None
    with pytest.raises(ZeroInitial):
        ConstantZ(0)


def test_exponent_growth_tracks_spectral_radius():
    sol = solve_z(z_stencil_from_tuple((-2, 6, -4, 6, -2)))
    degs = exponent_degree_sequence(sol, 41)
    lam = (3 + 5 ** 0.5) / 2
    assert abs(degs[40] / degs[39] - lam) < 1e-2 * lam


def test_geometric_solution_grows_linearly():
    sol = solve_z(z_stencil_from_tuple((-1, 2, -1)))
    degs = exponent_degree_sequence(sol, 10)
    # Z_n = Z0^(1-n) Z1^n: total degree |1-n| + n
    assert degs == [1, 1, 3, 5, 7, 9, 11, 13, 15, 17]


def test_exact_root_of_a_large_square():
    # a float square root misses this perfect square by more than one
    assert _exact_fraction_root(F((3 ** 40 + 1) ** 2), 2) == 3 ** 40 + 1


def test_exact_root_beyond_float_range():
    # 10**400 overflows a float
    assert _exact_fraction_root(F(10 ** 400), 2) == 10 ** 200
    assert _exact_fraction_root(F(1, 10 ** 400), 2) == F(1, 10 ** 200)
    assert _exact_fraction_root(F(10 ** 400 + 1), 2) is None


@given(st.integers(0, 10 ** 60), st.integers(1, 10 ** 6), st.integers(1, 7))
def test_exact_root_inverts_powers(num, den, k):
    x = F(num, den)
    assert _exact_fraction_root(x ** k, k) == x
    if num and k > 1:
        assert _exact_fraction_root(x ** k + F(1, den ** k), k) is None
    assert _exact_fraction_root(-(x ** k) - 1, k) is None


@pytest.mark.parametrize("a, init, message", [
    ((-2, 1, -2), [F(1), F(3)], "entry 2 needs a root of degree 2 of 3"),
    ((3, 1, 3), [F(2), F(3)], "entry 2 needs a root of degree 3 of 3"),
])
def test_algebraic_case_names_the_root_degree(a, init, message):
    sol = solve_z(z_stencil_from_tuple(a), init)
    with pytest.raises(AlgebraicZCase, match=f"^{message}$"):
        sol.value(2)


def test_exact_root_of_high_degree_returns_at_once():
    # for m >= 2 and k >= m.bit_length() the root lies in (1, 2); Newton from
    # r = 2 would first build r ** (k - 1), a k-bit integer
    start = time.perf_counter()
    assert _exact_int_root(5, 2 ** 23) is None
    assert _exact_int_root(2 ** 64 - 1, 64) is None
    assert _exact_int_root(2 ** 64, 64) == 2
    # exponent denominators 3^19 and 3^29 at entries 20 and 30
    sol = solve_z(z_stencil_from_tuple((-3, 1, -3)), [4, 9])
    for n in (20, 30):
        with pytest.raises(AlgebraicZCase):
            sol.value(n)
    assert time.perf_counter() - start < 1.0


# -- integer exponent tables ---------------------------------------------------


def _fraction_tables(stencil, count):
    """Reference: the exponent tables in Fraction arithmetic throughout."""
    e, r = stencil.trimmed, stencil.order
    lead = e[r]
    tables = [tuple(F(int(i == m)) for i in range(r)) for m in range(r)]
    while len(tables) < count:
        m = len(tables) - r
        acc = [F(0)] * r
        for k in range(r):
            if e[k]:
                for i in range(r):
                    acc[i] -= e[k] * tables[m + k][i]
        tables.append(tuple(x / lead for x in acc))
    return tables


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc)


def _assert_tables_match(a, init):
    stencil = z_stencil_from_tuple(a)
    r = stencil.order
    count = 3 * r + 40
    ref_tables = _fraction_tables(stencil, count)
    sol = solve_z(stencil, init)
    # the same solution on the reference tables: value and degree read them
    ref = solve_z(stencil, init)
    ref._tables = list(ref_tables)
    for n, want in enumerate(ref_tables):
        got = sol.exponents(n)
        assert got == want
        assert all(type(x) is (int if x.denominator == 1 else F) for x in got)
        if all(x.denominator == 1 for x in want):
            mono = sol.monomial(n)
            assert mono == tuple(int(x) for x in want)
            assert all(type(x) is int for x in mono)
        else:
            assert sol.monomial(n) is None
        assert sol.degree(n) == ref.degree(n)
        if all(abs(x.numerator) <= 64 and x.denominator <= 64 for x in want):  # small roots
            assert _outcome(sol.value, n) == _outcome(ref.value, n)
    assert sol.closed_form == solve_z(stencil, init).closed_form
    cf = sol.closed_form
    if cf is not None and cf["family"] == "periodic_geometric":
        p = cf["period"]
        delta = tuple(x - y for x, y in zip(ref_tables[p], ref_tables[0]))
        assert cf["ratio_power_vector"] == delta
        assert [format_rational(x) for x in cf["ratio_power_vector"]] == [
            format_rational(x) for x in delta]
    assert (_outcome(exponent_degree_sequence, sol, count)
            == _outcome(exponent_degree_sequence, ref, count))


@pytest.mark.parametrize("a", [get_preset(name).a for name in
                               ("somos4", "somos5", "somos6", "somos7", "prim4",
                                "nonintegrable6")]
                         + [get_preset("primN", n).a for n in (5, 6, 7)]
                         + [(-2, 1, -2)])  # lead 2, divisions that leave a remainder
def test_integer_tables_match_fraction_tables(a):
    r = z_stencil_from_tuple(a).order
    _assert_tables_match(a, [F(4), F(9, 4), F(16), F(1, 25)][:r] + [F(36)] * max(0, r - 4))


@given(st.lists(st.integers(-3, 3), min_size=2, max_size=6)
       .filter(lambda a: any(a)))
@settings(max_examples=60, deadline=None)
def test_integer_tables_match_fraction_tables_on_any_stencil(a):
    r = z_stencil_from_tuple(a).order
    _assert_tables_match(tuple(a), [F((k + 2) ** 2, 9) for k in range(r)])


def test_fractional_exponents_stay_fractions():
    sol = solve_z(z_stencil_from_tuple((-2, 1, -2)))
    assert sol.exponents(2) == (-1, F(1, 2)) and sol.monomial(2) is None
    assert type(sol.exponents(2)[0]) is int


def test_zsys_bytes_unchanged(capsys):
    """The docs/formats.md golden and the periodic closed form keep their bytes."""
    import json
    from pathlib import Path

    from cluster_painleve.cli import main

    root = Path(__file__).resolve().parents[1]
    docs = (root / "docs" / "formats.md").read_text(encoding="utf-8")
    golden = docs.split("$ cluster-painleve zsys --preset somos4", 1)[1]
    golden = golden.split("```json\n", 1)[1].split("```", 1)[0]
    assert main(["zsys", "--preset", "somos4"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == json.loads(golden)
    assert out == (root / "perfbench" / "goldens" / "zsys_somos4.json").read_text(
        encoding="utf-8")
    assert main(["zsys", "--preset", "somos5"]) == 0
    out = capsys.readouterr().out
    assert ('    "ratio_power_vector": [\n      "-1",\n      "0",\n      "1"\n    ]\n'
            in out)


def _ratio_power_vector_by_scan(sol):
    """Reference: e_{m+p} - e_m over 2r + p indices m, or None if it moves."""
    r, p = sol.order, sol.closed_form["period"]
    delta = None
    for m in range(2 * r + p):
        d = tuple(x - y for x, y in zip(sol.exponents(m + p), sol.exponents(m)))
        if delta is None:
            delta = d
        elif d != delta:
            return None
    return delta


@pytest.mark.parametrize("r", range(3, 11))
def test_ratio_power_vector_matches_the_scan(r):
    a = (-1, 1) + (0,) * (r - 3) + (1, -1)
    for init in (None, [F(k + 2, 2 * k + 3) for k in range(r)]):
        sol = solve_z(z_stencil_from_tuple(a), init)
        cf = sol.closed_form
        assert cf["family"] == "periodic_geometric" and cf["period"] == r - 1
        want = _ratio_power_vector_by_scan(sol)
        assert want is not None and cf["ratio_power_vector"] == want
        assert all(type(x) is int for x in cf["ratio_power_vector"])


# -- integer polynomial division -------------------------------------------------


def _divmod_over_q(p, q):
    """Long division over Q: (quotient, remainder) of Fraction lists."""
    p = list(p)
    out = [Fraction(0)] * (len(p) - len(q) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = p[i + len(q) - 1] / q[-1]
        out[i] = c
        if c:
            for j, b in enumerate(q):
                p[i + j] -= c * b
    return out, p[: len(q) - 1]


def _div_over_q(p, q):
    """Reference for `intlinalg.poly_div`: divide over Q, then ask for an
    integral quotient and a zero remainder."""
    if len(q) > len(p):
        return None
    quo, rem = _divmod_over_q([Fraction(c) for c in p], [Fraction(c) for c in q])
    if any(r != 0 for r in rem) or any(c.denominator != 1 for c in quo):
        return None
    return tuple(int(c) for c in quo)


coeffs = st.integers(-6, 6)
divisors = st.builds(lambda body, lead: tuple(body) + (lead,),
                     st.lists(coeffs, max_size=3), coeffs.filter(bool))


@st.composite
def divisions(draw):
    """(p, q, s): p = s q exactly when s is not None."""
    q, s = draw(divisors), tuple(draw(st.lists(coeffs, min_size=1, max_size=5)))
    kind = draw(st.sampled_from(["exact", "perturbed", "content", "any"]))
    if kind == "exact":
        return _poly_mul(s, q), q, s
    if kind == "perturbed":
        p = list(_poly_mul(s, q))
        p[draw(st.integers(0, len(p) - 1))] += draw(coeffs.filter(bool))
        return tuple(p), q, None
    if kind == "content":  # q times c > 1 and not monic: the quotient is s / c over Q
        c = draw(st.integers(2, 5))
        return _poly_mul(s, q), tuple(c * x for x in q), None
    return tuple(draw(st.lists(coeffs, max_size=7))), q, None


@given(divisions())
@example(((0, 0, 0), (1, 2), (0, 0)))  # zero dividend
@example(((0,), (3,), (0,)))
@example(((1, 2), (1, 2, 3), None))  # divisor longer than dividend
@example(((), (1,), None))
@settings(max_examples=400, deadline=None)
def test_poly_div_matches_division_over_q(case):
    p, q, s = case
    got = poly_div(p, q)
    assert got == _div_over_q(p, q)
    if s is not None:
        assert got == s


def _palindromes(max_len, entries):
    for n in range(1, max_len + 1):
        for half in product(entries, repeat=(n + 1) // 2):
            yield half + half[: n // 2][::-1]


def test_char_poly_unchanged_under_division_over_q(monkeypatch):
    stencils = [z_stencil_from_tuple(a) for a in _palindromes(6, range(-2, 3)) if any(a)]
    got = [_outcome(char_poly, stencil) for stencil in stencils]
    monkeypatch.setattr(zsystem, "poly_div", _div_over_q)
    assert [_outcome(char_poly, stencil) for stencil in stencils] == got
