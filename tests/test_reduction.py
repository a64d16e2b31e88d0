"""Palindromic reduction: bases, reduced recurrences, symplectic structure.

The palindromic generator, the primitive gcd of the row polynomials of a
shift-periodic B, whose shifts span im B with rank N - deg v, is the heart
of the package; every preset's generator is pinned here along with the
reduced recurrences they induce, and the Hermite route of `intlinalg`
(image lattice, lattice equality) is its independent reference.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cluster_painleve import intlinalg, quiver, reduction
from cluster_painleve.laurent import LaurentPoly
from cluster_painleve.presets import get_preset
from cluster_painleve.quiver import ExchangeMatrix, build_from_tuple, is_period1
from cluster_painleve.tsystem import TStencil, iterate_t
from cluster_painleve.zsystem import GeometricZ, solve_z, z_stencil_from_tuple

F = Fraction

# (generator, rank) per preset — the full basis is the generator's shifts
PINNED_BASES = {
    "somos4": ((1, -2, 1, 0), 2),
    "somos5": ((1, -1, -1, 1, 0), 2),
    "somos6": ((1, -2, 1, 0, 0, 0), 4),
    "somos7": ((1, 0, -1, -1, 0, 1, 0), 2),
    "prim4": ((1, 0, 0, 0), 4),
    "nonintegrable6": ((1, -3, 2, -3, 1, 0), 2),
}


@pytest.mark.parametrize("name", sorted(PINNED_BASES))
def test_palindromic_generator(name):
    gen, r = PINNED_BASES[name]
    bas = reduction.palindromic_basis(get_preset(name).matrix)
    assert (bas.generator, bas.rank) == (gen, r)
    assert bas.vectors[0][: len(bas.generator)]  # shifts start at offset 0


def _det(m):
    """Bareiss fraction-free determinant of a square integer matrix."""
    a = [list(row) for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def test_det_matches_known_values():
    assert _det([[2, 0, 1], [1, 3, 2], [1, 1, 2]]) == 6
    assert _det([[0, 1], [1, 0]]) == -1
    assert _det([[1, 2], [2, 4]]) == 0


def test_basis_has_the_independent_properties():
    # every nonzero palindromic tuple of length 1-6 with entries in [-2, 2]
    for length in range(1, 7):
        for half in itertools.product(range(-2, 3), repeat=(length + 1) // 2):
            a = half + half[: length // 2][::-1]
            if not any(a):
                continue
            b = build_from_tuple(a)
            bas = reduction.palindromic_basis(b)
            n, r = b.n, intlinalg.rank(b.as_lists())
            gen = bas.generator
            support = gen[: max(i for i, x in enumerate(gen) if x) + 1]
            assert bas.rank == r, a
            assert support == support[::-1] and gen[0] > 0, a
            assert math.gcd(*gen) == 1, a
            assert len(support) == n - r + 1, a
            shifts = bas.vectors
            assert all(intlinalg.in_lattice(shifts, row) for row in b.rows), a
            minors = [_det([[v[c] for c in cols] for v in shifts])
                      for cols in itertools.combinations(range(n), r)]
            assert math.gcd(*minors) == 1, a


def _assert_matches_hermite_route(b):
    """The basis spans the image lattice of the Hermite route, whose last
    Hermite row is s^(r-1) of the same generator."""
    bas = reduction.palindromic_basis(b)
    img = intlinalg.image_lattice_basis(b.as_lists())
    r = len(img)
    gen = tuple(img[-1][r - 1:]) + (0,) * (r - 1) if r else (0,) * b.n
    assert (bas.generator, bas.rank) == (gen, r)
    assert intlinalg.lattice_equal([list(v) for v in bas.vectors], img)


def test_basis_matches_the_hermite_route():
    # the presets, prim5-prim40, and every palindromic tuple of length 1-8
    # with entries in [-2, 2], the zero tuples (rank 0) among them; and two
    # tuples whose entries are all multiples of 2^61 - 1
    for name in PINNED_BASES:
        _assert_matches_hermite_route(get_preset(name).matrix)
    for a in ((intlinalg.P,) * 2, (intlinalg.P, 0, intlinalg.P)):
        _assert_matches_hermite_route(build_from_tuple(a))
    for n in range(5, 41):
        _assert_matches_hermite_route(get_preset("primN", n).matrix)
    for length in range(1, 9):
        for half in itertools.product(range(-2, 3), repeat=(length + 1) // 2):
            _assert_matches_hermite_route(build_from_tuple(half + half[: length // 2][::-1]))


@st.composite
def _palindromic_tuples(draw):
    length = draw(st.integers(1, 15))
    half = draw(st.lists(st.integers(-3, 3), min_size=(length + 1) // 2,
                         max_size=(length + 1) // 2))
    return tuple(half) + tuple(half[: length // 2][::-1])


@given(_palindromic_tuples())
@settings(max_examples=300, deadline=None)
def test_basis_matches_the_hermite_route_on_random_tuples(a):
    _assert_matches_hermite_route(build_from_tuple(a))


def test_failed_basis_checks_raise(monkeypatch):
    # rows L + 2L^2, -1 + 4L^2 and -2 - 4L share the factor 1 + 2L; rows L,
    # -1 and 0 are coprime, but B has rank 2: neither matrix is shift-periodic
    for rows in ([[0, 1, 2], [-1, 0, 4], [-2, -4, 0]],
                 [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]):
        with pytest.raises(reduction.EliminationFailed, match="^matrix is not "
                           "shift-periodic: last-column relation fails at row 0"):
            reduction.palindromic_basis(ExchangeMatrix.from_rows(rows))
    b = get_preset("somos4").matrix
    wrong = reduction.PalindromicBasis(4, 2, (1, 0, 0, 0))
    with pytest.raises(reduction.EliminationFailed, match="push down"):
        reduction.reduced_structure_matrix(b, wrong)
    monkeypatch.setattr(quiver, "poly_gcd", lambda rows: (-1, 0, 1))
    with pytest.raises(reduction.EliminationFailed, match="not palindromic"):
        reduction.palindromic_basis(b)


def test_basis_generator_must_lead_with_one():
    with pytest.raises(ValueError, match="must lead with 1"):
        reduction.PalindromicBasis(4, 2, (2, 1, 2, 0))
    with pytest.raises(ValueError, match="must lead with 1"):
        reduction.PalindromicBasis(3, 1, (-1, 0, 1))
    assert reduction.PalindromicBasis(4, 2, (1, 0, 0, 0)).vectors == ((1, 0, 0, 0), (0, 1, 0, 0))
    assert reduction.PalindromicBasis(3, 0, (0, 0, 0)).vectors == ()
    matrices = [get_preset(name).matrix for name in PINNED_BASES]
    matrices += [get_preset("primN", n).matrix for n in range(5, 41)]
    for b in matrices:
        for derive in (reduction.derive_usystem, reduction.derive_uzsystem):
            spec = derive(b)
            assert spec.z_power == 1
            assert spec.basis() == reduction.palindromic_basis(b)


def _gram_structure_matrix(b, basis):
    """Reference 2-form: C = M^-1 (V B V^T) M^-1 with Gram matrix M = V V^T."""
    vmat = [list(vec) for vec in basis.vectors]
    vt = intlinalg.transpose(vmat)
    minv = intlinalg.invert_fraction(intlinalg.mat_mul(vmat, vt))
    return intlinalg.mat_mul(
        intlinalg.mat_mul(minv, intlinalg.mat_mul(intlinalg.mat_mul(vmat, b.rows), vt)), minv)


def test_structure_matrix_matches_the_gram_inverse():
    # every palindromic tuple of length 1-6 with entries in [-2, 2] and
    # nonzero rank; a leading generator entry of 1 makes C integral
    swept = 0
    for length in range(1, 7):
        for half in itertools.product(range(-2, 3), repeat=(length + 1) // 2):
            a = half + half[: length // 2][::-1]
            b = build_from_tuple(a)
            bas = reduction.palindromic_basis(b)
            if not bas.rank:
                continue
            assert bas.generator[0] == 1, a
            assert reduction.reduced_structure_matrix(b, bas) == _gram_structure_matrix(b, bas), a
            swept += 1
    assert swept == 304


def test_generator_leads_with_one_and_divides_g():
    # the lemma of the quiver docstring, on every palindromic tuple of length
    # 1-7 with entries in [-3, 3] and a_1 != 0: v divides
    # g = L^N - sum_i [-a_i]_+ L^i + 1 in Z[L], so v[0] = 1, and B has
    # rank N - deg v over Q
    swept = 0
    for length in range(1, 8):
        for half in itertools.product(range(-3, 4), repeat=(length + 1) // 2):
            if half[0] == 0:
                continue
            a = half + half[: length // 2][::-1]
            b = build_from_tuple(a)
            assert is_period1(b), a  # the builder does not re-check its output
            v = reduction.palindromic_basis(b).generator
            g = [1] + [-max(-x, 0) for x in a] + [1]
            support = list(v)
            while not support[-1]:
                support.pop()
            assert v[0] == 1, a
            assert intlinalg.poly_div(g, support) is not None, a
            assert intlinalg.rank(b.rows) == b.n - (len(support) - 1), a
            swept += 1
    assert swept == 2 * (6 + 42 + 294) + 2058


def _coordinate_targets(basis, rng, rounds):
    """Lattice members, members moved off the lattice, and random vectors."""
    n, vecs = basis.n, basis.vectors
    out = []
    for _ in range(rounds):
        cs = [rng.randint(-3, 3) for _ in vecs]
        member = [sum(c * v[j] for c, v in zip(cs, vecs)) for j in range(n)]
        out.append(member)
        moved = list(member)
        moved[rng.randrange(n)] += rng.choice((-1, 1))
        out.append(moved)
        out.append([rng.randint(-3, 3) for _ in range(n)])
    return out


def test_coordinates_match_solve_int_on_shift_bases():
    # the shift bases of every palindromic tuple of length 1-9 with entries in
    # [-1, 1], two rounds each, and of length 1-8 with an entry of +-2, one round
    rng = random.Random(0)
    for length in range(1, 10):
        entries = range(-2, 3) if length <= 8 else range(-1, 2)
        for half in itertools.product(entries, repeat=(length + 1) // 2):
            a = half + half[: length // 2][::-1]
            bas = reduction.palindromic_basis(build_from_tuple(a))
            cols = [list(v) for v in bas.vectors]
            rounds = 2 if max(map(abs, a)) <= 1 else 1
            for t in _coordinate_targets(bas, rng, rounds):
                assert bas.coordinates(t) == intlinalg.solve_int(cols, t), (a, t)


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=5), st.integers(1, 4),
       st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_coordinates_match_solve_int_on_random_generators(half, rank, seed):
    # palindromic generators of length 1-9 that lead with 1, whatever their
    # inner entries; halved targets are often off the lattice
    half[0] = 1
    support = tuple(half) + tuple(half[:-1][::-1])
    bas = reduction.PalindromicBasis(len(support) + rank - 1, rank,
                                     support + (0,) * (rank - 1))
    cols = [list(v) for v in bas.vectors]
    rng = random.Random(seed)
    for t in _coordinate_targets(bas, rng, 4):
        assert bas.coordinates(t) == intlinalg.solve_int(cols, t)
        half_t = [x // 2 for x in t] if all(x % 2 == 0 for x in t) else None
        if half_t is not None:
            assert bas.coordinates(half_t) == intlinalg.solve_int(cols, half_t)


def test_zero_matrix_has_no_reduction():
    b = ExchangeMatrix.from_rows([[0, 0], [0, 0]])
    assert reduction.palindromic_basis(b).rank == 0
    with pytest.raises(reduction.ZeroRank):
        reduction.derive_usystem(b)


def _terms(spec):
    return spec.f_num.terms, spec.f_den.terms


def _derive_by_x_expansion(b, z_flag):
    """Reference: expand (x^+ + x^-)^e_top x^w as a Laurent polynomial in
    x_0..x_{N-1} and write each of its terms in the reduced variables."""
    basis = reduction.palindromic_basis(b)
    n, r = basis.n, basis.rank
    if r == 0:
        raise reduction.ZeroRank("zero matrix has no reduced recurrence")
    v = basis.generator
    a = b.first_row_tuple()
    w = [0] * (n + 1)
    for j in range(n):
        w[j] += v[j]
    for j in range(r, n + 1):
        w[j] += v[j - r]
    e_top = w[n]
    if e_top <= 0:
        raise reduction.EliminationFailed("leading generator entry must be positive")
    xvars = tuple(f"x{i}" for i in range(n))
    st_ = TStencil(a)
    mplus = LaurentPoly.monomial(xvars, (0,) + st_.plus_exponents, 1)
    mminus = LaurentPoly.monomial(xvars, (0,) + st_.minus_exponents, 1)
    e = ((mplus + mminus) ** e_top).shift(tuple([w[0] - e_top] + w[1:n]))
    uvars = tuple(f"U{j}" for j in range(1, r))
    terms = {}
    for exps, coef in e.terms.items():
        sol = basis.coordinates(exps)
        if sol is None:
            raise reduction.EliminationFailed(
                f"monomial {exps} is not a product of reduced variables")
        if sol[0] != 0:
            raise reduction.EliminationFailed("reduced recurrence would depend on U_n itself")
        key = tuple(sol[1:])
        terms[key] = terms.get(key, 0) + coef
    f = LaurentPoly(uvars, terms)
    den_exps = tuple(max(0, -f.min_exponent(i)) for i in range(len(uvars)))
    return reduction.USystemSpec(a, r, v, uvars, f, f.shift(den_exps),
                                 LaurentPoly.monomial(uvars, den_exps, 1), z_flag)


def _spec_outcome(f, *args):
    try:
        spec = f(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return spec, spec.format_text()


def test_derive_matches_the_x_expansion():
    # the matrices of every palindromic tuple of length 1-6 with entries in
    # [-2, 2], zero tuples included, through both derive functions
    matrices = [build_from_tuple(half + half[: length // 2][::-1])
                for length in range(1, 7)
                for half in itertools.product(range(-2, 3), repeat=(length + 1) // 2)]
    seen = set()
    for b in matrices:
        for derive, z_flag in ((reduction.derive_usystem, False),
                               (reduction.derive_uzsystem, True)):
            got = _spec_outcome(derive, b)
            assert got == _spec_outcome(_derive_by_x_expansion, b, z_flag), b
            seen.add(got[0] if isinstance(got[0], type) else "spec")
    assert seen == {"spec", reduction.ZeroRank}
    # a skew matrix with a palindromic first row whose row polynomials have
    # the gcd (2, 1, 2) is not shift-periodic, and is refused before any term
    b = ExchangeMatrix.from_rows([[0, 4, 2, 4], [-4, 0, -3, 2], [-2, 3, 0, 4], [-4, -2, -4, 0]])
    assert intlinalg.poly_gcd(b.rows) == (2, 1, 2)
    for derive in (reduction.derive_usystem, reduction.derive_uzsystem):
        with pytest.raises(reduction.EliminationFailed, match="^matrix is not shift-periodic"):
            derive(b)


def test_somos4_reduced_recurrence():
    spec = reduction.derive_usystem(get_preset("somos4").matrix)
    assert spec.order == 2 and not spec.z_flag
    assert _terms(spec) == ({(1,): 1, (0,): 1}, {(2,): 1})
    assert spec.format_text() == "U[n+2]*U[n] = (U1 + 1) / (U1^2)"


def test_somos5_reduced_recurrence():
    spec = reduction.derive_usystem(get_preset("somos5").matrix)
    assert spec.order == 2
    assert _terms(spec) == ({(1,): 1, (0,): 1}, {(1,): 1})


def test_somos6_reduced_recurrence():
    spec = reduction.derive_usystem(get_preset("somos6").matrix)
    assert spec.order == 4
    assert _terms(spec) == ({(1, 1, 1): 1, (0, 0, 0): 1}, {(2, 2, 2): 1})


def test_somos7_keeps_a_coefficient():
    spec = reduction.derive_uzsystem(get_preset("somos7").matrix)
    assert spec.order == 2 and spec.z_flag and spec.z_power == 1
    assert _terms(spec) == ({(1,): 1, (0,): 1}, {(0,): 1})
    assert spec.format_text() == "U[n+2]*U[n] = Z[n] * (U1 + 1)"


def test_prim4_reduction_is_the_identity():
    # rank equals matrix size: the reduced recurrence is the original one
    spec = reduction.derive_usystem(get_preset("prim4").matrix)
    assert spec.order == 4 and spec.generator == (1, 0, 0, 0)
    assert _terms(spec) == ({(1, 0, 1): 1, (0, 0, 0): 1}, {(0, 0, 0): 1})


def test_nonintegrable6_reduced_recurrence():
    spec = reduction.derive_usystem(get_preset("nonintegrable6").matrix)
    assert spec.order == 2
    assert _terms(spec) == ({(2,): 1, (0,): 1}, {(3,): 1})


def test_projection_is_the_generator_monomial():
    # somos4 generator (1,-2,1,0): U_n = x_n x_{n+2} / x_{n+1}^2
    bas = reduction.palindromic_basis(get_preset("somos4").matrix)
    orb = iterate_t(TStencil((-1, 2, -1)), [F(1), F(2), F(3), F(5)], 6)
    v = orb.values
    for n in range(4):
        u = reduction.project(bas, v[n : n + 4])
        assert u[0] == v[n] * v[n + 2] / v[n + 1] ** 2
        assert u[1] == v[n + 1] * v[n + 3] / v[n + 2] ** 2


def test_projection_rejects_zero_entries():
    bas = reduction.palindromic_basis(get_preset("somos4").matrix)
    with pytest.raises(reduction.ZeroComponent):
        reduction.project(bas, [F(1), F(0), F(1), F(1)])


def test_usystem_steps_must_be_nonnegative():
    spec = reduction.derive_usystem(get_preset("somos4").matrix)
    with pytest.raises(ValueError, match="^steps must be nonnegative$"):
        reduction.iterate_usystem(spec, [F(2), F(3)], -1)


def test_usystem_takes_z_exactly_when_the_recurrence_carries_one():
    b = get_preset("somos4").matrix
    z = GeometricZ(5, 7)
    with pytest.raises(ValueError, match="carries a coefficient sequence; pass z"):
        reduction.iterate_usystem(reduction.derive_uzsystem(b), [F(2), F(3)], 4)
    with pytest.raises(ValueError, match="carries no coefficient sequence; z would be ignored"):
        reduction.iterate_usystem(reduction.derive_usystem(b), [F(2), F(3)], 4, z=z)


rational9 = st.fractions(min_value=F(1, 9), max_value=F(9), max_denominator=9)


@pytest.mark.parametrize("name", ["somos4", "somos5", "somos6"])
def test_reduction_conjugates_the_dynamics(name):
    b = get_preset(name).matrix
    init = [F(2), F(1, 3), F(5), F(7, 2), F(1), F(4)][: b.n]
    assert reduction.verify_conjugacy(b, init, 12)


@pytest.mark.parametrize("name, n", [("somos6", None), ("primN", 5), ("primN", 8)])
@pytest.mark.parametrize("kind", ["solved", "geometric"])
def test_reduction_conjugates_the_dynamics_with_coefficients(name, n, kind):
    # orders 4, 3 and 6: the U-engine's pieces shared by every term of F,
    # with Z_n entering as pieces of its bound bases
    p = get_preset(name, n) if n else get_preset(name)
    if kind == "solved":
        zst = z_stencil_from_tuple(p.a)
        z = solve_z(zst, [F(2, 3), F(-5, 4), F(7), F(1, 6), F(3), F(5, 2)][:zst.order])
    else:
        z = GeometricZ(F(3, 2), F(5, 7))
    init = [F(3, 2), F(-2, 5), F(1, 4), F(4, 3), F(-1, 7), F(5), F(2, 9), F(7, 5)][:p.n]
    assert reduction.verify_conjugacy(p.matrix, init, 12, z)


@given(st.lists(rational9, min_size=4, max_size=4))
@settings(max_examples=25, deadline=None)
def test_conjugacy_on_random_windows(init):
    assert reduction.verify_conjugacy(get_preset("somos4").matrix, init, 8)


def test_reduced_two_form_somos4():
    b = get_preset("somos4").matrix
    chat = reduction.reduced_structure_matrix(b, reduction.palindromic_basis(b))
    assert chat == [[0, -1], [1, 0]]


def test_reduced_two_form_somos6():
    b = get_preset("somos6").matrix
    chat = reduction.reduced_structure_matrix(b, reduction.palindromic_basis(b))
    assert chat == [
        [0, -1, -1, -1],
        [1, 0, -1, -1],
        [1, 1, 0, -1],
        [1, 1, 1, 0],
    ]


def test_log_canonical_bracket_pattern():
    b = get_preset("somos6").matrix
    chat = reduction.reduced_structure_matrix(b, reduction.palindromic_basis(b))
    pt = [F(2), F(3), F(5), F(7)]
    pb = reduction.poisson_bracket_matrix(chat, pt)
    for i in range(4):
        for j in range(i + 1, 4):
            sign = -1 if j - i == 2 else 1
            assert pb[i][j] == sign * pt[i] * pt[j]


@pytest.mark.parametrize("name,dim", [("somos4", 2), ("somos6", 4)])
def test_symplectic_form_preserved(name, dim):
    b = get_preset(name).matrix
    pts = [[F(k + 2, j + 1) for j in range(dim)] for k in range(3)]
    assert reduction.verify_form_invariance(b, pts)


def test_symplectic_form_entries():
    b = get_preset("somos4").matrix
    chat = reduction.reduced_structure_matrix(b, reduction.palindromic_basis(b))
    om = reduction.symplectic_form_at(chat, [F(2), F(3)])
    assert om == [[0, F(-1, 6)], [F(1, 6), 0]]


@pytest.mark.parametrize("name", ["somos4", "somos5", "somos6", "somos7", "prim4",
                                  "nonintegrable6"])
def test_dilog_identity_holds_exactly(name):
    assert reduction.generating_function_check(get_preset(name).matrix)


def test_dilog_identity_fails_off_the_shift_periodic_matrices():
    rows = [list(row) for row in get_preset("somos4").matrix.rows]
    rows[1][2] += 1
    rows[2][1] -= 1
    b = ExchangeMatrix.from_rows(rows)
    assert not is_period1(b)
    assert not reduction.generating_function_check(b)
