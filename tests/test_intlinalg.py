from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings, strategies as st

from cluster_painleve import intlinalg
from cluster_painleve.intlinalg import (
    hermite_form,
    image_lattice_basis,
    in_lattice,
    invert_fraction,
    kernel_basis,
    lattice_equal,
    mat_mul,
    rank,
    rref,
    solve,
    solve_int,
)

B4 = [  # rank-2 skew matrix; image lattice spanned by two palindromic shifts
    [0, -1, 2, -1],
    [1, 0, -3, 2],
    [-2, 3, 0, -1],
    [1, -2, 1, 0],
]


def test_rank_and_kernel_dimensions():
    assert rank(B4) == 2
    ker = kernel_basis(B4)
    assert len(ker) == 2
    for v in ker:
        assert all(sum(B4[i][j] * v[j] for j in range(4)) == 0 for i in range(4))


def test_image_lattice_matches_palindromic_shifts():
    img = image_lattice_basis(B4)
    shifts = [[1, -2, 1, 0], [0, 1, -2, 1]]
    assert lattice_equal(img, shifts)
    assert in_lattice(img, [1, -1, -1, 1])  # sum of the two generators
    assert not in_lattice(img, [1, 0, 0, 0])


def test_solve_int_finds_integer_combinations():
    cols = [[1, -2, 1, 0], [0, 1, -2, 1]]
    assert solve_int(cols, [2, -3, 0, 1]) == (2, 1)
    assert solve_int(cols, [1, 0, 0, 0]) is None


def test_hermite_form_is_canonical():
    h1 = hermite_form([[2, 4], [1, 3]])
    h2 = hermite_form([[1, 3], [2, 4]])
    assert h1 == h2  # row order must not matter


small = st.integers(-4, 4)


@given(st.lists(st.tuples(small, small, small), min_size=1, max_size=4),
       st.lists(small, min_size=4, max_size=4))
def test_lattice_membership_closed_under_combination(rows, coeffs):
    basis = [list(r) for r in rows]
    combo = [0, 0, 0]
    for c, row in zip(coeffs, basis):
        combo = [x + c * y for x, y in zip(combo, row)]
    # any integer combination of basis rows lies in the lattice they span
    assert in_lattice(basis, combo)


@given(st.lists(st.tuples(small, small), min_size=1, max_size=3))
def test_lattice_equal_reflexive(rows):
    basis = [list(r) for r in rows]
    assert lattice_equal(basis, basis)


def _det(m):
    """Leibniz expansion; independent of the elimination code."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = sign
        for i, j in enumerate(perm):
            prod *= m[i][j]
        total += prod
    return total


def _mat(rows, cols):
    return st.lists(st.lists(small, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


square = st.integers(1, 4).flatmap(lambda n: _mat(n, n))
matrices = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(lambda rc: _mat(*rc))


@given(square)
def test_invert_fraction_roundtrip(m):
    n = len(m)
    inv = invert_fraction([[Fraction(v) for v in row] for row in m])
    if _det(m) == 0:
        assert inv is None
        return
    assert inv is not None
    prod = [[sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


@given(matrices)
def test_rank_hermite_and_kernel_agree(m):
    r = rank(m)
    # the Fraction core against the independent integer loop
    assert r == len(hermite_form(m))
    ker = kernel_basis(m)
    assert len(ker) == len(m[0]) - r
    for v in ker:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)


def test_solve_unique():
    assert solve([[1, 1], [1, -1], [2, 0]], [3, 1, 4]) == (2, 0, [2, 1])


def test_solve_underdetermined():
    assert solve([[1, 2, 3], [2, 4, 6]], [1, 2]) == (1, 2, None)


def test_solve_inconsistent():
    assert solve([[1, 2], [2, 4]], [1, 3]) == (1, -1, None)
    # inconsistency is reported before a rank deficit
    assert solve([[0, 0]], [1]) == (0, -1, None)


def _solve_by_rref(rows, rhs):
    """Reference for ``solve``: the plain Fraction elimination, no certificate."""
    m = len(rows[0])
    a, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)], m)
    r = len(pivots)
    if any(row[m] != 0 for row in a[r:]):
        return r, -1, None
    if r < m:
        return r, m - r, None
    return r, 0, [row[m] for row in a[:m]]


P = intlinalg.P
# small fractions, with P or a multiple of it now and then
entries = st.one_of(
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6)),
    st.sampled_from([Fraction(1, P), Fraction(-2, P), Fraction(P), Fraction(3, 2 * P)]))


@st.composite
def systems(draw):
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    a = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    if draw(st.booleans()):  # consistent by construction
        x = draw(st.lists(entries, min_size=cols, max_size=cols))
        rhs = [sum(u * v for u, v in zip(row, x)) for row in a]
    else:
        rhs = draw(st.lists(entries, min_size=rows, max_size=rows))
    return a, rhs


@given(systems())
@settings(max_examples=200, deadline=None)
def test_solve_matches_plain_elimination(system):
    rows, rhs = system
    assert solve(rows, rhs) == _solve_by_rref(rows, rhs)


def test_solve_finds_inconsistency_when_p_is_in_the_entries():
    # P in a denominator or as an entry changes nothing over Q
    assert solve([[1], [1]], [Fraction(1, P), 0]) == (1, -1, None)
    assert solve([[1], [1]], [P, 0]) == (1, -1, None)
    assert solve([[1], [1]], [1, 0]) == (1, -1, None)


def test_invert_fraction_rejects_singular():
    one = Fraction(1)
    assert invert_fraction([[one, one], [one, one]]) is None


def test_mat_mul_plain():
    assert mat_mul([[1, 2]], [[3], [4]]) == [[11]]
