"""Exchange matrices: construction, mutation, shift-periodicity."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cluster_painleve.presets import get_preset

from cluster_painleve.quiver import (
    ExchangeMatrix,
    build_from_tuple,
    is_period1,
    mutate_matrix,
    mutate_seed,
    period1_witness,
    rho_conjugate,
)

S4 = ExchangeMatrix.from_rows([
    [0, -1, 2, -1],
    [1, 0, -3, 2],
    [-2, 3, 0, -1],
    [1, -2, 1, 0],
])

S6 = ExchangeMatrix.from_rows([
    [0, -1, 1, 0, 1, -1],
    [1, 0, -2, 1, -1, 1],
    [-1, 2, 0, -2, 1, 0],
    [0, -1, 2, 0, -2, 1],
    [-1, 1, -1, 2, 0, -1],
    [1, -1, 0, -1, 1, 0],
])


def test_builder_matches_pinned_4x4():
    assert build_from_tuple((-1, 2, -1)) == S4


def test_builder_matches_pinned_6x6():
    assert build_from_tuple((-1, 1, 0, 1, -1)) == S6


def test_skew_symmetry_enforced():
    with pytest.raises(ValueError):
        ExchangeMatrix.from_rows([[0, 1], [1, 0]])


def test_mutation_needs_valid_node():
    with pytest.raises(IndexError):
        mutate_matrix(S4, 4)


def test_builder_rejects_asymmetric_tuple():
    from cluster_painleve.quiver import NotPalindromic
    with pytest.raises(NotPalindromic):
        build_from_tuple((0, 1))


@st.composite
def tuples(draw):
    # the construction is defined for mirror-symmetric tuples only
    half = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    mid = draw(st.lists(st.integers(-3, 3), min_size=0, max_size=1))
    return tuple(half + mid + half[::-1])


tuples = tuples()


@given(tuples)
def test_builder_first_row_roundtrip(a):
    b = build_from_tuple(tuple(a))
    assert b.first_row_tuple() == tuple(a)


@given(tuples, st.integers(min_value=0, max_value=6))
def test_mutation_is_involutive(a, k):
    b = build_from_tuple(tuple(a))
    k = k % b.n
    assert mutate_matrix(mutate_matrix(b, k), k) == b


@given(tuples)
def test_built_matrices_are_period1(a):
    # the builder exists precisely to make this identity hold
    b = build_from_tuple(tuple(a))
    assert mutate_matrix(b, 0) == rho_conjugate(b)
    assert is_period1(b)


@pytest.mark.parametrize("name_rows", [S4, S6])
def test_pinned_matrices_are_period1(name_rows):
    assert period1_witness(name_rows) is None
    assert is_period1(name_rows)


def test_corrupted_matrix_reports_witness():
    rows = [list(r) for r in S4.rows]
    rows[1][2] += 1  # break one skew pair consistently
    rows[2][1] -= 1
    bad = ExchangeMatrix.from_rows(rows)
    w = period1_witness(bad)
    assert w is not None and "relation fails" in w
    assert not is_period1(bad)


def test_rho_conjugate_is_cyclic_relabelling():
    n = S4.n
    rho = rho_conjugate(S4)
    perm = [n - 1] + list(range(n - 1))  # node i of rho(B) is node perm[i] of B
    for i in range(n):
        for j in range(n):
            assert rho.rows[i][j] == S4.rows[perm[i]][perm[j]]


@pytest.mark.parametrize("name", ["somos4", "somos6", "prim4", "nonintegrable6"])
def test_seed_mutation_is_an_involution(name):
    b = get_preset(name).matrix
    y = tuple(Fraction(k + 2, 2 * k + 3) for k in range(b.n))
    for k in range(b.n):
        assert mutate_seed(*mutate_seed(b, y, k), k) == (b, y)
