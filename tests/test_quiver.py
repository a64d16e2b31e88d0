"""Exchange matrices: construction, mutation, shift-periodicity."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import json
from pathlib import Path

from cluster_painleve.laurent import LaurentPoly
from cluster_painleve.presets import get_preset

from cluster_painleve.quiver import (
    ExchangeMatrix,
    build_from_tuple,
    is_period1,
    mutate_matrix,
    mutate_seed,
    period1_witness,
    power_product,
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


# -- JSON form -------------------------------------------------------------------


def _matrix_golden():
    docs = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text(
        encoding="utf-8")
    section = docs.split("## Exchange matrix JSON", 1)[1]
    return section.split("```json\n", 1)[1].split("```", 1)[0]


def test_matrix_json_golden_is_the_somos4_preset():
    golden = _matrix_golden()
    m = ExchangeMatrix.from_json(json.loads(golden))
    assert m == get_preset("somos4").matrix == S4
    assert json.dumps(m.to_json()) + "\n" == golden
    assert ExchangeMatrix.from_json(m.to_json()) == m
    assert ExchangeMatrix.from_json({"rows": m.as_lists()}) == m  # n is optional


def test_matrix_json_rejects_bad_input():
    with pytest.raises(ValueError, match="^matrix size disagrees with n field$"):
        ExchangeMatrix.from_json({"n": 5, "rows": S4.as_lists()})
    rows = S4.as_lists()
    rows[0][1] = 2
    with pytest.raises(ValueError, match="not skew-symmetric"):
        ExchangeMatrix.from_json({"n": 4, "rows": rows})
    rows = S4.as_lists()
    rows[2][2] = 1
    with pytest.raises(ValueError, match="diagonal"):
        ExchangeMatrix.from_json({"n": 4, "rows": rows})


# -- window power products ---------------------------------------------------------


def _repeated_product(values, exps, one):
    """Reference: multiply `one` by each value |e| times, dividing for e < 0."""
    acc = one
    for v, e in zip(values, exps):
        for _ in range(abs(e)):
            acc = acc * v if e > 0 else acc / v
    return acc


nonzero_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@given(st.lists(st.tuples(nonzero_fractions, st.integers(-3, 3)), max_size=6))
def test_power_product_matches_repeated_products_on_fractions(pairs):
    values = [v for v, _ in pairs]
    exps = [e for _, e in pairs]
    got = power_product(values, exps, Fraction(1))
    assert got == _repeated_product(values, exps, Fraction(1))
    assert type(got) is Fraction


XY = ("x", "y")
laurent_polys = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-3, 3),
    min_size=1, max_size=3).map(lambda t: LaurentPoly(XY, t))


@given(st.lists(st.tuples(laurent_polys, st.integers(0, 3)), max_size=4))
def test_power_product_matches_repeated_products_on_laurent_polys(pairs):
    values = [v for v, _ in pairs]
    exps = [e for _, e in pairs]
    one = LaurentPoly.const(XY, 1)
    assert power_product(values, exps, one) == _repeated_product(values, exps, one)


def test_power_product_without_factors_is_one():
    one = LaurentPoly.const(XY, 1)
    assert power_product([], [], one) is one
    assert power_product([LaurentPoly.monomial(XY, (1, 0))] * 3, [0, 0, 0], one) is one
    assert power_product([], []) == 1


def test_power_product_reads_only_the_nonzero_exponents():
    # None stands for a value that must not be touched: neither a factor
    # with exponent 0 nor `one` is ever multiplied in
    values = [None, Fraction(2), None, Fraction(3)]
    assert power_product(values, [0, 2, 0, -1], None) == Fraction(4, 3)
    x = LaurentPoly.monomial(XY, (1, 0))
    assert power_product([x, None], [1, 0], None) is x
