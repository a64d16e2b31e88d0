"""Sparse Laurent arithmetic and the certified-division primitive."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cluster_painleve.laurent import (
    EXP_MAX,
    EXP_MIN,
    ExponentOverflowError,
    LaurentPoly,
    format_rational,
    laurent_try_div,
    parse_rational,
)

V = ("x", "y")


def P(terms):
    return LaurentPoly(V, terms)


def test_constructor_drops_zero_coefficients():
    p = P({(1, 0): 3, (0, 1): 0})
    assert p.terms == {(1, 0): 3}


def test_gen_and_monomial():
    x = LaurentPoly.gen(V, "x")
    assert x.terms == {(1, 0): 1}
    m = LaurentPoly.monomial(V, (-2, 1), 5)
    assert m.terms == {(-2, 1): 5}


def test_mixed_variable_lists_rejected():
    with pytest.raises(ValueError):
        P({(1, 0): 1}) + LaurentPoly(("x",), {(1,): 1})


def test_min_exponent_and_shift():
    p = P({(-2, 1): 1, (3, 0): 4})
    assert p.min_exponent(0) == -2
    assert p.min_exponent(1) == 0
    q = p.shift((2, 0))
    assert q.terms == {(0, 1): 1, (5, 0): 4}


def test_evaluate_requires_every_variable():
    p = P({(1, 1): 1})
    assert p.evaluate({"x": Fraction(2), "y": Fraction(3, 2)}) == 3
    with pytest.raises(KeyError):
        p.evaluate({"x": Fraction(2)})


exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
coefs = st.integers(-9, 9).filter(bool)
polys = st.dictionaries(exps, coefs, min_size=0, max_size=5).map(P)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


@given(polys, polys, polys)
def test_ring_distributivity(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(polys, nonzero_polys)
@settings(max_examples=150)
def test_try_div_roundtrip(p, q):
    got = laurent_try_div(p * q, q)
    assert got == p


def test_try_div_refuses_non_laurent_quotient():
    x = LaurentPoly.gen(V, "x")
    one = LaurentPoly.const(V, 1)
    assert laurent_try_div(x, x + one) is None


def test_try_div_refuses_a_leading_term_that_does_not_divide():
    x, y = LaurentPoly.gen(V, "x"), LaurentPoly.gen(V, "y")
    one = LaurentPoly.const(V, 1)
    assert laurent_try_div(x + y, y + one) is None
    assert laurent_try_div(x * x * x + y * y * y, x + y * y) is None
    # deg_y(q) > deg_y(p): refused before any reduction step
    assert laurent_try_div(x ** 1000000, x + y) is None


def test_try_div_by_monomial_always_succeeds():
    p = P({(0, 0): 1, (1, 2): 7})
    m = LaurentPoly.monomial(V, (3, -1), 1)
    assert laurent_try_div(p, m) == p.shift((-3, 1))


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))
def test_rational_string_roundtrip(num, den):
    f = Fraction(num, den)
    assert parse_rational(format_rational(f)) == f


def test_parse_rational_accepts_integers():
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(3, 1)) == "3"


def test_json_roundtrip_preserves_terms():
    p = P({(2, -1): 3, (0, 0): -5})
    assert LaurentPoly.from_json(p.to_json()) == p


def test_coefficients_past_the_int_digit_limit(default_int_digits):
    big, digits = 10 ** 5000 + 7, "1" + "0" * 4999 + "7"
    p = P({(2, -1): big, (0, 0): -big, (1, 1): 1})
    data = p.to_json()
    assert [t["coef"] for t in data["terms"]] == [digits, "1", "-" + digits]
    assert LaurentPoly.from_json(json.dumps(data)) == p
    assert str(p) == f"{digits}*x^2*y^-1 + x*y - {digits}"
    assert str(P({(0, 0): big})) == digits


# -- packed kernel against a dense-tuple reference -----------------------------

def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            k = _add(ea, eb)
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


class _TooLong(Exception):
    pass


def ref_div(p, q, max_steps=2000):
    """Lex reduction on exponent tuples after clearing monomial content."""
    if not p:
        return {}
    n = len(next(iter(q)))
    mp = tuple(min(e[i] for e in p) for i in range(n))
    mq = tuple(min(e[i] for e in q) for i in range(n))
    rem = {_sub(e, mp): c for e, c in p.items()}
    qw = {_sub(e, mq): c for e, c in q.items()}
    lead = max(qw)
    quot = {}
    for _ in range(max_steps):
        if not rem:
            back = _sub(mp, mq)
            return {_add(e, back): c for e, c in quot.items()}
        top = max(rem)
        e = _sub(top, lead)
        if min(e) < 0 or rem[top] % qw[lead]:
            return None
        c = rem[top] // qw[lead]
        quot[e] = c
        for eq, cq in qw.items():
            k = _add(e, eq)
            s = rem.get(k, 0) - c * cq
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    raise _TooLong


def ref_json(variables, terms):
    return {"vars": list(variables),
            "terms": [{"exp": list(e), "coef": str(c)}
                      for e, c in sorted(terms.items(), reverse=True)]}


@st.composite
def dense_polys(draw, lo=-50, hi=50, count=3, max_terms=6):
    n = draw(st.integers(1, 8))
    exps = st.tuples(*[st.integers(lo, hi)] * n)
    terms = st.dictionaries(exps, st.integers(-20, 20).filter(bool), max_size=max_terms)
    return tuple(f"v{i}" for i in range(n)), [draw(terms) for _ in range(count)]


@given(dense_polys())
@settings(max_examples=150, deadline=None)
def test_packed_kernel_matches_dense_reference(case):
    names, (a, b, d) = case
    pa, pb = LaurentPoly(names, a), LaurentPoly(names, b)
    prod = pa * pb
    assert dict(prod.terms) == ref_mul(a, b)
    assert prod.to_json() == ref_json(names, ref_mul(a, b))
    assert pa.to_json() == ref_json(names, a)
    if d:
        shift = next(iter(d))
        assert dict(pa.shift(shift).terms) == {_add(e, shift): c for e, c in a.items()}
    if b:
        assert laurent_try_div(prod, pb) == pa
        try:
            want = ref_div(a, b)
        except _TooLong:
            return
        got = laurent_try_div(pa, pb)
        assert (got is None) == (want is None)
        if got is not None:
            assert dict(got.terms) == want


def test_terms_view_is_the_dense_tuple_dict():
    terms = {(2, -1, 0): 3, (0, 0, 7): -5, (-4, 0, 0): 1, (1, 1, 1): 0}
    p = LaurentPoly(("x", "y", "z"), terms)
    view = p.terms
    dense = {e: c for e, c in terms.items() if c}
    assert view == dense and dense == view
    assert dict(view) == dense and dict(view.items()) == dense
    assert sorted(view) == sorted(dense) and sorted(view.values()) == sorted(dense.values())
    assert all(type(e) is tuple and all(type(v) is int for v in e) for e in view)
    assert len(view) == 3 and view[(0, 0, 7)] == -5
    assert (1, 1, 1) not in view and (2, -1) not in view and "x" not in view
    with pytest.raises(KeyError):
        view[(9, 9, 9)]
    with pytest.raises(TypeError):
        view[(1, 1, 1)] = 4
    assert p.leading() == ((2, -1, 0), 3)
    assert str(p) == "3*x^2*y^-1 - 5*z^7 + x^-4"


# -- the packed exponent range -------------------------------------------------


def test_exponents_outside_the_packed_range_are_refused():
    assert LaurentPoly.monomial(V, (EXP_MAX, EXP_MIN)).terms == {(EXP_MAX, EXP_MIN): 1}
    for bad in ((EXP_MAX + 1, 0), (0, EXP_MIN - 1), (10 ** 40, 0)):
        with pytest.raises(ExponentOverflowError):
            LaurentPoly.monomial(V, bad)
    with pytest.raises(OverflowError):
        LaurentPoly.from_json({"vars": ["x"], "terms": [{"exp": [EXP_MAX + 1], "coef": "1"}]})


@pytest.mark.parametrize("a, b", [
    ((EXP_MAX, 0), (1, 0)),       # top field overflows
    ((EXP_MIN, 0), (-1, 0)),      # top field underflows
    ((5, EXP_MAX), (-3, 1)),      # a carry out of the low field would land in x
    ((5, EXP_MIN), (-3, -1)),     # a borrow from the high field
    ((EXP_MAX, EXP_MAX), (EXP_MAX, EXP_MAX)),
    ((EXP_MIN, EXP_MIN), (EXP_MIN, EXP_MIN)),
])
def test_products_past_the_limit_raise(a, b):
    one = LaurentPoly.const(V, 1)
    ma, mb = LaurentPoly.monomial(V, a), LaurentPoly.monomial(V, b)
    for x, y in ((ma, mb), (ma + one, mb + one), (ma, mb + one)):
        with pytest.raises(ExponentOverflowError):
            x * y
    with pytest.raises(ExponentOverflowError):
        ma.shift(b)


def test_shift_division_and_powers_past_the_limit_raise():
    x = LaurentPoly.gen(V, "x")
    with pytest.raises(ExponentOverflowError):
        x.shift((2 ** 62, -2 ** 62))
    with pytest.raises(ExponentOverflowError):
        x ** (EXP_MAX + 1)
    with pytest.raises(ExponentOverflowError):
        x ** (EXP_MIN - 1)
    low = LaurentPoly.monomial(V, (EXP_MIN, 0))
    with pytest.raises(ExponentOverflowError):
        laurent_try_div(low, x)
    assert laurent_try_div(low, x ** -1) == LaurentPoly.monomial(V, (EXP_MIN + 1, 0))
    assert LaurentPoly.monomial(V, (EXP_MIN, 0)).partial("y").is_zero()
    with pytest.raises(ExponentOverflowError):
        low.partial("x")


@st.composite
def near_limit_pairs(draw):
    """``a`` within 40 of one end of the range, ``b`` small: products straddle it."""
    n = draw(st.integers(1, 8))
    top = st.tuples(*[st.integers(EXP_MAX - 40, EXP_MAX)] * n)
    small = st.tuples(*[st.integers(-60, 10)] * n)
    coefs = st.integers(-20, 20).filter(bool)
    a = draw(st.dictionaries(top, coefs, min_size=1, max_size=3))
    b = draw(st.dictionaries(small, coefs, min_size=1, max_size=3))
    if draw(st.booleans()):  # mirror both to the bottom of the range
        a = {tuple(-v - 1 for v in e): c for e, c in a.items()}
        b = {tuple(-v for v in e): c for e, c in b.items()}
    return tuple(f"v{i}" for i in range(n)), a, b


@given(near_limit_pairs())
@settings(max_examples=100, deadline=None)
def test_near_the_limit_a_product_is_exact_or_refused(case):
    names, a, b = case
    pa, pb = LaurentPoly(names, a), LaurentPoly(names, b)
    in_range = all(EXP_MIN <= x + y <= EXP_MAX
                   for ea in a for eb in b for x, y in zip(ea, eb))
    try:
        got = pa * pb
    except ExponentOverflowError:
        assert not in_range
    else:
        assert in_range and dict(got.terms) == ref_mul(a, b)
