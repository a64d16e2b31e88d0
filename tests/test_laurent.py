"""Sparse Laurent arithmetic and the certified-division primitive."""

import json
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from cluster_painleve import laurent
from cluster_painleve.presets import get_preset
from cluster_painleve.tsystem import TStencil, iterate_t, iterate_tz
from cluster_painleve.zsystem import solve_z, z_stencil_from_tuple
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
    assert LaurentPoly.from_json(json.loads(json.dumps(data))) == p
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
    calls, spying = spy(["_mul_sparse"])
    with spying:
        for x, y in ((ma, mb), (ma + one, mb + one), (ma, mb + one)):
            with pytest.raises(ExponentOverflowError):
                x * y
    # a monomial factor, too, runs on the dict loop, which checks every field
    assert len(calls) == 3
    with pytest.raises(ExponentOverflowError):
        ma.shift(b)


def test_shift_division_and_powers_past_the_limit_raise():
    x = LaurentPoly.gen(V, "x")
    with pytest.raises(ExponentOverflowError):
        x.shift((2 ** 62, -2 ** 62))
    with pytest.raises(ExponentOverflowError):
        x ** (EXP_MAX + 1)
    low = LaurentPoly.monomial(V, (EXP_MIN, 0))
    with pytest.raises(ExponentOverflowError):
        laurent_try_div(low, x)
    inverse = LaurentPoly.monomial(V, (-1, 0))
    assert laurent_try_div(low, inverse) == LaurentPoly.monomial(V, (EXP_MIN + 1, 0))
    with pytest.raises(ValueError, match="negative power"):
        x ** -1
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


# -- dense kernels on the exponent box ------------------------------------------

def dense_kernels():
    """Widen the dispatch gate, so that products and divisions take the dense
    path unless their grid is far too large (10^4 cell bits per term pair)."""
    return patch.multiple(laurent, _SCAN_PAIRS=0, _MUL_BITS=10 ** 4, _DIV_BITS=10 ** 4)


def loops():
    """Close the dispatch gate: the dict and heap loops only."""
    return patch.object(laurent, "_SCAN_PAIRS", 10 ** 9)


def spy(names):
    """``(calls, patcher)``: while ``patcher`` is active, each call of a
    kernel in ``names`` appends ``(name, term pairs)`` to ``calls``."""
    calls = []

    def wrap(name):
        inner = getattr(laurent, name)

        def counted(x, y, *rest):
            calls.append((name, len(x.terms) * len(y.terms)))
            return inner(x, y, *rest)
        return counted
    return calls, patch.multiple(laurent, **{name: wrap(name) for name in names})


def box(p):
    """``_field_extent`` of ``p``: the least and largest biased fields."""
    return laurent._field_extent(p._packed, laurent._layout(len(p.vars))[2])


def div_grid(p, q):
    """The dense division's grid and degree room, as ``laurent_try_div``
    hands them to ``_div_dense``."""
    (lo_p, hi_p), (lo_q, hi_q) = box(p), box(q)
    room = [hp - lp - (hq - lq) for lp, hp, lq, hq in zip(lo_p, hi_p, lo_q, hi_q)]
    return laurent._div_grid(p, q, (lo_p, hi_p), lo_q), room


big_or_small = st.one_of(st.integers(-5, 5), st.integers(-2 ** 80, 2 ** 80)).filter(bool)


@st.composite
def box_polys(draw, count=2, near_limit=False):
    """Polynomials in 1-4 variables with supports spread over a box of side
    at most 6 about a random corner; coefficients of up to 80 bits, and
    signed, so that sums and products may cancel.  With ``near_limit`` the
    first sits within 40 of one end of the exponent range, so that products
    straddle it."""
    n = draw(st.integers(1, 4))
    coefs = big_or_small if draw(st.booleans()) else st.integers(-5, 5).filter(bool)
    sign = draw(st.sampled_from((1, -1)))
    polys = []
    for i in range(count):
        lo, hi = (EXP_MAX - 40, EXP_MAX - 24) if near_limit and i == 0 else (-20, 20)
        base = draw(st.tuples(*[st.integers(lo, hi)] * n))
        offsets = st.tuples(*[st.integers(0, 5)] * n)
        terms = draw(st.dictionaries(offsets, coefs, min_size=1, max_size=14))
        polys.append({tuple(sign * (b + t) for b, t in zip(base, e)): c
                      for e, c in terms.items()})
    return tuple(f"v{i}" for i in range(n)), polys


@given(box_polys(count=3))
@settings(max_examples=200, deadline=None)
def test_dense_kernels_match_the_dict_and_heap_loops(case):
    names, (a, b, extra) = case
    pa, pb, pe = (LaurentPoly(names, t) for t in (a, b, extra))
    want = laurent._mul_sparse(pa, pb)
    assert dict(want.terms) == ref_mul(a, b)
    with dense_kernels():
        assert pa * pb == want
        assert laurent_try_div(want, pb) == pa
    # a remainder below the leading rows, the product plus its own last term
    # (a remainder in the lowest row of the grid), or a quotient that is not
    # there
    for p in (want + pe, want + LaurentPoly.monomial(names, min(want.terms)), pa):
        if not p.is_zero():
            with loops():
                heap = laurent_try_div(p, pb)
            with dense_kernels():
                assert laurent_try_div(p, pb) == heap


def test_dense_kernels_on_special_layouts():
    x, y, z, t = (LaurentPoly.gen(("x", "y", "z", "t"), v) for v in "xyzt")
    one, two, three = (LaurentPoly.const(x.vars, c) for c in (1, 2, 3))
    cases = [
        (one + y + y * y, x * x + x * y + three * x * z),    # the first factor has one row
        (one - x, one + x ** 3 - x ** 5),                     # one cell wide in y, z and t
        (x * y - z, x * y + z),                               # x^2 y^2 - z^2: a cancelling sum
        ((one + x + y + z + t) ** 2, (one - x + y - z - two * t) ** 2),  # a 4-variable box
    ]
    for a, b in cases:
        with dense_kernels():
            got = a * b
            assert laurent_try_div(got, b) == a and laurent_try_div(got, a) == b
            assert laurent_try_div(got + one, b) is None
        assert got == laurent._mul_sparse(a, b)


def test_non_divisible_pair_whose_leading_rows_divide():
    x, y = LaurentPoly.gen(V, "x"), LaurentPoly.gen(V, "y")
    one = LaurentPoly.const(V, 1)
    q = x * x + x * y + y * y + one
    p = q * (x + y + one) + y   # the top row of p is the top row of q * (x + y + 1)
    with dense_kernels():
        grid, room = div_grid(p, q)
        assert grid is not None and laurent._div_dense(p, q, grid, room) is None
        assert laurent_try_div(p, q) is None


def test_quotient_past_the_slot_bound_goes_to_the_heap():
    # r = (1 + x + ... + x^9)^6 (1 + y) has coefficients of 16 bits, while
    # p = (x^10 - 1)^6 (1 + y) and q = (x - 1)^6 have at most 5, so the
    # grid sizes its slots at 16 bits
    x, y = LaurentPoly.gen(V, "x"), LaurentPoly.gen(V, "y")
    one = LaurentPoly.const(V, 1)
    q = (x - one) ** 6
    p = (x ** 10 - one) ** 6 * (one + y)
    with loops():
        r = laurent_try_div(p, q)
    assert r is not None and max(r.terms.values()).bit_length() == 16
    calls, spying = spy(["_div_dense", "_div_heap"])
    with dense_kernels(), spying:
        grid, room = div_grid(p, q)
        assert grid is not None and grid[-1] == 2
        assert laurent._div_dense(p, q, grid, room) == r
        assert laurent_try_div(p, q) == r
    # the grid's quotient is not certified: the heap division decides
    assert [name for name, _ in calls] == ["_div_dense", "_div_heap"] * 2


def test_negative_room_refuses_before_either_kernel():
    x, y = LaurentPoly.gen(V, "x"), LaurentPoly.gen(V, "y")
    one = LaurentPoly.const(V, 1)
    p = (one + x + y) ** 4
    calls, spying = spy(["_div_dense", "_div_heap"])
    with dense_kernels(), spying:
        # each q is wider than p: in y, or in both variables
        for q in (one + x * y ** 5, p * (one + x * y)):
            assert laurent_try_div(p, q) is None
    assert calls == []


def test_rings_with_no_variables_stay_off_the_grid():
    six, three, four = (LaurentPoly.const((), c) for c in (6, 3, 4))
    with dense_kernels():
        assert laurent._gate(six, three) is None
        assert laurent._mul_grid(six, three) is None
        assert laurent._div_grid(six, three, ([], []), []) is None
        assert six * three == LaurentPoly.const((), 18)
        assert laurent_try_div(six * three, three) == six
        assert laurent_try_div(six * three, four) is None


@given(box_polys(near_limit=True))
@settings(max_examples=100, deadline=None)
def test_near_the_limit_a_dense_product_is_exact_or_refused(case):
    names, (a, b) = case
    pa, pb = LaurentPoly(names, a), LaurentPoly(names, b)
    try:
        want = laurent._mul_sparse(pa, pb)
    except ExponentOverflowError:
        want = None
    with dense_kernels():
        if want is None:
            with pytest.raises(ExponentOverflowError):
                pa * pb
        else:
            assert pa * pb == want
            if not want.is_zero():
                assert laurent_try_div(want, pb) == pa


def test_dense_division_refuses_quotients_past_the_limit():
    x = LaurentPoly.gen(V, "x")
    one = LaurentPoly.const(V, 1)
    low = LaurentPoly.monomial(V, (EXP_MIN, 0)) * (one + x) * (one + x + x * x)
    with dense_kernels():
        assert div_grid(low, x * (one + x))[0] is not None
        with pytest.raises(ExponentOverflowError):
            laurent_try_div(low, x * (one + x))


# -- monomial maps ---------------------------------------------------------------

def ref_monomial_map(terms, images, base, tail):
    """Term by term: the first exponents through ``images``, the last ``tail``
    ones carried over."""
    out = {}
    for e, c in terms.items():
        head = e[:len(e) - tail]
        x = tuple(b + sum(v * img[j] for v, img in zip(head, images)) for j, b in enumerate(base))
        out[x + e[len(e) - tail:]] = c
    return out


@given(dense_polys(lo=-20, hi=20, count=1), st.data())
@settings(max_examples=100, deadline=None)
def test_monomial_map_matches_the_term_by_term_map(case, data):
    names, (a,) = case
    tail = data.draw(st.integers(0, len(names) - 1))
    r = len(names) - tail
    nx = data.draw(st.integers(r, r + 2))
    # independent images: the rows of a unit lower triangle
    images = [tuple(data.draw(st.integers(-3, 3)) if j < i else int(i == j) for j in range(nx))
              for i in range(r)]
    base = data.draw(st.tuples(*[st.integers(-9, 9)] * nx))
    out = tuple(f"x{j}" for j in range(nx)) + names[r:]
    got = laurent.monomial_map(LaurentPoly(names, a), out, images, base)
    assert got.vars == out and dict(got.terms) == ref_monomial_map(a, images, base, tail)


def test_monomial_map_at_the_limit():
    w = LaurentPoly(("w",), {(EXP_MAX,): 1, (0,): 2})
    # the box of the image reaches past the range, the image itself does not
    assert dict(laurent.monomial_map(w, V, [(1, 0)], (-1, 5)).terms) == {
        (EXP_MAX - 1, 5): 1, (-1, 5): 2}
    with pytest.raises(ExponentOverflowError):
        laurent.monomial_map(w, V, [(1, 0)], (1, 0))
    with pytest.raises(ExponentOverflowError):
        laurent.monomial_map(w, V, [(2, 1)], (0, 0))
    with pytest.raises(ValueError, match="not linearly independent"):
        laurent.monomial_map(LaurentPoly(V, {(1, 0): 1, (0, 1): 1}), ("x",), [(1,), (1,)], (0,))


def somos4_orbit():
    return iterate_t(TStencil(get_preset("somos4").a), None, 17, mode="symbolic")


def test_somos4_orbit_is_the_same_on_both_paths(monkeypatch):
    dense = somos4_orbit().values
    monkeypatch.setattr(laurent, "_SCAN_PAIRS", 10 ** 9)  # dict and heap loops only
    sparse = somos4_orbit().values
    assert dense[-1].n_terms() == 960
    assert [dict(v.terms) for v in dense] == [dict(v.terms) for v in sparse]


def test_dispatch_sends_only_small_boxes_to_the_grid():
    calls, spying = spy(["_mul_dense", "_div_dense"])
    with spying:
        # the largest products and divisions of the somos4 and somos5 orbits
        # run dense, on the 2-variable boxes of their lattice coordinates
        for name, steps, mul_pairs, div_pairs in (("somos4", 17, 607 * 607, 2422 * 359),
                                                  ("somos5", 16, 139 * 294, 809 * 104)):
            calls.clear()
            iterate_t(TStencil(get_preset(name).a), None, steps, mode="symbolic")
            assert {name for name, _ in calls} == {"_mul_dense", "_div_dense"}
            assert max(pairs for name, pairs in calls if name == "_mul_dense") == mul_pairs
            assert max(pairs for name, pairs in calls if name == "_div_dense") == div_pairs
        # the 7- and 6-variable boxes of somos7 and prim4 with solved
        # coefficients stay on the dict and heap loops
        calls.clear()
        for name, steps in (("somos7", 12), ("prim4", 21)):
            a = get_preset(name).a
            z = solve_z(z_stencil_from_tuple(a))
            iterate_tz(TStencil(a), z, None, steps, mode="symbolic")
    assert calls == []
