"""Degree growth, entropy classification, linear-relation search."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cluster_painleve import analysis
from cluster_painleve.laurent import laurent_try_div
from cluster_painleve.presets import get_preset
from cluster_painleve.tsystem import Orbit, TStencil, iterate_t, iterate_tz
from cluster_painleve.zsystem import solve_z, z_stencil_from_tuple

F = Fraction
SOMOS4 = (-1, 2, -1)
PRIM4 = (-1, 0, -1)

# signed denominator exponents of x1 along the symbolic somos4 orbit
D1 = [-1, 0, 0, 0, 1, 1, 2, 3, 3, 5, 6, 7, 9, 10, 12, 14, 15, 18, 20, 22,
      25, 27, 30, 33, 35, 39, 42, 45, 49, 52]


def test_symbolic_degree_sequence_prefix():
    orb = iterate_t(TStencil(SOMOS4), None, 12, mode="symbolic")
    ds = analysis.degree_sequence(orb, 1)
    assert list(ds.values) == D1[:16]
    assert ds.d[0] == 0  # the raw -1 self-entry is floored for growth work
    assert ds.definition == "denominator:x1"


@pytest.mark.parametrize("var", [1, 2, 3, 4])
def test_tropical_shadow_equals_symbolic_degrees(var):
    orb = iterate_t(TStencil(SOMOS4), None, 10, mode="symbolic")
    ds = analysis.degree_sequence(orb, var)
    init = [0] * 4
    init[var - 1] = -1
    tr = analysis.tropical_iterate(SOMOS4, init, 10)
    assert tr.values == ds.values


def test_tropical_long_run_matches_pinned_values():
    tr = analysis.tropical_iterate(SOMOS4, [-1, 0, 0, 0], 26)
    assert list(tr.values) == D1


def test_quadratic_growth_with_period8_wobble():
    tr = analysis.tropical_iterate(SOMOS4, [-1, 0, 0, 0], 60)
    wob = {0: F(-1), 1: F(-1, 16), 2: F(-1, 4), 3: F(-9, 16),
           4: F(0), 5: F(-9, 16), 6: F(-1, 4), 7: F(-1, 16)}
    for n in range(4, 64):
        assert tr.values[n] == F(n * n, 16) + wob[n % 8]
    for n in range(4, 48):
        assert tr.values[n + 16] - 2 * tr.values[n + 8] + tr.values[n] == 8


def _tropical_reference(a, init, steps):
    """The max-plus step summed over every slot of [a]_+ and [-a]_+."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    n = len(a) + 1
    if len(init) != n:
        raise ValueError(f"initial data must have {n} entries")
    plus = [max(aj, 0) for aj in a]
    minus = [max(-aj, 0) for aj in a]
    xs = [int(v) for v in init]
    for m in range(steps):
        up = sum(c * xs[m + j + 1] for j, c in enumerate(plus))
        dn = sum(c * xs[m + j + 1] for j, c in enumerate(minus))
        xs.append(max(up, dn) - xs[m])
    return tuple(xs)


def _outcome(run, *args):
    try:
        return run(*args)
    except ValueError as exc:
        return str(exc)


def test_tropical_iterate_matches_reference():
    import random
    rng = random.Random(5)
    tuples = [get_preset(name).a for name in
              ("somos4", "somos5", "somos6", "somos7", "prim4", "nonintegrable6")]
    tuples += [get_preset("primN", n).a for n in (3, 5, 8, 12, 20)]
    for _ in range(40):
        half = [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))]
        tuples.append(tuple(half + half[-1 - rng.randint(0, 1)::-1]))
    for a in tuples:
        n = len(a) + 1
        inits = [[-(j == slot) for j in range(n)] for slot in range(n)]
        inits.append([rng.randint(-5, 5) for _ in range(n)])
        for init in inits:
            for steps in (0, 1, 37, 150):
                got = analysis.tropical_iterate(a, init, steps).values
                assert got == _tropical_reference(a, init, steps), (a, init, steps)
        for init, steps in ((inits[0], -1), (inits[0][1:], 5), (inits[0] + [0], 0)):
            assert (_outcome(lambda *x: analysis.tropical_iterate(*x).values, a, init, steps)
                    == _outcome(_tropical_reference, a, init, steps))


def _poly_by_differences_by_slicing(seq):
    """Reference for the detector: try every start, testing each tail slice."""
    for s in range(1, 9):
        cur = list(seq)
        for k in range(5):
            if len(cur) <= s:
                break
            nxt = [cur[i + s] - cur[i] for i in range(len(cur) - s)]
            if len(nxt) >= 5:
                limit = min(len(nxt) - 5, len(seq) // 3)
                for st_ in range(limit + 1):
                    if all(v == 0 for v in nxt[st_:]):
                        return k, s, st_
            cur = nxt
    return None


def _poly_by_differences_by_levels(seq):
    """Reference for the detector that builds every difference level of every
    stride in full; linear in the length, so it also checks long inputs."""
    for s in range(1, 9):
        cur = list(seq)
        for k in range(5):
            if len(cur) <= s:
                break
            nxt = [cur[i + s] - cur[i] for i in range(len(cur) - s)]
            if len(nxt) >= 5:
                st_ = len(nxt)
                while st_ and not nxt[st_ - 1]:
                    st_ -= 1
                if st_ <= min(len(nxt) - 5, len(seq) // 3):
                    return k, s, st_
            cur = nxt
    return None


def _assert_detector_matches_references(seq, slicing=True):
    got = analysis._poly_by_differences(seq)
    assert got == _poly_by_differences_by_levels(seq), seq
    if slicing:
        assert got == _poly_by_differences_by_slicing(seq), seq
    return got


@st.composite
def _wobbly_polynomials(draw):
    """A polynomial plus a periodic wobble, broken by noise before a cut
    drawn around a third of the length, where the detector's limit lies."""
    length = draw(st.integers(12, 300))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5))
    period = draw(st.integers(1, 9))
    wobble = draw(st.lists(st.integers(-3, 3), min_size=period, max_size=period))
    third = length // 3
    cut = draw(st.integers(max(0, third - 12), min(length, third + 12)))
    noise = draw(st.lists(st.integers(-2, 2), min_size=cut, max_size=cut))
    noise += [0] * (length - cut)
    return [sum(c * n ** k for k, c in enumerate(coeffs)) + wobble[n % period] + noise[n]
            for n in range(length)]


@st.composite
def _zero_tail_traps(draw):
    """A wobbly polynomial whose order-(k+1) differences at stride s vanish
    except at one index p, at or past the detector's limit but before the
    last five differences: the tail is zero and only the full list shows the
    miss.  p = limit - 1 makes the pair a hit from the limit on instead."""
    k, s = draw(st.integers(0, 4)), draw(st.integers(1, 8))
    length = draw(st.integers(12 + (k + 1) * s, 300))
    m = length - (k + 1) * s  # entries of the difference list
    limit = min(m - 5, length // 3)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=k + 1, max_size=k + 1))
    wobble = draw(st.lists(st.integers(-3, 3), min_size=s, max_size=s))
    seq = [sum(c * n ** e for e, c in enumerate(coeffs)) + wobble[n % s]
           for n in range(length)]
    seq[draw(st.integers(limit - 1, m - 6))] += draw(st.sampled_from((-2, -1, 1, 2)))
    return seq


@given(st.one_of(_wobbly_polynomials(), _zero_tail_traps(),
                 st.lists(st.integers(-2, 2), min_size=12, max_size=300)))
@settings(max_examples=300, deadline=None)
def test_zero_tail_scan_matches_slicing(seq):
    _assert_detector_matches_references(seq)


def _tropical_degree_runs(lengths):
    # every slot of every fixture and of prim3-prim12
    names = ["somos4", "somos5", "somos6", "somos7", "prim4", "nonintegrable6"]
    names += [f"prim{n}" for n in range(3, 13) if n != 4]
    for name in names:
        a = get_preset(name).a
        n = len(a) + 1
        for slot in range(n):
            init = [-(j == slot) for j in range(n)]
            for length in lengths:
                yield list(analysis.tropical_iterate(a, init, length - n).d)


def test_zero_tail_scan_on_tropical_degrees():
    hits = sum(_assert_detector_matches_references(seq) is not None
               for seq in _tropical_degree_runs((12, 37, 150, 400)))
    assert hits > 0


def test_zero_tail_scan_on_long_tropical_degrees():
    # the slicing reference is quadratic, so only the level loop checks these
    hits = sum(_assert_detector_matches_references(seq, slicing=False) is not None
               for seq in _tropical_degree_runs((400, 1000, 4000)))
    assert hits > 0


def test_zero_tail_scan_on_short_sequences():
    # lengths 12-40, where the long strides leave fewer than 5 differences
    # or a negative limit
    import random
    rng = random.Random(3)
    for length in range(12, 41):
        for degree in range(6):
            for period in range(1, 10):
                wobble = [rng.randint(-2, 2) for _ in range(period)]
                seq = [n ** degree + wobble[n % period] for n in range(length)]
                _assert_detector_matches_references(seq)
                seq[rng.randrange(length)] += 1
                _assert_detector_matches_references(seq)
        _assert_detector_matches_references([rng.randint(-1, 1) for _ in range(length)])


def test_floored_degrees_are_computed_once():
    tr = analysis.tropical_iterate(SOMOS4, [-1, 0, 0, 0], 20)
    assert tr.d is tr.d and tr.d == tuple(max(0, v) for v in tr.values)
    fresh = analysis.DegreeSequence(tr.values, tr.definition)
    assert tr == fresh and hash(tr) == hash(fresh) and repr(tr) == repr(fresh)


class TestEntropy:
    def test_too_short(self):
        with pytest.raises(analysis.TooShort):
            analysis.entropy_estimate(analysis.tropical_iterate(SOMOS4, [-1, 0, 0, 0], 4))

    def test_quadratic_is_zero_entropy(self):
        tr = analysis.tropical_iterate(SOMOS4, [-1, 0, 0, 0], 60)
        est = analysis.entropy_estimate(tr)
        assert est.entropy == 0.0 and est.fit == "polynomial" and est.degree == 2

    def test_bounded_sequence_is_zero_entropy(self):
        tr = analysis.tropical_iterate((0,), [-1, 0], 30)
        est = analysis.entropy_estimate(tr)
        assert est.entropy == 0.0 and est.degree == 0

    def test_exponential_growth_detected(self):
        tr = analysis.tropical_iterate((-2, 6, -4, 6, -2), [1] * 6, 40)
        est = analysis.entropy_estimate(tr)
        assert est.fit == "exponential"
        # log((3+sqrt 5)/2), the growth of the coefficient dynamics
        assert est.entropy == pytest.approx(0.9624236501, abs=1e-6)
        assert est.band < 1e-6


def test_prim4_autonomous_stride3_relation():
    orb = iterate_t(TStencil(PRIM4), [F(1)] * 4, 30)
    rel = analysis.relation_search(orb, (0, 3, 6), 3, 15).relation
    assert rel is not None
    assert rel.coefficients == (1, -5, 1) and rel.palindromic


def test_prim4_autonomous_stride6_is_chebyshev_square():
    orb = iterate_t(TStencil(PRIM4), [F(1)] * 4, 40)
    rel = analysis.relation_search(orb, (0, 6, 12), 3, 15).relation
    assert rel is not None and rel.coefficients == (1, -23, 1)  # 5^2 - 2


def test_prim4_with_coefficients_stride12_relation():
    z = solve_z(z_stencil_from_tuple(PRIM4), [F(2), F(3)])
    orb = iterate_tz(TStencil(PRIM4), z, [F(1)] * 4, 58)
    rs = analysis.relation_search(orb, (0, 12, 24), 4, 30)
    assert rs.status == "found" and rs.solution_dim == 0
    assert rs.relation.coefficients == (1, F(-76657, 36), 1)
    assert rs.relation.palindromic


def test_symbolic_relation_coefficient_specializes():
    """The 67-term coefficient Laurent polynomial evaluates to the numeric one."""
    a = PRIM4
    zs = solve_z(z_stencil_from_tuple(a))
    sorb = iterate_tz(TStencil(a), zs, None, 21, mode="symbolic")
    c = laurent_try_div(sorb.values[24] + sorb.values[0], sorb.values[12])
    assert c is not None and c.n_terms() == 67 and c.coefficients_positive()
    env = {"x0": F(1), "x1": F(1), "x2": F(1), "x3": F(1), "Z0": F(2), "Z1": F(3)}
    assert c.evaluate({k: env[k] for k in c.vars}) == F(76657, 36)


def test_no_short_relation_on_somos4():
    orb = iterate_t(TStencil(SOMOS4), [F(1)] * 4, 30)
    rs = analysis.relation_search(orb, (0, 1, 2), 4, 10)
    assert rs.status == "inconsistent" and rs.relation is None
    assert rs.solution_dim == -1


def test_flat_orbit_is_underdetermined():
    from cluster_painleve.tsystem import Orbit
    orb = Orbit(TStencil((0,)), "rational", [F(3)] * 30, None, None)
    rs = analysis.relation_search(orb, (0, 2, 4), 3, 10)
    assert rs.status == "underdetermined"
    assert rs.solution_dim >= 1 and rs.relation is None


def test_offsets_must_start_at_zero_and_increase():
    orb = iterate_t(TStencil(SOMOS4), [F(1)] * 4, 30)
    with pytest.raises(ValueError):
        analysis.relation_search(orb, (1, 2, 3), 2, 5)
    with pytest.raises(ValueError):
        analysis.relation_search(orb, (0, 2, 2), 2, 5)
    with pytest.raises(ValueError, match="^train and verify counts must be positive$"):
        analysis.relation_search(orb, (0, 1, 2), 0, 5)


def test_relation_search_needs_enough_data():
    orb = iterate_t(TStencil(SOMOS4), [F(1)] * 4, 10)
    with pytest.raises(analysis.InsufficientData):
        analysis.relation_search(orb, (0, 12, 24), 4, 30)


def test_first_integral_is_conserved():
    from cluster_painleve import reduction
    from cluster_painleve.presets import get_preset
    spec = reduction.derive_usystem(get_preset("somos4").matrix)
    us = reduction.iterate_usystem(spec, [F(3, 2), F(5, 7)], 30)
    h = analysis.somos4_first_integral(us[0], us[1])
    assert all(analysis.somos4_first_integral(us[n], us[n + 1]) == h
               for n in range(1, 30))
    with pytest.raises(analysis.ZeroProduct):
        analysis.somos4_first_integral(F(0), F(1))


def test_relation_text_past_the_int_digit_limit(default_int_digits):
    rel = analysis.LinearRelation((0, 2), (Fraction(1), Fraction(-(10 ** 5000 + 1), 3)), 10,
                                  False)
    assert rel.format_text() == "(1)*x[n] + (-1" + "0" * 4999 + "1/3)*x[n+2] = 0"


# -- relation search against its Fraction reference --------------------------------


def _relation_search_reference(orb, offsets, train, verify):
    """The search on a Fraction copy of the values, through `intlinalg.solve`."""
    from cluster_painleve.intlinalg import solve
    offs = tuple(offsets)
    need = offs[-1] + train + verify
    vals = [Fraction(v) for v in orb.values[:need]]
    rows = [[vals[n + o] for o in offs[1:]] for n in range(train)]
    rhs = [-vals[n] for n in range(train)]
    rank, dim, sol = solve(rows, rhs)
    if dim == -1:
        return analysis.RelationSearch(offs, rank, -1, None, "inconsistent")
    if dim > 0:
        return analysis.RelationSearch(offs, rank, dim, None, "underdetermined")
    coeffs = (Fraction(1),) + tuple(sol)
    for n in range(train, train + verify):
        if sum(c * vals[n + o] for c, o in zip(coeffs, offs)) != 0:
            return analysis.RelationSearch(offs, rank, 0, None, "failed-verify")
    rel = analysis.LinearRelation(offs, coeffs, verify, list(coeffs) == list(reversed(coeffs)))
    return analysis.RelationSearch(offs, rank, 0, rel, "found")


def _scan_orbit(n, seed):
    import random
    rng = random.Random(seed)
    a = PRIM4 if n == 4 else get_preset("primN", n).a

    def window(k):
        return [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(k)]
    z = solve_z(z_stencil_from_tuple(a), window(z_stencil_from_tuple(a).order))
    return iterate_tz(TStencil(a), z, window(n), 2 * 30 + 6 + 12)


@pytest.mark.parametrize("seed", [0, 1])
def test_stride_scan_matches_reference(seed):
    statuses = set()
    for n in (4, 5, 6, 7):
        orb = _scan_orbit(n, seed)
        for terms, smax in ((3, 30), (5, 15)):
            for s in range(1, smax + 1):
                offs = tuple(s * k for k in range(terms))
                got = analysis.relation_search(orb, offs, 6, 12)
                assert got == _relation_search_reference(orb, offs, 6, 12), (n, offs)
                statuses.add(got.status)
    assert {"found", "inconsistent", "underdetermined"} <= statuses


def test_failed_verify_matches_reference():
    # x[n+1] = 2 x[n] fits the training windows of 2^n; the 33 breaks it
    orb = Orbit(TStencil((0,)), "rational", [F(2 ** k) for k in range(5)] + [F(33), F(66)])
    rs = analysis.relation_search(orb, (0, 1), 3, 3)
    assert rs.status == "failed-verify" and rs.train_rank == 1
    assert rs == _relation_search_reference(orb, (0, 1), 3, 3)


def _fresh(orb):
    return Orbit(orb.stencil, orb.kind, list(orb.values), orb.z, orb.variables)


def test_residues_follow_edits_to_the_values():
    plain = iterate_t(TStencil(SOMOS4), [F(1), F(2), F(3), F(4)], 40).values  # no relation
    linear = iterate_t(TStencil(PRIM4), [F(1)] * 4, 40).values  # x[n+6] - 5 x[n+3] + x[n] = 0

    def search(orb):
        got = analysis.relation_search(orb, (0, 3, 6), 3, 15)
        assert got == analysis.relation_search(_fresh(orb), (0, 3, 6), 3, 15)
        return got.status

    def searched_plain():
        orb = Orbit(TStencil(SOMOS4), "rational", list(plain))
        assert search(orb) == "inconsistent"  # the residues of `plain` are kept
        return orb

    orb = searched_plain()
    for k, v in enumerate(linear):  # replaced one by one
        orb.values[k] = v
    assert search(orb) == "found"
    orb.values[5] = orb.values[5] + 1  # one value replaced again
    assert search(orb) == "inconsistent"
    orb.values[5] = orb.values[5] - 1  # an equal value, a new object
    assert search(orb) == "found"

    orb = searched_plain()
    del orb.values[2:]  # truncated below the residues already read
    orb.values.extend(linear[2:])  # and extended
    assert search(orb) == "inconsistent"  # x_0, x_1 are still somos4's
    del orb.values[:]
    orb.values.extend(linear[:30])
    assert search(orb) == "found"
    orb.values.extend(plain[30:])  # appended past the residues read
    assert search(orb) == "found"
    assert analysis.relation_search(orb, (0, 3, 6), 3, 30) == analysis.relation_search(
        _fresh(orb), (0, 3, 6), 3, 30)


def test_values_with_p_in_the_denominator_take_the_exact_path():
    from cluster_painleve.intlinalg import P
    base = iterate_t(TStencil(PRIM4), [F(1)] * 4, 30)
    orb = Orbit(base.stencil, "rational", [v / P for v in base.values])
    assert orb.residue(0) is None
    rs = analysis.relation_search(orb, (0, 3, 6), 3, 15)
    assert rs.status == "found" and rs.relation.coefficients == (1, -5, 1)
    assert rs == _relation_search_reference(orb, (0, 3, 6), 3, 15)
    somos = iterate_t(TStencil(SOMOS4), [F(1)] * 4, 30)
    somos.values[1] = Fraction(somos.values[1], P)
    rs = analysis.relation_search(somos, (0, 1, 2), 4, 10)
    assert rs.status == "inconsistent"
    assert rs == _relation_search_reference(somos, (0, 1, 2), 4, 10)


def test_plain_int_orbit_is_accepted():
    vals = [int(v) for v in iterate_t(TStencil(PRIM4), [F(1)] * 4, 40).values]
    orb = Orbit(TStencil(PRIM4), "rational", vals)
    for offs in ((0, 3, 6), (0, 1, 2), (0, 2, 4)):
        assert (analysis.relation_search(orb, offs, 3, 15)
                == _relation_search_reference(orb, offs, 3, 15))
    assert analysis.relation_search(orb, (0, 3, 6), 3, 15).relation.coefficients == (1, -5, 1)


def test_search_leaves_equality_repr_and_json_alone():
    orb = _scan_orbit(4, 1)
    before = _fresh(orb)
    for s in range(1, 20):
        analysis.relation_search(orb, (0, s, 2 * s), 6, 12)
    assert orb == before and repr(orb) == repr(before)
    assert orb.to_json() == before.to_json()
