"""Y-system dynamics, the coefficient correspondence, seed mutation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cluster_painleve import ysystem
from cluster_painleve.analysis import tropical_iterate
from cluster_painleve.presets import get_preset
from cluster_painleve.tsystem import Orbit, TStencil, check_orbit, iterate_t, iterate_tz
from cluster_painleve.zsystem import GeometricZ, PerturbedZ

F = Fraction
SOMOS4 = (-1, 2, -1)
PRIM4 = (-1, 0, -1)


def test_somos4_allones_is_a_fixed_point():
    ys = ysystem.iterate_y(SOMOS4, [F(1)] * 4, 6)
    assert ys == [F(1)] * 10


def test_somos4_y_step_by_hand():
    # y4 = (1+y1)(1+y3) / ((1+1/y2)^2 y0) = 3*5*(9/16)/1
    ys = ysystem.iterate_y(SOMOS4, [F(1), F(2), F(3), F(4)], 2)
    assert ys[4] == F(135, 16)
    assert ys[5] == F(302, 25)


def test_y_step_stays_exact_on_int_windows():
    # 1 + 1/y is a Fraction for an int y too, so no float enters the check
    for a, window in ((SOMOS4, [2, 3, 4]), ((-1, 1, 1, -1), [3, 7, 5, 2]), (PRIM4, [1, 6, 1])):
        got = ysystem.y_step(a, window)
        assert type(got) is F and got == ysystem.y_step(a, [F(y) for y in window])
    assert ysystem.y_step(SOMOS4, [2, 3, 4]) == F(135, 16)
    assert ysystem.y_residual_ok(SOMOS4, [1, 2, 3, 4, F(135, 16)], 0)


def test_prim4_y_two_factor_numerator():
    # y6*y2 = (1+y3)(1+y5) = 2*11
    ys = ysystem.iterate_y(PRIM4, [F(1)] * 4, 3)
    assert ys[4:] == [F(4), F(10), F(22)]


def test_positive_data_required():
    with pytest.raises(ysystem.NonPositiveInitial):
        ysystem.iterate_y(SOMOS4, [F(1), F(-2), F(3), F(4)], 1)


def test_ybar_is_the_tuple_weighted_window():
    orb = iterate_t(TStencil(SOMOS4), [F(1), F(2), F(3), F(5)], 4)
    ybar = ysystem.ybar_from_orbit(SOMOS4, orb)
    v = orb.values
    assert ybar[0] == v[1] * v[3] / v[2] ** 2
    assert len(ybar) == len(v) - 3


positive9 = st.fractions(min_value=F(1, 9), max_value=F(9), max_denominator=9)


@given(st.lists(positive9, min_size=4, max_size=4), positive9, positive9)
@settings(max_examples=30, deadline=None)
def test_ybar_gauge_invariance(init, lam, mu):
    """Rescaling x_n -> lam*mu^n*x_n is a symmetry that fixes ybar."""
    orb = iterate_t(TStencil(SOMOS4), init, 8)
    scaled = [lam * mu ** n * v for n, v in enumerate(orb.values)]
    sorb = Orbit(orb.stencil, "rational", scaled, None, None)
    assert check_orbit(sorb)
    assert ysystem.ybar_from_orbit(SOMOS4, orb) == ysystem.ybar_from_orbit(SOMOS4, sorb)


def test_correspondence_clean_and_perturbed():
    base = GeometricZ(F(2), F(3, 2))
    init = [F(1), F(2), F(1, 2), F(3)]
    clean = iterate_tz(TStencil(SOMOS4), base, init, 20)
    rows = ysystem.verify_tz_correspondence(SOMOS4, clean, 10)
    assert all(r["y_ok"] and r["z_ok"] for r in rows)

    broken = iterate_tz(TStencil(SOMOS4), PerturbedZ(base, {5: F(2)}), init, 20)
    rows = ysystem.verify_tz_correspondence(SOMOS4, broken, 10)
    assert all(r["y_ok"] == r["z_ok"] for r in rows)  # the equivalence itself
    bad = [r["n"] for r in rows if not r["z_ok"]]
    assert bad == [2, 3, 4]  # exactly the windows that see the perturbed entry


def test_correspondence_needs_coefficient_data():
    orb = iterate_t(TStencil(SOMOS4), [F(1)] * 4, 20)
    with pytest.raises(ValueError):
        ysystem.verify_tz_correspondence(SOMOS4, orb, 5)


def test_qp1_hand_values_and_coefficient_extraction():
    beta, q = F(2), F(3, 2)
    ys = ysystem.qp1_iterate(beta, q, [F(1), F(1)], 12)
    assert ys[2] == F(4) and ys[3] == F(15, 16)
    zs = ysystem.z_from_qp1(ys)
    assert zs == [beta * q ** n for n in range(len(zs))]


def test_qp1_rejects_nonpositive_parameters():
    with pytest.raises(ysystem.NonPositiveParameter):
        ysystem.qp1_iterate(F(-1), F(2), [F(1), F(1)], 2)


@pytest.mark.parametrize("name", ["somos4", "prim4"])
def test_seed_mutation_chain_satisfies_y_system(name):
    p = get_preset(name)
    y0 = [F(2), F(1, 3), F(5), F(7, 2)]
    chain = ysystem.y_from_seed_dynamics(p.matrix, y0, 8)
    assert chain == ysystem.iterate_y(p.a, chain[: p.n], 8)


def test_seed_mutation_needs_full_window():
    p = get_preset("somos4")
    with pytest.raises(ValueError):
        ysystem.y_from_seed_dynamics(p.matrix, [F(1)] * 3, 2)


@pytest.mark.parametrize("run", [
    lambda: ysystem.iterate_y(get_preset("somos4").a, [F(1)] * 4, -1),
    lambda: ysystem.qp1_iterate(F(1), F(2), [F(1), F(1)], -1),
    lambda: ysystem.y_from_seed_dynamics(get_preset("somos4").matrix, [F(1)] * 4, -2),
    lambda: ysystem.verify_tz_correspondence(
        SOMOS4, iterate_tz(TStencil(SOMOS4), GeometricZ(F(2), F(3)), [F(1)] * 4, 12), -3),
    lambda: tropical_iterate(SOMOS4, [0, 0, 0, -1], -2),
], ids=["iterate_y", "qp1_iterate", "y_from_seed_dynamics", "verify_tz_correspondence",
        "tropical_iterate"])
def test_steps_must_be_nonnegative(run):
    with pytest.raises(ValueError, match="^steps must be nonnegative$"):
        run()
