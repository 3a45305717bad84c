import math

import numpy as np
import pytest

from onecentre.potentials import (SLOW_VARIATION_TOL, PotentialSpec, SmoothedPotential,
                                  check_slowly_varying, classify,
                                  default_probe_grid, from_config,
                                  homogeneous, logarithmic,
                                  weak_singularity_check)


def test_smoothed_eval_at_zero_equals_base_at_eps():
    sm = SmoothedPotential(logarithmic(), 0.1)
    assert sm.value(0.0) == pytest.approx(-math.log(0.1), abs=1e-15)


def test_smoothed_eval_eps_zero_reproduces_base():
    sm = SmoothedPotential(logarithmic(), 0.0)
    assert sm.value(1.0) == 0.0
    xs = np.geomspace(1e-6, 10, 50)
    np.testing.assert_array_equal(sm.value(xs), logarithmic().value(xs))


def test_smoothed_eval_pythagorean_case():
    sm = SmoothedPotential(homogeneous(1.0), 3.0)
    assert sm.value(4.0) == pytest.approx(0.2, abs=1e-15)


@pytest.mark.parametrize("x", [0.0, -0.0, np.float64(0.0), 0, np.array([1.0, 0.0])],
                         ids=["float", "negative-zero", "float64", "int", "array"])
def test_smoothed_eval_eps_zero_at_origin_rejected(x):
    sm = SmoothedPotential(logarithmic(), 0.0)
    with pytest.raises(ValueError, match=r"x = 0 requires eps > 0"):
        sm.value(x)


@pytest.mark.parametrize("spec", [logarithmic(), homogeneous(0.5)], ids=repr)
def test_smoothed_eval_eps_zero_float_path_matches_array_path(spec):
    # a Python float skips numpy in the domain check; its value is the bits
    # of the same point evaluated through an array
    sm = SmoothedPotential(spec, 0.0)
    for x in (1e-300, 1e-12, 0.37, 1.0, 2.5, 1e9):
        assert sm.value(x).hex() == float(sm.value(np.array([x]))[0]).hex()


def test_smoothed_below_base_for_decreasing_potential():
    # sqrt(x^2+eps^2) > x and V decreasing, so V_eps < V pointwise
    for p in (logarithmic(), homogeneous(0.5)):
        sm = SmoothedPotential(p, 1e-2)
        xs = np.geomspace(1e-4, 1.0, 200)
        assert np.all(sm.value(xs) <= p.value(xs))


def test_smoothed_deriv_matches_finite_differences():
    # the radial component of the plane gradient is d/dx V_eps, and the
    # gradient vanishes at the smoothed centre
    sm = SmoothedPotential(logarithmic(), 0.05)
    h = 1e-6
    for x in (0.03, 0.4, 2.0):
        fd = (sm.value(x + h) - sm.value(x - h)) / (2 * h)
        assert sm.gradient((x, 0.0))[0] == pytest.approx(fd, abs=1e-8)
    assert np.all(sm.gradient((0.0, 0.0)) == 0.0)


@pytest.mark.parametrize("p", [logarithmic(), homogeneous(0.5), homogeneous(1.3)])
def test_derivatives_consistent_second_order(p):
    # central differences converge at second order: halving h divides the
    # error by ~4 on a sampled grid
    xs = np.array([0.3, 0.7, 1.9])
    h = 1e-3
    for x in xs:
        e1 = abs(p.deriv(x) - (p.value(x + h) - p.value(x - h)) / (2 * h))
        e2 = abs(p.deriv(x) - (p.value(x + h / 2) - p.value(x - h / 2)) / h)
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)
        d1 = abs(p.deriv2(x) - (p.deriv(x + h) - p.deriv(x - h)) / (2 * h))
        d2 = abs(p.deriv2(x) - (p.deriv(x + h / 2) - p.deriv(x - h / 2)) / h)
        assert d1 / d2 == pytest.approx(4.0, rel=0.2)


def test_logarithmic_class_report():
    rep = classify(logarithmic())
    assert rep.admissible
    assert rep.monotone_radius == math.inf
    assert rep.ratio_radius == math.inf
    assert rep.safe_radius == math.inf
    assert rep.slope_at_origin == pytest.approx(-1.0, abs=1e-10)
    assert rep.weak_singularity


def test_homogeneous_half_admissible_with_slope_two_thirds():
    # V'/V'' = -x/(alpha+1), slope -1/(alpha+1) = -2/3 < -1/2
    rep = classify(homogeneous(0.5))
    assert rep.admissible
    assert rep.slope_at_origin == pytest.approx(-2.0 / 3.0, abs=1e-10)


def test_homogeneous_one_fails_slope_condition():
    rep = classify(homogeneous(1.0))
    assert not rep.admissible
    assert rep.witness is not None and rep.witness[0] == "slope"
    assert rep.slope_at_origin == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
def test_homogeneous_at_least_one_not_admissible(alpha):
    # slope of V'/V'' at 0 is -1/(alpha+1) >= -1/2 for alpha >= 1
    assert not classify(homogeneous(alpha)).admissible


@pytest.mark.parametrize("alpha,expected", [(1.0, True), (1.9, False), (2.0, False)])
def test_weak_singularity(alpha, expected):
    # x^2 V = x^(2-alpha): vanishes for alpha < 2 but only certifiably fast
    # ones pass the finite grid check; alpha = 2 is exactly constant
    assert weak_singularity_check(homogeneous(alpha)) is expected


def test_weak_singularity_logarithmic():
    assert weak_singularity_check(logarithmic())


def test_every_admissible_sample_is_weak():
    for p in (logarithmic(), homogeneous(0.3), homogeneous(0.5), homogeneous(0.9)):
        rep = classify(p)
        if rep.admissible:
            assert rep.weak_singularity


def test_slow_variation_logarithmic_true():
    verdict, table = check_slowly_varying(logarithmic())
    assert verdict is True
    sups = table.column("sup_dev")
    # closed form: sup over [1,10] = log(10)/(k log 10) = 1/k
    for k, s in enumerate(sups, start=1):
        assert s == pytest.approx(1.0 / k, rel=1e-12)


def test_slow_variation_homogeneous_false():
    verdict, table = check_slowly_varying(homogeneous(0.5))
    assert verdict is False
    sups = table.column("sup_dev")
    # ratio is x^(-1/2) independent of lambda: sup = 1 - 10^(-1/2), constant
    assert all(s == pytest.approx(1.0 - 10.0 ** -0.5, rel=1e-12) for s in sups)


def test_slow_variation_constant_potential_trivially_true():
    flat = PotentialSpec("constant", lambda x: np.ones_like(np.asarray(x, float)),
                         lambda x: np.zeros_like(np.asarray(x, float)),
                         lambda x: np.zeros_like(np.asarray(x, float)))
    verdict, _ = check_slowly_varying(flat)
    assert verdict is True
    # but it is not an admissible potential (no blow-up, V'' not positive)
    assert not classify(flat).admissible


def test_classify_merges_verdicts():
    rep = classify(logarithmic())
    assert (rep.admissible, rep.slowly_varying, rep.safe_radius) == (True, True, math.inf)
    rep = classify(homogeneous(0.5))
    assert (rep.admissible, rep.slowly_varying) == (True, False)
    rep = classify(homogeneous(1.0))
    assert not rep.admissible


def test_classify_reports_an_inconclusive_slow_variation_as_none():
    # V(lam x)/V(lam) = x^(-0.1): the sup is the constant 1 - 10^(-0.1) ~ 0.206
    # at every lam, below SLOW_VARIATION_TOL but not strictly decreasing
    rep = classify(homogeneous(0.1))
    assert rep.admissible
    assert rep.slowly_varying is None
    _, table = check_slowly_varying(homogeneous(0.1))
    assert all(s == pytest.approx(1.0 - 10.0 ** -0.1, rel=1e-12) for s in table.column("sup_dev"))
    assert max(table.column("sup_dev")) < SLOW_VARIATION_TOL
    # outside the admissible class the verdict is False, never None
    assert classify(homogeneous(2.5)).slowly_varying is False


def test_linear_bound_near_origin():
    # admissible potentials satisfy V(x) <= C1/x + C2: x*(V(x)-V(x0)) bounded
    x0 = 1.0
    for p in (logarithmic(), homogeneous(0.5)):
        xs = np.geomspace(1e-8, x0, 300)
        vals = xs * (p.value(xs) - p.value(x0))
        assert np.max(np.abs(vals)) < 10.0


def test_from_config_families():
    assert from_config({"family": "logarithmic"}).name == "logarithmic"
    p = from_config({"family": "homogeneous", "alpha": 0.5})
    assert p.value(4.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        from_config({"family": "unknown"})


def test_probe_grid_requirements():
    # the checks read the finest decade and the finest six points of the grid
    grid = default_probe_grid()
    assert len(grid) >= 64 and np.all(np.diff(grid) < 0)
    assert grid[0] == 10.0 and grid[-1] == pytest.approx(1e-8, rel=1e-12)


def test_finite_witness_names_first_nonfinite_derivative():
    # V is finite everywhere on the grid, V' is NaN below 1e-3: the witness
    # is the largest grid point below 1e-3, not the first grid point
    def deriv(x):
        x = np.asarray(x, float)
        return np.where(x < 1e-3, np.nan, -1.0 / x)

    broken = PotentialSpec("nan-derivative", lambda x: -np.log(x), deriv,
                           lambda x: 1.0 / (np.asarray(x, float) ** 2))
    rep = classify(broken)
    grid = default_probe_grid()
    assert not rep.admissible
    assert rep.witness == ("finite", float(grid[grid < 1e-3][0]))


def test_admissible_radii_finite_for_log_plus_harmonic():
    # V = -log x + x^2: V' = -1/x + 2x, V'' = 1/x^2 + 2.  V'/V'' decreases
    # below x* = sqrt((sqrt(80) - 8)/8) only, and V'/V'' + x/2 changes sign
    # at 1/sqrt(6), so both radii are finite
    def value(x):
        x = np.asarray(x, float)
        return -np.log(x) + x * x

    def deriv(x):
        x = np.asarray(x, float)
        return -1.0 / x + 2.0 * x

    def deriv2(x):
        x = np.asarray(x, float)
        return 1.0 / (x * x) + 2.0

    rep = classify(PotentialSpec("log-plus-harmonic", value, deriv, deriv2))
    assert rep.admissible
    assert rep.ratio_radius == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-12)
    # the first grid point below which every check holds: within one probe
    # grid step above x*
    x_star = math.sqrt((math.sqrt(80.0) - 8.0) / 8.0)
    assert x_star < rep.monotone_radius <= x_star * 10.0 ** (9.0 / 511.0)
    assert rep.safe_radius == rep.monotone_radius
