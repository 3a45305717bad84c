import dataclasses
import math

import numpy as np
import pytest

from onecentre.apsidal import (_sweep_cell, apsidal_angle, bounds_audit,
                               calibration_integral, convergence_sweep, default_paths,
                               desingularized_factor, integrand_envelope)
from onecentre.potentials import SmoothedPotential, homogeneous, logarithmic
from onecentre.radial import (DropFromRest, InwardCrossing,
                              RadialProblem, case_anchor, turning_points)
from onecentre.tables import aitken_limit


def log_problem(E, l, eps):
    return RadialProblem(SmoothedPotential(logarithmic(), eps), E, l)


@pytest.mark.parametrize("xi", [1.0001, 1.5, 2.0, 10.0, 1e6])
def test_calibration_integral_is_pi(xi):
    assert calibration_integral(xi) == pytest.approx(math.pi, abs=1e-8)


def test_calibration_integral_rejects_degenerate():
    with pytest.raises(ValueError):
        calibration_integral(1.0)


def test_kepler_apsidal_angle_is_pi():
    # closed-orbit degeneracy of the inverse-distance potential: every
    # elliptic orbit advances exactly pi between apsides
    rng = np.random.default_rng(7)
    for _ in range(5):
        E = rng.uniform(-0.6, -0.25)
        l = rng.uniform(0.2, 0.95) / math.sqrt(-2.0 * E)  # l^2 < -1/(2E)
        rp = RadialProblem(SmoothedPotential(homogeneous(1.0), 0.0), E, l)
        res = apsidal_angle(rp)
        assert res.value == pytest.approx(math.pi, abs=1e-6)


def test_apsidal_angle_matches_ode_checked_values():
    # values independently cross-checked against direct plane integration
    # (DOP853 at rtol 1e-12, pericentre event), which agreed to ~1e-10
    expected = {2: 1.6476084024, 4: 1.5934760976, 6: 1.5824390234}
    for k, ref in expected.items():
        s = 10.0 ** -k
        rp = log_problem(0.0, s, s)
        res = apsidal_angle(rp)
        assert res.value == pytest.approx(ref, abs=2e-9)


def test_apsidal_split_parts_sum_and_outer_decay():
    for k in (2, 3, 4):
        s = 10.0 ** -k
        rp = log_problem(0.0, s, s)
        res = apsidal_angle(rp)
        assert res.inner_part + res.outer_part == pytest.approx(res.value, abs=1e-12)
        # the outer part is capped by 2 (R-/beta)^(1/4)
        assert res.outer_part <= 2.0 * (res.pericenter / res.cutoff) ** 0.25 * (1 + 1e-9)


def test_apsidal_angle_below_pi_near_limit():
    for k in (3, 4, 5):
        s = 10.0 ** -k
        res = apsidal_angle(log_problem(0.0, s, s))
        assert res.value <= math.pi + 1e-6


def test_apsidal_angle_rejects_circular_and_zero_l():
    with pytest.raises(ValueError):
        apsidal_angle(log_problem(0.0, 0.0, 0.0))
    rp = log_problem(0.0, math.exp(-0.5), 0.0)  # circular
    with pytest.raises(ValueError):
        apsidal_angle(rp)


def test_case2_cutoff_is_ball_radius():
    # E = 1, ball radius 1 < rest radius e: integral stops at the ball
    rp = log_problem(1.0, 1e-3, 1e-3)
    res = apsidal_angle(rp, safe_radius=1.0)
    assert res.cutoff == 1.0
    tp = turning_points(rp, 1.0)
    assert tp.apocenter > 1.0


def test_homogeneous_small_l_limit():
    # apsidal angle tends to pi/(2 - alpha) as l -> 0 at fixed negative energy
    for alpha, target in ((0.5, math.pi / 1.5), (2.0 / 3.0, math.pi / (2 - 2.0 / 3.0))):
        angles = []
        for k in range(6, 13):
            rp = RadialProblem(SmoothedPotential(homogeneous(alpha), 0.0), -0.5, 2.0 ** -k)
            angles.append(apsidal_angle(rp).value)
        assert aitken_limit(angles) == pytest.approx(target, abs=1e-4)


def test_envelope_bound_on_seeded_samples():
    rng = np.random.default_rng(123)
    p = logarithmic()
    for eps in (1e-2, 1e-4):
        for _ in range(300):
            r_outer = rng.uniform(0.05, 1.0)
            y = rng.uniform(1e-3, 0.999 * r_outer)
            x = rng.uniform(y * (1 + 1e-7), r_outer * (1 - 1e-7))
            assert integrand_envelope(p, eps, y, x, r_outer) >= r_outer - 1e-9


def test_envelope_finite_as_x_approaches_y():
    # the bracket vanishes linearly in x/y - 1: no blow-up at x = y(1+1e-8)
    p = logarithmic()
    y, r_outer = 0.3, 0.9
    val = integrand_envelope(p, 1e-4, y, y * (1.0 + 1e-8), r_outer)
    assert math.isfinite(val)
    assert val >= r_outer - 1e-9


def test_envelope_unsmoothed_increment_inequality():
    # with eps = 0 the increments dominate the chord bound
    # (V(x)-V(r))/(V(y)-V(r)) >= ((r-x)/(r-y)) (y/x)
    rng = np.random.default_rng(5)
    p = logarithmic()
    sm = SmoothedPotential(p, 0.0)
    for _ in range(300):
        r_outer = rng.uniform(0.05, 1.0)
        y = rng.uniform(1e-3, 0.99 * r_outer)
        x = rng.uniform(y * 1.000001, r_outer * 0.999999)
        lhs = (sm.value(x) - sm.value(r_outer)) / (sm.value(y) - sm.value(r_outer))
        rhs = ((r_outer - x) / (r_outer - y)) * (y / x)
        assert lhs >= rhs - 1e-12


def test_envelope_domain_errors():
    p = logarithmic()
    with pytest.raises(ValueError):
        integrand_envelope(p, 0.0, 0.5, 0.4, 0.9)   # x < y
    with pytest.raises(ValueError):
        integrand_envelope(p, 0.0, 0.1, 0.95, 0.9)  # x > r_outer


def test_desingularized_factor_bounded_by_cutoff():
    rng = np.random.default_rng(202)
    for eps, l in ((1e-2, 1e-2), (1e-4, 1e-4)):
        rp = log_problem(0.0, l, eps)
        tp = turning_points(rp)
        beta = tp.apocenter
        for _ in range(500):
            rho = 1.0 + (beta / tp.pericenter - 1.0) * rng.uniform(1e-9, 1.0 - 1e-9)
            val = desingularized_factor(rp.potential, tp.pericenter, beta, 0.0, rho)
            assert val <= beta + 1e-9


def test_desingularized_factor_array_matches_scalar_calls():
    rp = log_problem(0.0, 1e-2, 1e-2)
    tp = turning_points(rp)
    beta = tp.apocenter
    rhos = 1.0 + (beta / tp.pericenter - 1.0) * np.random.default_rng(7).uniform(
        1e-9, 1.0 - 1e-9, size=50)
    vals = desingularized_factor(rp.potential, tp.pericenter, beta, 0.0, rhos)
    assert vals.shape == rhos.shape
    assert np.array_equal(vals, [desingularized_factor(rp.potential, tp.pericenter, beta,
                                                       0.0, float(r)) for r in rhos])
    with pytest.raises(ValueError):
        desingularized_factor(rp.potential, tp.pericenter, beta, 0.0,
                              np.append(rhos, 0.5))


def test_desingularized_factor_endpoints():
    # at the outer endpoint with beta < apocenter the factor vanishes; at the
    # inner endpoint both numerator and denominator vanish and the limit is
    # finite and positive (still below beta)
    rp = log_problem(1.0, 1e-3, 1e-3)
    beta = 1.0
    tp = turning_points(rp, beta)
    l = rp.ang_momentum
    v_sq = rp.f(beta) / beta**2 - l**2 / beta**2
    near_outer = desingularized_factor(rp.potential, tp.pericenter, beta, v_sq,
                                       beta / tp.pericenter * (1 - 1e-9))
    assert abs(near_outer) < 1e-6
    rp2 = log_problem(0.0, 1e-2, 1e-2)
    tp2 = turning_points(rp2)
    near_inner = desingularized_factor(rp2.potential, tp2.pericenter, tp2.apocenter, 0.0,
                                        1.0 + 1e-9)
    assert 0.0 < near_inner <= tp2.apocenter


def test_bounds_audit_refuses_a_circular_factor_orbit():
    # at E = -20 the orbit l = eps = 1e-9 has f - l^2 peaking near 6e-19,
    # below DEGENERATE_TOL: turning_points refuses it as circular, so no
    # factor draw reads a pericentre equal to its apocentre
    table = bounds_audit(logarithmic(), [1e-9], 3, 0, -20.0, 1e-9)
    assert table.meta["failed_cells"] == [
        (1e-9, "circular orbit: apsidal angle undefined by the turning-point formula")]
    assert [row[0] for row in table.rows] == ["envelope"] * 3 + ["factor"]


def test_desingularized_factor_domain():
    rp = log_problem(0.0, 1e-2, 1e-2)
    tp = turning_points(rp)
    with pytest.raises(ValueError, match="rho outside"):
        desingularized_factor(rp.potential, tp.pericenter, tp.apocenter, 0.0, 0.5)
    with pytest.raises(ValueError, match="positive pericentre"):
        desingularized_factor(rp.potential, 0.0, tp.apocenter, 0.0, 1.5)


def test_convergence_sweep_logarithmic_drop():
    table = convergence_sweep(case_anchor(DropFromRest(0.0), logarithmic()),
                              default_paths(range(2, 6)))
    limits = table.meta["path_limits"]
    assert set(limits) == {"diagonal", "eps_first", "l_first"}
    # the diagonal estimate lands near pi/2
    assert abs(limits["diagonal"]["estimate"] - math.pi / 2) < 2e-2
    diag = [row for row in table.rows if row[0] == "diagonal"]
    angles = [row[6] for row in diag]
    assert all(b < a for a, b in zip(angles, angles[1:]))  # monotone toward pi/2


def _mp_diagonal_angle(mp, k: int):
    """Apsidal angle of the diagonal cell eps = l = 10^-k (logarithmic,
    DropFromRest(0.0)) by 40-digit quadrature, independent of the package.

    V_eps(r) = -ln sqrt(r^2 + eps^2) and E = l^2/2 + ln(1 + eps^2)/2, so the
    apocentre is exactly r = 1; the pericentre is the root of the radicand
    below it.
    """
    with mp.workdps(60):
        s = mp.mpf(10) ** -k
        energy = s * s / 2 + mp.log1p(s * s) / 2

        def radicand(r):
            return 2 * energy - mp.log(r * r + s * s) - s * s / (r * r)

        lo = s / (8 * mp.sqrt(2 * k * mp.log(10)))
        pericentre = mp.findroot(radicand, (lo, s), solver="anderson")
        # break the range into decades so tanh-sinh sees each scale
        points = [pericentre]
        while points[-1] * 10 < 0.5:
            points.append(points[-1] * 10)
        points.append(mp.mpf(1))
        return mp.quad(lambda r: s / (r * r * mp.sqrt(radicand(r))), points)


def test_convergence_sweep_diagonal_matches_40_digit_quadrature():
    # the two cells whose ratio criterion 4 compares; the references are the
    # published 40-digit values (README, "Convergence rates")
    mp = pytest.importorskip("mpmath")
    table = convergence_sweep(case_anchor(DropFromRest(0.0), logarithmic()),
                              default_paths(range(2, 7)))
    diag = [row for row in table.rows if row[0] == "diagonal"]
    for row, k, published in ((diag[0], 2, 1.6476056032022661),
                              (diag[-1], 6, 1.5824390234243671)):
        exact = float(_mp_diagonal_angle(mp, k))
        assert exact == pytest.approx(published, rel=1e-15)
        assert row[2] == row[3] == 10.0 ** -k
        assert abs(row[6] - exact) <= 1e-10 * exact


@pytest.mark.parametrize("spec, case, k, angle, scalar_calls", [
    (logarithmic(), DropFromRest(0.0), 3, 1.6083389031073103, 413),
    (logarithmic(), DropFromRest(0.0), 6, 1.5824390234289023, 915),
    (homogeneous(0.5), DropFromRest(-1.0), 3, 1.6378447349569982, 497),
    (homogeneous(0.5), DropFromRest(-1.0), 6, 1.5816116531328357, 1542),
], ids=["log-3", "log-6", "hom-3", "hom-6"])
def test_sweep_cell_quadrature_nodes_pinned(spec, case, k, angle, scalar_calls):
    # the float integrands evaluate the base potential at the same nodes, as
    # often, as the numpy path they replaced: same angle bits, same count of
    # scalar calls; the turning-point scan adds its two array calls
    calls = {"scalar": 0, "array": 0}

    def value(x):
        calls["array" if isinstance(x, np.ndarray) else "scalar"] += 1
        return spec.value(x)

    counting = dataclasses.replace(spec, value=value)
    ang = _sweep_cell(case_anchor(case, counting), 10.0 ** -k, 10.0 ** -k)
    assert ang.value == angle
    assert calls == {"scalar": scalar_calls, "array": 2}


def test_convergence_sweep_case2_entry():
    table = convergence_sweep(case_anchor(InwardCrossing(1.0, 1.0), logarithmic()),
                              default_paths(range(2, 6)))
    # integrals clamp at the ball radius
    betas = [row[5] for row in table.rows if math.isfinite(row[5])]
    assert all(b == 1.0 for b in betas)
    est = table.meta["path_limits"]["diagonal"]["estimate"]
    assert abs(est - math.pi / 2) < 5e-2


def test_convergence_sweep_homogeneous_not_strongly_regularizable():
    # homogeneous potentials are not slowly varying: the angle limit depends
    # on the path.  With no smoothing the angle heads to pi/(2-alpha); the
    # joint sweep fails the uniformity check.
    from onecentre.apsidal import SweepPath
    bare = SweepPath("bare_l", tuple((0.0, 2.0 ** -k) for k in range(4, 11)))
    diag = SweepPath("diagonal", tuple((10.0 ** -k, 10.0 ** -k) for k in range(2, 6)))
    table = convergence_sweep(case_anchor(DropFromRest(-0.5), homogeneous(0.5)),
                              [bare, diag])
    est_bare = table.meta["path_limits"]["bare_l"]["estimate"]
    assert abs(est_bare - math.pi / 1.5) < 1e-2   # pi/(2-alpha) = 2pi/3
    assert table.meta["uniform"] is False or \
        abs(table.meta["path_limits"]["diagonal"]["estimate"] - est_bare) > 0.05


def test_convergence_sweep_records_nan_cells_and_continues():
    # 10^-nan makes a NaN eps or l, hence a NaN cell energy: those cells
    # fail with a ValueError from first_zero, the finite cells are swept
    table = convergence_sweep(case_anchor(DropFromRest(0.0), logarithmic()),
                              default_paths([2, 3, math.nan]))
    errors = table.meta["cell_errors"]
    assert [(pid, k) for pid, k, _ in errors] == [
        ("diagonal", 2), *((pid, k) for pid in ("eps_first", "l_first") for k in range(3))]
    assert all(msg == "energy is NaN" for *_, msg in errors)
    assert [math.isnan(row[6]) for row in table.rows[:3]] == [False, False, True]
