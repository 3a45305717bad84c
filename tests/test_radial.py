import dataclasses
import math

import numpy as np
import pytest

from onecentre import radial
from onecentre.potentials import SmoothedPotential, homogeneous, logarithmic
from onecentre.quadrature import sqrt_endpoint_quad
from onecentre.radial import (DropFromRest, InwardCrossing, RadialProblem,
                              case_anchor, collision_time, fall_time,
                              first_zero, turning_points)

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def log_problem(E, l, eps=0.0):
    return RadialProblem(SmoothedPotential(logarithmic(), eps), E, l)


def kepler_problem(E, l):
    return RadialProblem(SmoothedPotential(homogeneous(1.0), 0.0), E, l)


def flight(rp, a, b, upper):
    """Flight time from the turning point a to b, a turning point when
    `upper`."""
    return sqrt_endpoint_quad(rp, a, b, angle=False, upper_singular=upper).value


def test_f_vanishes_at_one_for_zero_energy_log():
    rp = log_problem(0.0, 0.0)
    assert rp.f(1.0) == pytest.approx(0.0, abs=1e-15)
    assert first_zero(rp) == pytest.approx(1.0, abs=1e-14)


def test_first_zero_rejects_nan_energy():
    # NaN compares false both ways, so the doubling scan would find no
    # bracket; the error names the cause instead
    for rp in (log_problem(math.nan, 0.0), log_problem(math.nan, 0.1, 1e-3),
               RadialProblem(SmoothedPotential(homogeneous(0.5), 0.0), math.nan, 0.0)):
        with pytest.raises(ValueError, match="energy is NaN"):
            first_zero(rp)
    with pytest.raises(ValueError, match="energy is NaN"):
        case_anchor(DropFromRest(math.nan), logarithmic())


def test_f_maximum_at_exp_minus_half():
    # f(r) = -2 r^2 log r peaks at r = e^(-1/2) with value e^(-1)
    rp = log_problem(0.0, 0.0)
    r_star = math.exp(-0.5)
    assert rp.f(r_star) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_f_tends_to_zero_at_origin_for_weak_type():
    rp = log_problem(0.3, 0.0)
    rs = np.geomspace(1e-10, 1e-2, 40)
    vals = np.abs([rp.f(r) for r in rs])
    assert vals[0] < 1e-17
    assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("spec", [logarithmic(), homogeneous(0.5)], ids=["log", "hom"])
@pytest.mark.parametrize("eps, l, E", [(1e-3, 1e-3, 0.2), (1e-6, 1e-6, 0.2),
                                       (0.0, 0.2, 0.5), (0.3, 0.2, 0.5)])
def test_float_radicand_matches_array_f(spec, eps, l, E):
    # the quadratures' float radicand and the array f differ only in rounding:
    # math.hypot against np.hypot (1 ulp) and, for powers, libm pow against
    # numpy's vectorised power (1 ulp each).  Where the terms cancel (turning
    # points, E + V = 0) that bounds the difference by the largest term, not
    # by the result.
    rp = RadialProblem(SmoothedPotential(spec, eps), E, l)
    w = rp.radicand
    l2 = l * l
    for r in np.geomspace(1e-9, 10.0, 2000):
        r = float(r)
        ref = rp.f(np.array([r]))[0] - l2
        V = rp.potential.value(np.array([r]))[0]
        largest = max(2.0 * r * r * (abs(E) + abs(V)), l2)
        assert abs(w(r) - ref) <= 4.0 * math.ulp(largest)
        if eps == 0.0 and spec.name == "logarithmic":
            assert w(r) == ref   # exact hypot, one log ufunc: same bits


@pytest.mark.parametrize("spec", [logarithmic(), homogeneous(0.5)], ids=["log", "hom"])
def test_float_radicand_rejects_zero_radius_without_smoothing(spec):
    w = RadialProblem(SmoothedPotential(spec, 0.0), 0.5, 0.2).radicand
    with pytest.raises(ValueError, match="eps > 0"):
        w(0.0)
    rp = RadialProblem(SmoothedPotential(spec, 1e-3), 0.5, 0.2)
    assert math.isfinite(rp.radicand(0.0))


def test_turning_points_reject_zero_angular_momentum():
    # a zero-l orbit is a fall to the centre, timed by collision_time and
    # fall_time; turning_points serves only l > 0
    for eps in (0.0, 0.5):
        with pytest.raises(ValueError, match="need l > 0"):
            turning_points(log_problem(0.0, 0.0, eps))


def test_no_orbit_without_a_zero_of_f():
    # E + V_eps stays nonpositive down to first_zero's 1e-14 floor: below the
    # smoothed core value, or a bare logarithm whose zero e^E lies below it.
    # first_zero says so, and turning_points passes its error on
    for rp, named in ((log_problem(-1.0, 0.1, eps=0.5), "E = -1.0, eps = 0.5"),
                      (log_problem(-40.0, 1e-2, eps=1e-2), "E = -40.0, eps = 0.01")):
        for find in (first_zero, turning_points):
            with pytest.raises(ValueError) as info:
                find(rp)
            assert str(info.value) == f"no orbit: E + V_eps has no zero above 1e-14 ({named})"


@pytest.mark.parametrize("l", [1e-1, 1e-2, 1e-3])
def test_positive_angular_momentum_keeps_orbit_off_centre(l):
    tp = turning_points(log_problem(0.0, l))
    assert tp.pericenter > 0.0
    assert tp.pericenter < tp.apocenter


def test_turning_point_residuals_and_interior_positivity():
    rp = log_problem(0.2, 0.3)
    tp = turning_points(rp)
    l2 = rp.ang_momentum ** 2
    assert abs(rp.f(tp.pericenter) - l2) < 1e-10
    assert abs(rp.f(tp.apocenter) - l2) < 1e-10
    rs = np.linspace(tp.pericenter, tp.apocenter, 102)[1:-1]
    assert all(rp.f(r) - l2 > 0 for r in rs)


def test_circular_orbit_detected_as_degenerate():
    # max of f = -2 r^2 log r is e^(-1) at e^(-1/2): l^2 = e^(-1) is circular,
    # a double root, which has no turning points to integrate between
    with pytest.raises(ValueError, match="^circular orbit"):
        turning_points(log_problem(0.0, math.exp(-0.5)))


def test_no_orbit_when_l_exceeds_peak():
    with pytest.raises(ValueError, match="no orbit"):
        turning_points(log_problem(0.0, 2.0 * math.exp(-0.5)))


def test_kepler_turning_points_closed_form():
    E, l = -0.4, 0.8
    rp = kepler_problem(E, l)
    tp = turning_points(rp)
    disc = math.sqrt(1.0 + 2.0 * E * l * l)
    assert tp.pericenter == pytest.approx((-1.0 + disc) / (2.0 * E), rel=1e-12)
    assert tp.apocenter == pytest.approx((-1.0 - disc) / (2.0 * E), rel=1e-12)


def test_unbounded_orbit_has_infinite_apocenter():
    # homogeneous alpha=0.5 with E >= 0: f grows without bound
    rp = RadialProblem(SmoothedPotential(homogeneous(0.5), 0.0), 0.5, 0.3)
    tp = turning_points(rp)
    assert tp.apocenter == math.inf
    assert first_zero(rp) == math.inf


def _full_scan_turning_points(rp, safe_radius=math.inf):
    """`turning_points` as it was before the scan went sparse: f - l^2 on
    every point of the 10,000-point geometric grid."""
    l = rp.ang_momentum
    if l == 0.0:
        raise ValueError("turning points need l > 0; a zero-l orbit is a fall to the centre")
    l2 = l * l
    P = first_zero(rp)
    w = rp.radicand
    hi = P if math.isfinite(P) else max(1e3, 10.0 * safe_radius if math.isfinite(safe_radius) else 0.0)
    grid = np.geomspace(1e-12, hi * (1.0 - 1e-12), radial.SCAN_POINTS)
    with np.errstate(all="ignore"):
        fvals = rp.f(grid) - l2
    finite = np.isfinite(fvals)
    if not finite.all():
        grid, fvals = grid[finite], fvals[finite]
    i_max = int(np.argmax(fvals))
    if 0 < i_max < len(grid) - 1:
        r_peak, f_low = radial.minimize_bounded(lambda r: -w(r), grid[i_max - 1],
                                                grid[i_max + 1], xatol=1e-14)
        f_peak = float(-f_low)
    else:
        r_peak, f_peak = float(grid[i_max]), float(fvals[i_max])
    if f_peak < -radial.DEGENERATE_TOL:
        raise ValueError(f"no orbit: l^2 = {l2!r} exceeds max f = {f_peak + l2!r} on the scan range")
    if f_peak < radial.DEGENERATE_TOL:
        raise ValueError("circular orbit: apsidal angle undefined by the turning-point formula")

    def refine(lo, hi_):
        return radial.brentq(w, lo, hi_, xtol=1e-15, rtol=8.9e-16)

    below_left = np.where(fvals[:i_max + 1] < 0)[0]
    pericenter = 0.0 if len(below_left) == 0 else refine(grid[below_left[-1]], r_peak)
    below_right = np.where(fvals[i_max:] < 0)[0]
    if len(below_right) > 0:
        apocenter = refine(r_peak, grid[i_max + below_right[0]])
    elif math.isfinite(P):
        apocenter = refine(max(r_peak, grid[-1]), P)
    else:
        apocenter = math.inf
    return radial.TurningPoints(pericenter, apocenter)


def _outcome(find, rp, safe_radius):
    try:
        return find(rp, safe_radius)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("alphas, energies, valley", [
    ((None,), (-3.0, 3.0), False),
    ((0.3, 0.5, 1.0, 1.5, 1.9), (-3.0, 3.0), False),
    ((2.5, 3.0, 30.0), (-3.0, 0.0), False),
    ((2.5, 3.0, 30.0), (0.0, 3.0), True),
], ids=["log", "homogeneous-alpha-le-2", "homogeneous-alpha-gt-2",
        "homogeneous-alpha-gt-2-valley"])
def test_turning_points_match_the_full_scan(alphas, energies, valley):
    # f has one peak for -log at every E, for homogeneous(alpha <= 2) at
    # every E and for alpha > 2 at E <= 0: there the sparse scan reads the
    # brackets of the full grid, so every answer and error is the same.
    # l is drawn up to just above the peak of f, so some orbits are
    # near-circular and some do not exist.
    # For alpha > 2 at E > 0, f has a valley, and l^2 is drawn just above its
    # floor, so f - l^2 dips below zero between two coarse points.  The
    # valley spans coarse points, which show its minimum, and the scan reads
    # the full grid.  eps <= 1e-2 keeps the core's bump of f, near r ~ eps,
    # coarse steps below the valley (README, "Library sketch")
    rng = np.random.default_rng(11)
    for _ in range(150):
        alpha = alphas[rng.integers(len(alphas))]
        spec = logarithmic() if alpha is None else homogeneous(alpha)
        eps = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-10, -2 if valley else 0)
        sm = SmoothedPotential(spec, eps)
        energy = rng.uniform(*energies)
        safe_radius = math.inf if rng.random() < 0.5 else rng.uniform(0.1, 500.0)
        with np.errstate(all="ignore"):
            f = RadialProblem(sm, energy, 0.0).f(np.geomspace(1e-12, 1e3, 2000))
        if valley:
            floor = float(np.min(f[1:-1][(f[1:-1] < f[:-2]) & (f[1:-1] < f[2:])]))
            l = math.sqrt(floor * (1.0 + 10.0 ** rng.uniform(-6, 0)))
        else:
            f_max = max(float(np.max(f[np.isfinite(f) & (f > 0)], initial=1e-300)), 1e-300)
            l = math.sqrt(f_max) * (10.0 ** rng.uniform(-8, 0.005) if rng.random() < 0.9
                                    else 1.0 - 10.0 ** rng.uniform(-14, -6))
        rp = RadialProblem(sm, energy, l)
        assert _outcome(turning_points, rp, safe_radius) == \
            _outcome(_full_scan_turning_points, rp, safe_radius), (spec.name, energy, l, eps)


def test_turning_points_find_the_apocentre_across_a_valley():
    # f = 2 E r^2 + 2/r has a valley at r = (2 E)^(-1/3), and l^2 sits just
    # above its floor: the orbit turns where f - l^2 first falls below zero
    rp = RadialProblem(SmoothedPotential(homogeneous(3.0), 0.0), 2.652163216421772,
                       2.29004434475413)
    tp = turning_points(rp)
    assert tp.pericenter == 0.0
    assert tp.apocenter == pytest.approx(0.54600561005, rel=1e-10)
    assert tp == _full_scan_turning_points(rp)


@pytest.mark.parametrize("eps", [0.0, 1e-20])
def test_turning_points_match_the_full_scan_past_a_non_finite_prefix(eps):
    # V = r^-30 overflows below about 1e-10.3 (at eps = 1e-20 too), so the
    # grid starts with non-finite values that both scans drop
    rp = RadialProblem(SmoothedPotential(homogeneous(30.0), eps), -1.0, 1.0)
    with np.errstate(all="ignore"):
        assert not np.isfinite(rp.f(np.array([1e-12])))[0]
    for l in (1e-3, 0.5, 1.0, 1.3):
        rp = RadialProblem(rp.potential, -1.0, l)
        assert _outcome(turning_points, rp, math.inf) == \
            _outcome(_full_scan_turning_points, rp, math.inf)


@pytest.mark.parametrize("rp", [
    log_problem(0.0, 1e-3, 1e-3),
    log_problem(0.0, 1e-9, 1e-9),
    log_problem(-1.0, 0.2),
    RadialProblem(SmoothedPotential(homogeneous(0.5), 1e-6), -1.0, 1e-6),
    RadialProblem(SmoothedPotential(homogeneous(0.5), 0.0), 0.5, 0.3),
], ids=["log-3", "log-9", "log-bare", "hom-6", "hom-unbounded"])
def test_turning_points_read_few_grid_points(rp):
    # the full scan evaluated all 10,000 grid points; the coarse pass reads
    # 101 and the window pass at most three windows of 201
    sizes = []
    value = rp.potential.base.value

    def counting(x):
        if isinstance(x, np.ndarray):
            sizes.append(x.size)
        return value(x)

    spec = dataclasses.replace(rp.potential.base, value=counting)
    turning_points(RadialProblem(SmoothedPotential(spec, rp.potential.epsilon),
                                 rp.energy, rp.ang_momentum))
    assert len(sizes) == 2 and sizes[0] == 101
    assert sum(sizes) <= 1000


@pytest.mark.parametrize("start, stop, num", [
    (1e-12, 1.0 - 1e-12, 10_000), (1e-12, 3.7e7, 10_000), (1e-12, 5e-13, 10_000),
    (1e-6, 50.0, 4000)])
def test_one_peak_scan_reads_geomspace_points(start, stop, num):
    # every point read is the geometric grid's own, bit for bit, in grid
    # order; the peak of a one-peak function is the grid's
    def g(r):
        return -np.log(r) * r * r

    r, values = radial._one_peak_scan(g, start, stop, num)
    full = np.geomspace(start, stop, num)
    index = np.flatnonzero(np.isin(full, r))
    assert np.array_equal(full[index], r) and len(index) == len(r)
    assert index[0] == 0 and index[-1] == num - 1
    assert np.array_equal(values, g(r))
    assert np.max(values) == np.max(g(full))


def test_collision_time_log_drop_closed_form():
    # T0 = int_0^1 drho/sqrt(-2 log rho) = sqrt(pi/2), via rho = exp(-u^2/2)
    assert fall_time(case_anchor(DropFromRest(0.0), logarithmic())) == pytest.approx(
        SQRT_HALF_PI, abs=1e-10)


def test_collision_time_dual_quadrature_oracle():
    # same integral by an independent plain quadrature on the substituted form
    from scipy.integrate import quad
    oracle, _ = quad(lambda u: math.exp(-u * u / 2.0), 0.0, 12.0,
                     epsabs=1e-12, epsrel=1e-12, limit=200)
    assert fall_time(case_anchor(DropFromRest(0.0), logarithmic())) == pytest.approx(
        oracle, abs=1e-8)


def test_collision_time_homogeneous_closed_form():
    # int_0^1 rho^(1/4)/sqrt(2) drho = (4/5)/sqrt(2)
    rp = RadialProblem(SmoothedPotential(homogeneous(0.5), 0.0), 0.0, 0.0)
    assert collision_time(rp, 1.0) == pytest.approx(0.8 / math.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("E", [-1.0, -0.5, 0.0, 0.5])
def test_fall_time_at_rest_log_closed_form(E):
    # rho = e^E x turns T0 into e^E int_0^1 dx/sqrt(-2 log x) = e^E sqrt(pi/2)
    assert fall_time(case_anchor(DropFromRest(E), logarithmic())) == pytest.approx(
        math.exp(E) * SQRT_HALF_PI, rel=1e-12)


@pytest.mark.parametrize("alpha", [1.0 / 3.0, 0.5, 0.9])
@pytest.mark.parametrize("E", [-2.0, -1.0, -0.5])
def test_fall_time_at_rest_homogeneous_closed_form(alpha, E):
    # rho = P u^(1/alpha) with P = (-E)^(-1/alpha) turns T0 into a beta function
    P = (-E) ** (-1.0 / alpha)
    a, b = 0.5 + 1.0 / alpha, 0.5
    beta = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    assert fall_time(case_anchor(DropFromRest(E), homogeneous(alpha))) == pytest.approx(
        P / math.sqrt(-2.0 * E) * beta / alpha, rel=1e-12)


@pytest.mark.parametrize("E", [-10.0, -20.0, -25.0, -30.0, -31.5])
def test_fall_time_at_solved_radius_log_closed_form(E):
    # deep drops: first_zero's absolute xtol leaves the solved rest radius r0
    # off e^E (by 7e-4 relative at E = -30), so the closed form is taken at
    # r0, where the fall from rest is r0 sqrt(pi/2)
    anchor = case_anchor(DropFromRest(E), logarithmic())
    assert fall_time(anchor) == pytest.approx(anchor.radius * SQRT_HALF_PI, rel=1e-11, abs=0.0)


def test_fall_time_at_solved_radius_homogeneous_closed_form():
    # V = r^-alpha at rest at r0: T0 = r0^(1 + alpha/2) / sqrt 2 B(1/alpha + 1/2, 1/2) / alpha
    alpha = 0.5
    anchor = case_anchor(DropFromRest(-1e6), homogeneous(alpha))
    a, b = 1.0 / alpha + 0.5, 0.5
    beta = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    assert fall_time(anchor) == pytest.approx(
        anchor.radius ** (1.0 + 0.5 * alpha) / math.sqrt(2.0) * beta / alpha, rel=1e-11, abs=0.0)


def _log_fall(mp, m):
    # V = -ln r at E = 0: r = exp(-u^2) gives sqrt 2 int_u^inf exp(-u^2) du
    return mp.sqrt(mp.pi / 2) * mp.erfc(mp.sqrt(mp.log(1 / m)))


def _hom_fall(mp, m):
    # V = r^-1/2 at E = -1: r = sin(phi)^4 gives 2 sqrt 2 int sin(phi)^4 dphi
    phi = mp.asin(m ** mp.mpf(0.25))
    return 2 * mp.sqrt(2) * (3 * phi / 8 - mp.sin(2 * phi) / 4 + mp.sin(4 * phi) / 32)


@pytest.mark.parametrize("potential, E, closed_form",
                         [(logarithmic(), 0.0, _log_fall), (homogeneous(0.5), -1.0, _hom_fall)],
                         ids=["log", "hom"])
@pytest.mark.parametrize("where", ["1e-8", "1e-3", "half"])
def test_time_of_flight_additivity_from_the_centre(potential, E, closed_form, where):
    # the part of the fall from rest that a datum moving at m has left: its
    # closed form in 30 digits (the float form of `_hom_fall` loses 7 digits
    # to cancellation at m = 1e-8)
    mp = pytest.importorskip("mpmath")
    anchor = case_anchor(DropFromRest(E), potential)
    rp = RadialProblem(SmoothedPotential(potential, 0.0), E, 0.0)
    m = 0.5 * anchor.radius if where == "half" else float(where)
    with mp.workdps(30):
        exact = float(closed_form(mp, mp.mpf(m)))
    assert collision_time(rp, m) == pytest.approx(exact, rel=1e-12)


def test_collision_time_decreases_with_energy():
    rp0 = log_problem(0.0, 0.0)
    rp1 = log_problem(0.5, 0.0)
    assert collision_time(rp1, 0.5) < collision_time(rp0, 0.5)


def test_collision_time_requires_zero_l():
    with pytest.raises(ValueError):
        collision_time(log_problem(0.0, 0.1), 0.5)


def test_collision_time_requires_a_moving_or_resting_datum():
    # at rest (E + V(r0) = 0) the fall is the drop's, bit for bit; beyond
    # the rest radius there is none
    rp = log_problem(0.0, 0.0)
    drop = fall_time(case_anchor(DropFromRest(0.0), logarithmic()))
    assert collision_time(rp, 1.0) == drop
    with pytest.raises(ValueError, match="E \\+ V\\(r0\\) is negative"):
        collision_time(rp, 2.0)
    for r0 in (0.0, -0.5):
        with pytest.raises(ValueError, match="r0 > 0"):
            collision_time(rp, r0)


def test_time_of_flight_strictly_increasing_in_upper_limit():
    rp = log_problem(0.2, 0.3)
    tp = turning_points(rp)
    rs = np.linspace(tp.pericenter, tp.apocenter, 12)[1:-1]
    times = [flight(rp, tp.pericenter, r, False) for r in rs]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_time_of_flight_continuity_near_collision_datum():
    # small perturbations of (E, l, r0, eps) move the fall time only slightly
    base = collision_time(log_problem(0.0, 0.0), 0.9)
    d = 1e-6
    rp = RadialProblem(SmoothedPotential(logarithmic(), d), 0.0 + d, d)
    tp = turning_points(rp)
    perturbed = flight(rp, tp.pericenter, 0.9 + d, False)
    assert abs(perturbed - base) < 1e-3


def test_case_anchor_drop():
    case, potential = DropFromRest(0.0), logarithmic()
    anchor = case_anchor(case, potential)
    assert anchor.case is case and anchor.potential is potential
    assert anchor.radius == pytest.approx(1.0, abs=1e-14)
    assert anchor.speed == 0.0
    # an unrealisable case is rejected here, so no sweep or flow ever sees one
    with pytest.raises(ValueError, match="inside the ball 0.5"):
        case_anchor(DropFromRest(0.0, ball_radius=0.5), logarithmic())
    # below 1e-14 first_zero gives up: there is no rest radius
    with pytest.raises(ValueError) as info:
        case_anchor(DropFromRest(-40.0), logarithmic())
    assert str(info.value) == \
        "no orbit: E + V_eps has no zero above 1e-14 (E = -40.0, eps = 0.0)"


def test_case_anchor_entry():
    # E = 1, ball 1: rest radius e > 1; boundary speed sqrt(2(1+0)) = sqrt 2
    anchor = case_anchor(InwardCrossing(1.0, 1.0), logarithmic())
    assert anchor.radius == 1.0
    assert anchor.speed == pytest.approx(-math.sqrt(2.0), rel=1e-14)
    with pytest.raises(ValueError):
        case_anchor(InwardCrossing(0.0, 2.0), logarithmic())
