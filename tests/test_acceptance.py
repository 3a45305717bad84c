"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from onecentre.apsidal import (apsidal_angle, bounds_audit,
                               calibration_integral, convergence_sweep,
                               default_paths)
from onecentre.flow import (continuity_experiment, diagonal_cells, extended_flow,
                            poincare_section, section_at)
from onecentre.potentials import (SmoothedPotential, check_slowly_varying,
                                  classify, homogeneous, logarithmic,
                                  weak_singularity_check)
from onecentre.radial import DropFromRest, RadialProblem, case_anchor, fall_time
from onecentre.simulator import (PhaseState, Perturbation, conserved_drift, integrate,
                                 make_initial_data, oracle_crosscheck)
from onecentre.tables import aitken_limit, is_decreasing
from onecentre.variational import delta_action

PI = math.pi
T0_LOG = math.sqrt(math.pi / 2.0)


def report(num: int, ok: bool, elapsed: float, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} "
          f"({elapsed:5.1f}s)  {detail}")


def log_law_limit(scales, values) -> float:
    """Limit X of X + A*(2L)^(-3/2) + B*(2L)^(-5/2), L = ln(1/s), fitted
    exactly through the last three (scale, value) cells.

    This is the law the smoothed apsidal angle obeys on the diagonal
    eps = l = s (README, "Convergence rates").  Aitken is exact only for
    geometric convergence, which these schedules do not have.
    """
    rows = [[1.0, x ** -1.5, x ** -2.5]
            for x in (2.0 * math.log(1.0 / s) for s in scales[-3:])]
    return float(np.linalg.solve(rows, values[-3:])[0])


def test_criterion_01_quadrature_identity():
    t0 = time.time()
    errs = {xi: abs(calibration_integral(xi) - PI)
            for xi in (1.0001, 1.5, 2.0, 10.0, 1e6)}
    elapsed = time.time() - t0
    ok = max(errs.values()) <= 1e-8 and elapsed < 1.0
    report(1, ok, elapsed, f"worst |integral - pi| = {max(errs.values()):.2e}")
    assert max(errs.values()) <= 1e-8
    assert elapsed < 1.0


def test_criterion_02_kepler_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(5):
        E = rng.uniform(-0.6, -0.25)
        l = rng.uniform(0.2, 0.95) / math.sqrt(-2.0 * E)
        rp = RadialProblem(SmoothedPotential(homogeneous(1.0), 0.0), E, l)
        worst = max(worst, abs(apsidal_angle(rp).value - PI))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    report(2, ok, elapsed, f"worst |angle - pi| = {worst:.2e} on 5 elliptic orbits")
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_criterion_03_homogeneous_limit():
    t0 = time.time()
    devs = {}
    for alpha in (0.5, 2.0 / 3.0):
        target = PI / (2.0 - alpha)
        angles = []
        for k in range(4, 15):
            rp = RadialProblem(SmoothedPotential(homogeneous(alpha), 0.0),
                               -0.5, 2.0 ** -k)
            angles.append(apsidal_angle(rp).value)
        devs[alpha] = abs(aitken_limit(angles) - target)
    elapsed = time.time() - t0
    ok = max(devs.values()) <= 1e-3 and elapsed < 30.0
    report(3, ok, elapsed,
           f"extrapolant misses pi/(2-alpha) by "
           + ", ".join(f"{a:.3g}: {d:.2e}" for a, d in devs.items()))
    assert max(devs.values()) <= 1e-3
    assert elapsed < 30.0


def test_criterion_04_smoothing_limit_desk_scale():
    t0 = time.time()
    table = convergence_sweep(case_anchor(DropFromRest(0.0), logarithmic()),
                              default_paths(range(2, 7)))
    diag = [row for row in table.rows if row[0] == "diagonal"]
    scales = [row[2] for row in diag]
    angles = [row[6] for row in diag]
    dev_coarse = abs(angles[0] - PI / 2)
    dev_fine = abs(angles[-1] - PI / 2)
    ratio = dev_coarse / dev_fine
    # the diagonal deviation is (pi/2)(2L)^(-3/2) times a factor that falls
    # toward 1 as L = ln(1/s) grows, so the coarse/fine ratio is at least the
    # law factor (L_fine/L_coarse)^(3/2) (README, "Convergence rates")
    law_factor = (math.log(scales[-1]) / math.log(scales[0])) ** 1.5
    diag_miss = abs(log_law_limit(scales, angles) - PI / 2)
    axis_miss, axis_q = {}, {}
    for pid in ("eps_first", "l_first"):
        x0, x1, x2 = [row[6] for row in table.rows if row[0] == pid][-3:]
        axis_miss[pid] = abs(table.meta["path_limits"][pid]["estimate"] - PI / 2)
        axis_q[pid] = (x2 - x1) / (x1 - x0)
    elapsed = time.time() - t0

    factor_ok = ratio >= law_factor
    diag_ok = diag_miss <= 1e-2
    axis_ok = all(m <= 1e-2 for m in axis_miss.values())
    ok = factor_ok and diag_ok and axis_ok and elapsed < 120.0
    report(4, ok, elapsed,
           f"diagonal coarse/fine dev ratio = {ratio:.2f} (need >= law factor "
           f"{law_factor:.3f}); diagonal law-fit miss of pi/2 = {diag_miss:.2e} "
           f"(need <= 1e-2); axis-first Aitken misses: "
           + ", ".join(f"{p}: {m:.2e} (q = {axis_q[p]:.1f})"
                       for p, m in axis_miss.items())
           + " (need <= 1e-2 each)")
    assert elapsed < 120.0
    assert factor_ok, (
        f"finest diagonal deviation {dev_fine:.3e} is only {ratio:.2f}x below "
        f"the coarsest {dev_coarse:.3e}; the law requires {law_factor:.3f}x")
    assert diag_ok, (
        f"diagonal law-fit limit misses pi/2 by {diag_miss:.3e}; threshold 1e-2")
    # Both axis-first paths end at the diagonal's corner cell (1e-6, 1e-6),
    # which lies outside their iterated-limit regimes.  Their last two
    # increments grow by a ratio q > 1 there, so Aitken returns a repelling
    # fixed point.  No finite-schedule check of these two paths is settled (README,
    # "Convergence rates"), so this assertion is kept as written.
    assert axis_ok, (
        f"axis-first Aitken misses of pi/2 {axis_miss}; threshold 1e-2. "
        f"Both paths end at the diagonal's corner cell (1e-6, 1e-6), outside "
        f"their iterated-limit regimes, so their last two increments grow by "
        f"q = " + ", ".join(f"{p}: {q:.1f}" for p, q in axis_q.items())
        + " and Aitken returns a repelling fixed point; no finite-schedule "
        "check of these paths is settled (README, 'Convergence rates')")


def test_criterion_05_bound_audits():
    t0 = time.time()
    table = bounds_audit(logarithmic(), (1e-2, 1e-4), 1000, seed=777,
                         energy=0.0, violation_tol=1e-9)
    violations = len(table.meta["violations"])
    worst_env = min(row[6] for row in table.rows if row[0] == "envelope")
    # the factor rows' margin is beta - factor
    worst_fac = -min(row[6] for row in table.rows if row[0] == "factor")
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 10.0
    report(5, ok, elapsed,
           f"violations = {violations}; envelope worst margin {worst_env:.2e}, "
           f"factor worst excess {worst_fac:.2e}")
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_06_conservation_and_oracle_equivalence():
    t0 = time.time()
    bare = SmoothedPotential(logarithmic(), 0.0)
    # drift over horizon 100 at tol 1e-12
    traj = integrate(PhaseState((1.2, 0.0), (0.0, 0.7)), bare, horizon=100.0)
    dE, dl = conserved_drift(traj)
    # apocentre-to-apocentre vs twice the radial flight time, relative, 20 orbits
    oracle = oracle_crosscheck(logarithmic(), 20, seed=42)
    assert oracle.meta["failing"] is None
    worst_period = oracle.meta["worst_period_mismatch"]
    elapsed = time.time() - t0
    ok = dE < 1e-8 and dl < 1e-8 and worst_period < 1e-6 and elapsed < 60.0
    report(6, ok, elapsed,
           f"drift (dE, dl) = ({dE:.1e}, {dl:.1e}); "
           f"worst relative period mismatch = {worst_period:.1e} over 20 orbits")
    assert dE < 1e-8 and dl < 1e-8
    assert worst_period < 1e-6
    assert elapsed < 60.0


def test_criterion_07_extended_flow_continuity():
    t0 = time.time()
    anchor = case_anchor(DropFromRest(0.0), logarithmic())
    T = 1.5 * T0_LOG
    table = continuity_experiment(anchor, T, diagonal_cells(range(2, 7)))
    ref = table.meta["reference"]
    ref_speed = math.hypot(ref[2], ref[3])
    d = table.column("dist_total")
    eps = table.column("epsilon")
    # theta_increment - pi is about twice the diagonal apsidal deviation and
    # d about |y(T)| times that, so both follow the diagonal law of
    # criterion 4 (README, "Convergence rates")
    law_factor = (math.log(eps[0]) / math.log(eps[-1])) ** 1.5
    theta_miss = abs(log_law_limit(eps, table.column("theta_increment")) - PI)
    elapsed = time.time() - t0

    nonincreasing = is_decreasing(d)
    factor_ok = d[-1] / d[0] <= law_factor
    theta_ok = theta_miss <= 1e-2
    ok = ref_speed > 1e-8 and nonincreasing and factor_ok and theta_ok \
        and elapsed < 120.0
    report(7, ok, elapsed,
           f"|v(T)| = {ref_speed:.3f}; d nonincreasing = {nonincreasing}; "
           f"d(1e-6)/d(1e-2) = {d[-1] / d[0]:.3f} (need <= law factor "
           f"{law_factor:.3f}); theta law-fit misses pi by {theta_miss:.2e} "
           f"(need <= 1e-2)")
    assert ref_speed > 1e-8
    assert nonincreasing
    assert elapsed < 120.0
    assert factor_ok, (
        f"d(1e-6)/d(1e-2) = {d[-1] / d[0]:.3f} above the law factor {law_factor:.3f}")
    assert theta_ok, f"theta law-fit limit misses pi by {theta_miss:.3e}"


def test_criterion_08_poincare_section():
    t0 = time.time()
    anchor = case_anchor(DropFromRest(0.0), logarithmic())
    T = 1.5 * T0_LOG
    tau_devs, trace_devs = [], []
    all_found = True
    section = section_at(anchor, T)
    for delta in (1e-2, 1e-3, 1e-4):
        table = poincare_section(section, delta, sample_count=50, seed=808)
        all_found &= table.meta["crossings_found"] == table.meta["samples"]
        tau_devs.append(table.meta["max_tau_dev"])
        trace_devs.append(table.meta["max_trace_dev"])
    elapsed = time.time() - t0
    decreasing = all(b < a for a, b in zip(tau_devs, tau_devs[1:])) and \
        all(b < a for a, b in zip(trace_devs, trace_devs[1:]))
    ok = all_found and decreasing and elapsed < 120.0
    report(8, ok, elapsed,
           f"crossings found for all 150 samples = {all_found}; "
           f"max|tau-T| = {[f'{v:.2e}' for v in tau_devs]}, "
           f"max|S-y1| = {[f'{v:.2e}' for v in trace_devs]}")
    assert all_found
    assert decreasing
    assert elapsed < 120.0


def test_criterion_09_variational_non_minimality():
    t0 = time.time()
    anchor = case_anchor(DropFromRest(0.0), logarithmic())
    meta = delta_action(anchor, (1e-2, 1e-3, 1e-4), 0.5, 2 ** 14).meta
    elapsed = time.time() - t0
    all_positive = all(dA > 0 for dA in meta["dA"])
    kinetic_mismatch = meta["kinetic_mismatch"]
    ratios = meta["dV_over_delta_sq"]
    increasing = ratios[0] < ratios[1] < ratios[2]
    ok = all_positive and kinetic_mismatch <= 1e-10 and increasing and elapsed < 30.0
    report(9, ok, elapsed,
           f"dA = {[f'{dA:.3e}' for dA in meta['dA']]}; kinetic mismatch = "
           f"{kinetic_mismatch:.1e}; dV/delta^2 = {[f'{r:.3g}' for r in ratios]}")
    assert all_positive
    assert kinetic_mismatch <= 1e-10
    assert increasing
    assert elapsed < 30.0


def test_criterion_10_class_discrimination():
    t0 = time.time()
    log_rep = classify(logarithmic())
    log_sv, _ = check_slowly_varying(logarithmic())
    half_rep = classify(homogeneous(0.5))
    half_sv, _ = check_slowly_varying(homogeneous(0.5))
    one_rep = classify(homogeneous(1.0))
    two_weak = weak_singularity_check(homogeneous(2.0))
    elapsed = time.time() - t0
    checks = {
        "log admissible": log_rep.admissible is True,
        "log slowly varying": log_sv is True,
        "log safe radius inf": log_rep.safe_radius == math.inf,
        "alpha=1/2 admissible": half_rep.admissible is True,
        "alpha=1/2 not slowly varying": half_sv is False,
        "alpha=1 not admissible": one_rep.admissible is False,
        "alpha=2 not weak": two_weak is False,
    }
    ok = all(checks.values()) and elapsed < 5.0
    bad = [k for k, v in checks.items() if not v]
    report(10, ok, elapsed, "all class verdicts correct" if not bad
           else f"failed: {bad}")
    assert not bad
    assert elapsed < 5.0


def sign_of_l_cells(potential, energy: float, exponents):
    """|y(T)| of the drop's transmission state at T = 1.5 T0, and per
    l = 10^-k of the schedule the row (d(+l), d(-l), theta(+l), theta(-l),
    d(+l, -l)): eps = 0, d is the phase distance at T to the transmission
    state and theta the angle swept by T."""
    anchor = case_anchor(DropFromRest(energy), potential)
    T = 1.5 * fall_time(anchor)

    def at(l):
        orbit = extended_flow(make_initial_data(anchor, Perturbation(l=l)), 0.0,
                              potential, T)
        return orbit.state_at(T).as_vector(), orbit.theta_at(T)

    ref = at(0.0)[0]
    rows = []
    for k in exponents:
        (yp, tp), (ym, tm) = at(10.0 ** -k), at(-10.0 ** -k)
        rows.append((np.linalg.norm(yp - ref), np.linalg.norm(ym - ref), tp, tm,
                     np.linalg.norm(yp - ym)))
    return float(np.linalg.norm(ref)), np.array(rows)


def test_criterion_11_sign_of_l_controls():
    # Along l at eps = 0 the outgoing state of x^(-alpha) is the transmission
    # state rotated by +-D, D = pi alpha / (2 - alpha) (ROADMAP item 13):
    # d -> 2 sin(D/2) |y(T)|, theta -> +-(pi + D), d(+l, -l) -> 2 sin(D) |y(T)|.
    # alpha = 1/2 has a jump that differs between the signs; Kepler (D = pi)
    # sits on the bounce, where the two signs meet; the logarithm (D -> 0)
    # falls to the transmission from both signs.  alpha = 1/4 waits for a law
    # fit: at l = 1e-5 it is still 5.2% off its plateau.
    t0 = time.time()
    half_y, half = sign_of_l_cells(homogeneous(0.5), -1.0, [2, 3, 4, 5])
    kep_y, kep = sign_of_l_cells(homogeneous(1.0), -1.0, [2, 3, 3.5])
    log_y, log = sign_of_l_cells(logarithmic(), 0.0, [2, 3, 4, 5, 6, 7])
    elapsed = time.time() - t0
    kep_l = 10.0 ** -np.array([2, 3, 3.5])

    D = PI / 3
    half_limits = {"d": (half[:, 0], 2 * math.sin(D / 2) * half_y),
                   "theta": (half[:, 2], PI + D),
                   "d(+l,-l)": (half[:, 4], 2 * math.sin(D) * half_y)}
    # measured at l = 1e-5: the misses are 9.7e-4, 1.2e-3 and 1.1e-3, and
    # shrink about 4.5-fold per decade; Aitken's extrapolant of the last
    # three cells misses by at most 4.2e-5
    half_misses = {name: np.abs(values - limit)
                   for name, (values, limit) in half_limits.items()}
    half_aitken = {name: abs(aitken_limit(list(values)) - limit)
                   for name, (values, limit) in half_limits.items()}
    checks = {
        "mirror symmetric": all(np.allclose(rows[:, 0], rows[:, 1], rtol=1e-12, atol=0)
                                and np.allclose(rows[:, 2], -rows[:, 3], rtol=1e-12, atol=0)
                                for rows in (half, kep, log)),
        "alpha=1/2 misses shrink": all(is_decreasing(m) for m in half_misses.values()),
        "alpha=1/2 misses at 1e-5 <= 2e-3": all(m[-1] <= 2e-3 for m in half_misses.values()),
        "alpha=1/2 Aitken misses <= 1e-4": all(m <= 1e-4 for m in half_aitken.values()),
        # the signs stay a jump apart: 1.626 at 1e-5
        "alpha=1/2 signs apart >= 1.6": bool((half[:, 4] >= 1.6).all()),
        # Kepler's bounce 2 |y(T)| = 2.08833 is met within 7.5e-5 at 1e-2
        "Kepler d on the bounce within 1e-4": bool((np.abs(kep[:, 0] - 2 * kep_y) <= 1e-4).all()),
        # 2 pi - theta is 0.625 l and d(+l, -l) 1.92 l
        "Kepler theta within l of 2 pi": bool((2 * PI - kep[:, 2] <= kep_l).all()),
        "Kepler signs meet like l": bool(((kep[:, 4] >= 1.5 * kep_l)
                                          & (kep[:, 4] <= 2.5 * kep_l)).all()),
        # d falls from 0.380 to 0.0985 and d(+l, -l) from 0.747 to 0.197
        "log d falls": is_decreasing(log[:, 0]) and is_decreasing(log[:, 4]),
        "log theta falls to pi": is_decreasing(log[:, 2]) and bool((log[:, 2] > PI).all()),
        "log ends within 1e-3": bool(abs(log[0, 0] - 0.380) <= 1e-3
                                     and abs(log[-1, 0] - 0.0985) <= 1e-3
                                     and abs(log[0, 4] - 0.747) <= 1e-3
                                     and abs(log[-1, 4] - 0.197) <= 1e-3),
    }
    ok = all(checks.values()) and elapsed < 1.0
    bad = [k for k, v in checks.items() if not v]
    report(11, ok, elapsed,
           f"alpha=1/2 at 1e-5: d = {half[-1, 0]:.5f} (-> {half_limits['d'][1]:.5f}), "
           f"theta = {half[-1, 2]:.5f} (-> {PI + D:.5f}), d(+l,-l) = {half[-1, 4]:.4f} "
           f"(-> {half_limits['d(+l,-l)'][1]:.4f}); Kepler d(+l,-l) at 10^-3.5 = "
           f"{kep[-1, 4]:.2e}; log d at 1e-7 = {log[-1, 0]:.4f}"
           + (f"; failed: {bad}" if bad else ""))
    assert not bad
    assert elapsed < 1.0


def collision_law_ratios(potential, energy: float, exponents) -> np.ndarray:
    """Per diagonal cell eps = l = dq = dv1 = 10^-k of a drop, the ratios
    d(T) / (n |y(T)| 2 (dtheta - pi/2)) at T = (2n - 1/2) T0, n = 1 ... 4:
    d is the phase distance at T to the transmission path continued past
    its collisions, y(T) that path's state, and dtheta the apsidal angle of
    the cell's own (E, eps, |l|).  Shape (cells, 4)."""
    anchor = case_anchor(DropFromRest(energy), potential)
    Ts = [(2 * n - 0.5) * fall_time(anchor) for n in range(1, 5)]
    path = extended_flow(make_initial_data(anchor), 0.0, potential, Ts[-1])
    rows = []
    for eps, pert in diagonal_cells(exponents):
        y0 = make_initial_data(anchor, pert)
        orbit = extended_flow(y0, eps, potential, Ts[-1])
        sm = SmoothedPotential(potential, eps)
        excess = apsidal_angle(RadialProblem(sm, y0.energy(sm), abs(y0.ang_momentum))).value \
            - PI / 2
        rows.append([orbit.state_at(T).distance(path.state_at(T))
                     / (n * np.linalg.norm(path.state_at(T).as_vector()) * 2 * excess)
                     for n, T in enumerate(Ts, 1)])
    return np.array(rows)


def test_criterion_12_collision_law_of_the_extended_flow():
    # ROADMAP item 18: each collision passed turns a near-collision orbit
    # against the transmission by 2 (dtheta - pi/2), so the distance grows
    # like n, and the ODE flow and the apsidal quadrature measure one
    # quantity.  Measured: the log reads 1.033-1.041 at 1e-2, within 1.2e-3
    # of 1 from 1e-4 and within 2e-4 from 1e-7; homogeneous(0.5) reads 0.950
    # at 1e-2 and n = 4, 0.9875 at 1e-3, and is left out below 1e-7, where
    # the quadrature's angle is off (1.0195 at 1e-8, ROADMAP item 2).
    t0 = time.time()
    log = collision_law_ratios(logarithmic(), 0.0, range(2, 9))
    hom = collision_law_ratios(homogeneous(0.5), -1.0, range(2, 8))
    elapsed = time.time() - t0
    # |ratio - 1| allowed per cell, s = 1e-2 ... 1e-8
    tol = np.array([6e-2, 2e-2, 5e-3, 2e-3, 2e-3, 5e-4, 5e-4])[:, None]
    misses = {"log": np.abs(log - 1.0), "homogeneous(0.5)": np.abs(hom - 1.0)}
    bad = [name for name, m in misses.items() if not (m <= tol[:len(m)]).all()]
    ok = not bad and elapsed < 10.0
    report(12, ok, elapsed,
           "; ".join(f"{name} |ratio - 1| at 1e-2: {m[0].max():.3f}, from 1e-4: "
                     f"{m[2:].max():.1e}, at the last cell: {m[-1].max():.1e}"
                     for name, m in misses.items())
           + (f"; failed: {bad}" if bad else ""))
    assert not bad
    assert elapsed < 10.0
