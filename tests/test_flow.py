import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from onecentre import flow
from onecentre.cli import main
from onecentre.flow import (ExitedBall, Fall, MirroredOrbit,
                            continuity_experiment, diagonal_cells, extended_flow,
                            phase_field, poincare_section, section_at)
from onecentre.potentials import SmoothedPotential, homogeneous, logarithmic
from onecentre.radial import (DropFromRest, InwardCrossing, RadialProblem, case_anchor,
                              collision_time, fall_time)
from onecentre.simulator import (APSE, COLLISION_RADIUS, DEFAULT_ATOL, DEFAULT_RTOL,
                                 TRANSMISSION_FRACTION, PhaseState, Perturbation,
                                 Trajectory, integrate, make_initial_data)

BARE_LOG = SmoothedPotential(logarithmic(), 0.0)
T0_LOG = math.sqrt(math.pi / 2.0)   # fall time of the unit drop, E = 0
#: the unit drop, solved
DROP0 = case_anchor(DropFromRest(0.0), logarithmic())


@pytest.fixture(scope="module")
def drop_path():
    return extended_flow(PhaseState((1.0, 0.0), (0.0, 0.0)), 0.0, logarithmic(), T0_LOG)


def test_collision_time_closed_form(drop_path):
    assert drop_path.half.t_end == pytest.approx(T0_LOG, abs=1e-9)


def test_transmission_endpoint_reflected(drop_path):
    end = drop_path.state_at(2.0 * drop_path.half.t_end)
    assert end.position == pytest.approx([-1.0, 0.0], abs=1e-9)
    assert end.velocity == pytest.approx([0.0, 0.0], abs=1e-7)


def test_transmission_radial_symmetry(drop_path):
    T0 = drop_path.half.t_end
    for s in np.linspace(0.05, 0.95, 9) * T0:
        pre = drop_path.state_at(T0 - s)
        post = drop_path.state_at(T0 + s)
        assert post.position == pytest.approx(-pre.position, abs=1e-12)
        assert post.velocity == pytest.approx(pre.velocity, abs=1e-12)
        assert post.r == pytest.approx(pre.r, abs=1e-12)


def test_transmission_energy_preserved(drop_path):
    T0 = drop_path.half.t_end
    for t in np.linspace(0.1, 1.9, 13) * T0:
        st = drop_path.state_at(t)
        assert st.energy(BARE_LOG) == pytest.approx(drop_path.half.pre.energy0, abs=1e-8)


def test_transmission_collision_instant_excluded(drop_path):
    with pytest.raises(ValueError):
        drop_path.state_at(drop_path.half.t_end)
    with pytest.raises(ValueError):
        drop_path.state_at(-0.1)


def test_transmission_theta_jump(drop_path):
    T0 = drop_path.half.t_end
    assert drop_path.theta_at(0.5 * T0) == pytest.approx(0.0)
    assert drop_path.theta_at(1.5 * T0) == pytest.approx(math.pi)


def test_transmission_theta_is_swept_angle_off_axis():
    # as a trajectory's theta_at: the angle swept since t = 0, whatever the
    # direction of the fall line
    # its r0 = 1.005 takes it past T0_LOG to its own collision threshold
    path = extended_flow(make_initial_data(DROP0, Perturbation(dq=(0.0, 0.1))), 0.0,
                         logarithmic(), 1.5 * T0_LOG)
    assert isinstance(path, MirroredOrbit) and isinstance(path.half, Fall)
    T0 = path.half.t_end
    assert path.theta_at(0.0) == path.theta_at(0.5 * T0) == 0.0
    assert path.theta_at(1.5 * T0) == math.pi
    with pytest.raises(ValueError):
        path.theta_at(T0)
    # the transmission is the mirror R = -I with theta_p = pi/2, exactly: at
    # t = T0 + s it reads the fall at 2 T0 - t (T0 - s up to the rounding of
    # t); the fall line drifts off the axis in the last bits, where a mirror
    # I - 2 n n^T along it would not give -x
    for t in T0 + np.array([1e-6, 0.1, 0.5, 0.9, 1.0]) * T0:
        post, pre = path.state_at(t), path.state_at(2.0 * T0 - t)
        assert np.all(post.position == -pre.position)
        assert np.all(post.velocity == pre.velocity)
        assert path.theta_at(t) == math.pi


def test_transmission_involution(drop_path):
    # run the reflected post-leg backward as a fresh collision problem: the
    # new extension reproduces the original pre-leg samples
    T0 = drop_path.half.t_end
    start = drop_path.state_at(2.0 * T0 - 1e-3)
    path2 = extended_flow(PhaseState(start.position, -start.velocity), 0.0, logarithmic(),
                          T0_LOG)
    T02 = path2.half.t_end
    for s in np.linspace(0.1, 0.9, 7) * min(T0, T02):
        a = drop_path.state_at(T0 - s)
        b = path2.state_at(T02 + s)
        assert b.position == pytest.approx(a.position, abs=1e-9)
        assert b.velocity == pytest.approx(-a.velocity, abs=1e-8)


def test_collision_datum_that_never_falls_has_no_path():
    # a radial datum escaping outward never reaches the collision threshold:
    # no fall, no mirror, and its orbit is the plain leg to the horizon
    y0 = PhaseState((1.0, 0.0), (5.0, 0.0))
    for horizon, r in ((0.1, 1.4980), (1.0, 5.9156)):
        orbit = extended_flow(y0, 0.0, homogeneous(0.5), horizon)
        plain = integrate(y0, SmoothedPotential(homogeneous(0.5), 0.0), horizon)
        assert isinstance(orbit, Trajectory) and orbit.stop is None and orbit.t_end == horizon
        assert np.array_equal(orbit.states, plain.states)
        assert orbit.state_at(horizon).r == pytest.approx(r, abs=1e-4)


def test_fall_cut_by_the_horizon_is_a_plain_leg(drop_path):
    # a drop read before its collision threshold integrates to the horizon
    # only, and reads there as the whole fall does
    orbit = extended_flow(PhaseState((1.0, 0.0), (0.0, 0.0)), 0.0, logarithmic(), 0.5)
    assert isinstance(orbit, Trajectory) and orbit.stop is None and len(orbit.times) == 8
    assert len(drop_path.half.pre.times) > 10 * len(orbit.times)
    np.testing.assert_allclose(orbit.state_at(0.5).as_vector(),
                               drop_path.state_at(0.5).as_vector(), rtol=1e-15, atol=1e-16)


def test_ball_exit_after_the_horizon_is_no_exit():
    # thrown outward from r = 1 at 0.3, the datum leaves the ball r = 1.02 at
    # t = 0.076, after the horizon 0.01: the orbit ends at the horizon
    orbit = extended_flow(PhaseState((1.0, 0.0), (0.3, 0.0)), 0.0, logarithmic(), 0.01,
                          ball_radius=1.02)
    assert isinstance(orbit, Trajectory) and orbit.stop is None and orbit.t_end == 0.01
    assert orbit.state_at(0.01).r == pytest.approx(1.00295, abs=1e-5)
    with pytest.raises(ExitedBall) as exc:
        extended_flow(PhaseState((1.0, 0.0), (0.3, 0.0)), 0.0, logarithmic(), 0.1,
                      ball_radius=1.02)
    assert exc.value.exit_time == pytest.approx(0.0763, abs=1e-4)


def test_extended_map_before_collision_is_plain_integration(drop_path):
    T = 0.5 * T0_LOG
    y0 = PhaseState((1.0, 0.0), (0.0, 0.0))
    st = extended_flow(y0, 0.0, logarithmic(), T).state_at(T)
    ref = drop_path.state_at(T)
    assert st.position == pytest.approx(ref.position, abs=1e-10)


def test_extended_map_at_double_collision_time(drop_path):
    y0 = PhaseState((1.0, 0.0), (0.0, 0.0))
    T = 2.0 * drop_path.half.t_end
    st = extended_flow(y0, 0.0, logarithmic(), T).state_at(T)
    assert st.position == pytest.approx([-1.0, 0.0], abs=1e-9)
    assert st.velocity == pytest.approx([0.0, 0.0], abs=1e-7)


def test_extended_map_mid_transmission_radius(drop_path):
    T0 = drop_path.half.t_end
    y0 = PhaseState((1.0, 0.0), (0.0, 0.0))
    st = extended_flow(y0, 0.0, logarithmic(), 1.5 * T0).state_at(1.5 * T0)
    assert st.r == pytest.approx(drop_path.state_at(0.5 * T0).r, abs=1e-10)
    assert st.position[0] < 0   # transmitted to the far side


def test_extended_map_rejects_collision_instant(drop_path):
    T0 = drop_path.half.t_end
    path = extended_flow(PhaseState((1.0, 0.0), (0.0, 0.0)), 0.0, logarithmic(), T0)
    assert path.half.t_end == T0
    with pytest.raises(ValueError, match="unbounded"):
        path.state_at(T0)


def test_extended_map_noncollision_data_delegates():
    y0 = PhaseState((1.0, 0.0), (0.0, 0.3))
    st = extended_flow(y0, 1e-3, logarithmic(), 1.0).state_at(1.0)
    sm = SmoothedPotential(logarithmic(), 1e-3)
    ref = integrate(y0, sm, horizon=1.0).state_at(1.0)
    assert st.position == pytest.approx(ref.position)


def test_extended_map_reports_ball_exit():
    y0 = PhaseState((1.0, 0.0), (0.9, 0.0))
    with pytest.raises(ExitedBall):
        extended_flow(y0, 1e-3, logarithmic(), 10.0, ball_radius=1.3)


def test_continuity_distances_decrease():
    T = 1.5 * T0_LOG
    table = continuity_experiment(DROP0, T, diagonal_cells(range(2, 6)))
    d = table.column("dist_total")
    assert table.meta["nonincreasing"]
    assert all(b < a for a, b in zip(d, d[1:]))
    # angular increments head toward the transmission value pi
    th = table.column("theta_increment")
    assert all(abs(b - math.pi) < abs(a - math.pi) for a, b in zip(th, th[1:]))


def test_continuity_control_before_collision():
    # T < T0: classical smooth dependence, distances collapse fast
    T = 0.5 * T0_LOG
    table = continuity_experiment(DROP0, T, diagonal_cells(range(2, 5)))
    d = table.column("dist_total")
    assert d[-1] < 1e-3
    assert d[-1] < d[0] / 50.0


def test_continuity_failure_names_its_cell(tmp_path):
    # the eps = l = 1e-12 cell grazes the centre and the stepper gives up: the
    # cell gets a nan row and a marked entry naming it, the other rows stay,
    # and the run writes its table and a false verdict
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"exponents": [2, 12]}))
    assert main(["poincare-continuity", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    with open(tmp_path / "poincare_continuity_summary.json") as fh:
        summary = json.load(fh)
    assert summary["verdict"] is False
    [(k, message)] = summary["evidence"]["marked_cells"]
    assert k == 1
    assert message.startswith("eps=1e-12, l=1e-12: integration failed: required step size")
    rows = (tmp_path / "poincare_continuity.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "1"]
    assert not math.isnan(float(rows[0].split(",")[5]))
    assert all(math.isnan(float(v)) for v in rows[1].split(",")[5:])


def test_continuity_collision_cells_follow_the_extended_map():
    # eps = 0, l = 0 cells are collision data: transported by their own
    # transmission paths, not read off an integration aborted at collision
    T = 1.5 * T0_LOG
    cells = [(0.0, Perturbation(dq=(s, 0.0))) for s in (1e-2, 1e-3, 1e-4)]
    table = continuity_experiment(DROP0, T, cells)
    ref = extended_flow(make_initial_data(DROP0), 0.0, logarithmic(), T).state_at(T)
    for (_, pert), d, theta in zip(cells, table.column("dist_total"),
                                   table.column("theta_increment")):
        st = extended_flow(make_initial_data(DROP0, pert), 0.0,
                           logarithmic(), T).state_at(T)
        assert d == pytest.approx(st.distance(ref), abs=1e-10)
        assert theta == math.pi


def test_extended_flow_covers_the_horizon():
    y0 = PhaseState((1.0, 0.0), (0.0, 0.0))
    path = extended_flow(y0, 0.0, logarithmic(), 1.5 * T0_LOG)
    assert isinstance(path, MirroredOrbit) and isinstance(path.half, Fall)
    assert path.legs == () and path.t_end == 2.0 * path.half.t_end
    # past 2 T0 the transmission path goes on as the extended flow of its
    # state there, the same drop from the far side: one leg per fall, each
    # a mirror with no legs of its own
    path = extended_flow(y0, 0.0, logarithmic(), 5.5 * T0_LOG)
    assert len(path.legs) == 2
    assert all(isinstance(leg, MirroredOrbit) and isinstance(leg.half, Fall) and leg.legs == ()
               for leg in path.legs)
    assert path.t_end >= 5.5 * T0_LOG
    # a smoothed orbit is read past its pericentre near T0 by the mirror, up
    # to 2 t_p, and on by the mirrors of the orbits that follow: never by a
    # plain integration past a pericentre
    traj = extended_flow(y0, 1e-3, logarithmic(), 1.5 * T0_LOG)
    assert isinstance(traj, MirroredOrbit) and traj.legs == ()
    assert traj.t_end == 2.0 * traj.half.t_end >= 1.5 * T0_LOG
    traj = extended_flow(y0, 1e-3, logarithmic(), 5.5 * T0_LOG)
    assert len(traj.legs) == 2 and all(leg.legs == () for leg in traj.legs)
    for leg in (traj, *traj.legs):
        assert isinstance(leg, MirroredOrbit) and leg.half.stop == APSE
    # every t up to the horizon reads (this grid misses the collision
    # instants, odd multiples of T0)
    for orbit in (path, traj):
        for t in np.linspace(0.0, 5.5 * T0_LOG, 41):
            orbit.state_at(t), orbit.theta_at(t)
        with pytest.raises(ValueError, match="outside the trajectory domain"):
            orbit.state_at(orbit.t_end + 1.0)
    # l = 1e-11 is no collision datum, but its pericentre lies below the
    # collision threshold, where the eps = 0 integration stops short
    with pytest.raises(RuntimeError, match="stopped"):
        extended_flow(PhaseState((1.0, 0.0), (0.0, 1e-11)), 0.0, logarithmic(),
                      1.5 * T0_LOG)


def test_extended_flow_past_a_pericentre_at_the_start():
    # a datum at its own pericentre (r rdot = 0, rising) is mirrored at the
    # next one, a period later: a mirror at t_p = 0 would have no step to
    # read and would map the datum to itself.  The orbit stays between r = 1
    # and 3.2, where a plain run is as good
    y0 = PhaseState((1.0, 0.0), (0.0, 1.5))
    orbit = extended_flow(y0, 0.0, logarithmic(), 20.0)
    assert isinstance(orbit, MirroredOrbit) and orbit.half.t_end > 0.0
    plain = integrate(y0, BARE_LOG, 20.0)
    for t in (3.0, 10.0, 20.0):
        got, ref = orbit.state_at(t).as_vector(), plain.state_at(t).as_vector()
        assert np.all(np.abs(got - ref) <= 1e-10 + 1e-10 * np.abs(ref))


def test_transmission_past_2T0_leaves_the_ball_at_its_own_time():
    # the entry path reaches the ball at 2 T0, moving out: its continuation
    # starts on the boundary and leaves at once, at 2 T0 of the whole orbit
    entry = case_anchor(InwardCrossing(1.0, 1.0), logarithmic())
    y0 = make_initial_data(entry)
    path = extended_flow(y0, 0.0, logarithmic(), fall_time(entry), entry.case.ball_radius)
    with pytest.raises(ExitedBall) as exc:
        extended_flow(y0, 0.0, logarithmic(), 2.5 * fall_time(entry), entry.case.ball_radius)
    assert exc.value.exit_time == path.t_end == 2.0 * path.half.t_end


_FLOW_CASES = [(logarithmic(), 0.0), (homogeneous(0.5), -1.0)]


@pytest.mark.parametrize("potential, energy", _FLOW_CASES, ids=["log", "hom"])
@pytest.mark.parametrize("eps, pert", [(0.0, Perturbation())] + diagonal_cells([4]),
                         ids=["collision", "eps=l=1e-4"])
@pytest.mark.parametrize("f1, f2", [(0.4, 0.9), (0.6, 1.7), (1.3, 2.9), (2.2, 5.1), (3.7, 6.3)])
def test_extended_flow_composes(potential, energy, eps, pert, f1, f2):
    # Phi_T2(Phi_T1(x)) = Phi_{T1+T2}(x), in check.py's ODE class, across
    # collisions and pericentres (measured: at most 1.9e-12)
    anchor = case_anchor(DropFromRest(energy), potential)
    T1, T2 = f1 * fall_time(anchor), f2 * fall_time(anchor)
    y0 = make_initial_data(anchor, pert)
    direct = extended_flow(y0, eps, potential, T1 + T2).state_at(T1 + T2).as_vector()
    mid = extended_flow(y0, eps, potential, T1).state_at(T1)
    composed = extended_flow(mid, eps, potential, T2).state_at(T2).as_vector()
    assert np.all(np.abs(composed - direct) <= 1e-10 + 1e-10 * np.abs(direct))


def test_chained_orbit_reads_at_its_horizon_and_its_end():
    # the horizon and t_end >= horizon both read, whatever the rounding of
    # the legs' spans: a walk that subtracts them and a t_end that sums
    # them differ by ulps (at H = 90 a nested sum gave t_end < H)
    y0 = PhaseState((1.0, 0.0), (0.0, 0.9))
    for H in 10.0 * np.arange(1, 121):
        orbit = extended_flow(y0, 0.0, logarithmic(), H)
        assert isinstance(orbit, MirroredOrbit) and orbit.t_end >= H, H
        for t in (H, orbit.t_end):
            orbit.state_at(t), orbit.theta_at(t)


def test_long_chain_builds_reads_and_composes():
    # 1,239 legs: 1,238 apses past the first, where a chain built and read
    # by recursion ended between 900 and 1,100.  The composed flow meets the
    # direct one in check.py's ODE class (measured: 0.15 of it).  The gap
    # grows with T2, by the ODE error of the legs the two flows integrate
    # apart: 3.5 classes at T2 = 500
    y0, T1, T2 = PhaseState((1.0, 0.0), (0.0, 0.9)), 4900.0, 100.0
    orbit = extended_flow(y0, 0.0, logarithmic(), T1 + T2)
    assert len(orbit.legs) == 1238 and orbit.t_end >= T1 + T2
    direct = orbit.state_at(T1 + T2).as_vector()
    mid = extended_flow(y0, 0.0, logarithmic(), T1).state_at(T1)
    composed = extended_flow(mid, 0.0, logarithmic(), T2).state_at(T2).as_vector()
    assert np.all(np.abs(composed - direct) <= 1e-10 + 1e-10 * np.abs(direct))


@pytest.mark.parametrize("potential, energy", _FLOW_CASES, ids=["log", "hom"])
@pytest.mark.parametrize("dq", [(0.0, 0.0), (0.0, 0.1)], ids=["axis", "off-axis"])
def test_transmission_path_has_period_4T0(potential, energy, dq):
    # a drop from rest reaches the far side at rest at 2 T0 and falls back:
    # the same fall, point-reflected, so the path repeats after 4 T0 and its
    # angle gains 2 pi
    anchor = case_anchor(DropFromRest(energy), potential)
    path = extended_flow(make_initial_data(anchor, Perturbation(dq=dq)), 0.0, potential,
                         9.0 * fall_time(anchor))
    T0 = path.half.t_end
    for t in np.array([0.3, 0.7, 1.5, 2.0, 2.5, 3.2, 4.0, 4.6]) * T0:
        a, b = path.state_at(t), path.state_at(t + 4.0 * T0)
        assert np.max(np.abs(a.as_vector() - b.as_vector())) <= 1e-13
        assert path.theta_at(t + 4.0 * T0) - path.theta_at(t) == 2.0 * math.pi


def _tight_run(y0, sm, Ts):
    """The states (x, y, vx, vy, theta) at the ascending times Ts of scipy's
    DOP853 at rtol 3e-14, atol 1e-22: an independent integration through
    the centre.  It runs in the time s with dt/ds = sqrt(r^2 + eps^2), to
    the events t = T, so that a passage by the centre takes a few steps of
    size set by its radius, and stays converged over many passages.  A run
    in t does not: at homogeneous(0.5), eps = l = 1e-6 and 9.5 T0 its states
    at rtol 1e-13, 5e-14 and 3e-14 lie 15.9, 10.4 and 4.0 ODE classes from
    the mirrored flow, and those in s at 1e-13 and 3e-14 0.45 classes
    apart."""
    l0, eps, Vp = y0.ang_momentum, sm.epsilon, sm.base.deriv

    def rhs(s, y):
        r2 = y[0] ** 2 + y[1] ** 2
        h = math.sqrt(r2 + eps * eps)
        scale = Vp(h)
        return [h * y[2], h * y[3], scale * y[0], scale * y[1], h * l0 / r2, h]

    events = [lambda s, y, T=T: y[5] - T for T in Ts]
    events[-1].terminal = True
    sol = solve_ivp(rhs, (0.0, math.inf), [*y0.position, *y0.velocity, 0.0, 0.0],
                    method="DOP853", rtol=3e-14, atol=1e-22, events=events)
    assert sol.status == 1
    return [ys[0][:5] for ys in sol.y_events]


_MIRROR_CASES = [(10.0 ** -k, 10.0 ** -k) for k in range(2, 7)] + [(1e-3, 0.0), (0.0, 1e-3)]


@pytest.mark.parametrize("potential, energy", _FLOW_CASES, ids=["log", "hom"])
@pytest.mark.parametrize("eps, l", _MIRROR_CASES,
                         ids=[f"eps{e:g}-l{l:g}" for e, l in _MIRROR_CASES])
def test_mirrored_flow_meets_a_tight_run_through_the_centre(potential, energy, eps, l):
    anchor = case_anchor(DropFromRest(energy), potential)
    y0 = make_initial_data(anchor, Perturbation(l=l))
    sm = SmoothedPotential(potential, eps)
    # one, two and five collisions passed
    factors = (1.5, 3.5, 9.5)
    Ts = [factor * fall_time(anchor) for factor in factors]
    for factor, T, ref in zip(factors, Ts, _tight_run(y0, sm, Ts)):
        orbit = extended_flow(y0, eps, potential, T)
        assert isinstance(orbit, MirroredOrbit) and orbit.half.t_end < T
        got = orbit.state_at(T).as_vector()
        # check.py's ODE class against the tight run (measured: at most 0.23
        # of it) and, through one passage, the plain integration; over more
        # passages a plain run drifts, by up to 230 classes at 9.5 T0
        others = [ref[:4]]
        if factor == 1.5:
            others.append(integrate(y0, sm, T).state_at(T).as_vector())
        for other in others:
            assert np.all(np.abs(got - other) <= 1e-10 + 1e-10 * np.abs(other)), factor
        if eps == l == 1e-6 and factor == 1.5:
            # theta' = l / r_p^2 ~ 1e7 at the apse: an apse solved in absolute
            # t would misplace theta by ~1e-9
            assert abs(orbit.theta_at(T) - ref[4]) <= 1e-10
        if l == 0.0:
            # through the centre, not back: the mirror of the fall line is
            # x -> -x, once per collision passed
            assert got[0] * (-1) ** round(factor / 2.0) > 0.0, factor
            assert got[1] == 0.0 and orbit.theta_at(T) == 0.0


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
def test_extended_flow_rejects_a_horizon_that_is_not_positive(horizon):
    with pytest.raises(ValueError, match="horizon must be positive"):
        extended_flow(PhaseState((1.0, 0.0), (0.0, 0.3)), 0.0, logarithmic(), horizon)


def test_trajectory_owns_its_domain():
    # as a transmission path: the dense output would extrapolate the last
    # step past t_end (to position (7.8e3, 4.5e6) at t = 3)
    traj = extended_flow(PhaseState((1.0, 0.0), (0.0, 0.3)), 1e-3, logarithmic(), 1.0)
    assert traj.t_end == 1.0
    for t in (3.0, -0.1):
        with pytest.raises(ValueError, match="outside the trajectory domain"):
            traj.state_at(t)
        with pytest.raises(ValueError, match="outside the trajectory domain"):
            traj.theta_at(t)
    traj.state_at(1.0)


@pytest.mark.parametrize("state, eps", [
    (PhaseState((1.0, 0.0), (0.0, 0.0)), 1e-3),   # three mirrors of a smoothed drop
    (PhaseState((1.0, 0.0), (0.0, 0.0)), 0.0),    # two transmissions
], ids=["apse", "transmission"])
def test_chained_orbit_names_its_own_domain(state, eps):
    # a t past the end of a chain is refused in the whole orbit's time and
    # domain, not in those of the last leg it would have gone to
    orbit = extended_flow(state, eps, logarithmic(), 7.0)
    assert len(orbit.legs) == 2 and all(isinstance(leg, MirroredOrbit) for leg in orbit.legs)
    for t in (orbit.t_end + 1.0, orbit.t_end * (1.0 + 1e-15), -0.5):
        message = rf"t={t!r} outside the trajectory domain \[0, {orbit.t_end!r}\]"
        with pytest.raises(ValueError, match=message):
            orbit.state_at(t)
        with pytest.raises(ValueError, match=message):
            orbit.theta_at(t)
    # a t inside the chain reads its leg on the leg's own clock, from the
    # leg's start, with the angle swept before it added
    start, swept = 0.0, 0.0
    for before, leg in zip((orbit, *orbit.legs), orbit.legs):
        start += 2.0 * before.half.t_end
        swept += 2.0 * before.theta_p
        for s in (0.3 * leg.t_end, leg.half.t_end + 0.1, min(leg.t_end, orbit.t_end - start)):
            got = orbit.state_at(start + s).as_vector()
            assert np.allclose(got, leg.state_at(s).as_vector(), rtol=1e-13, atol=1e-13)
            assert orbit.theta_at(start + s) == pytest.approx(swept + leg.theta_at(s),
                                                              rel=1e-13, abs=1e-13)
    orbit.state_at(orbit.t_end), orbit.theta_at(orbit.t_end)
    # the second leg starts at the first's 2 t_p, and reads bit for bit there
    t_m = 2.0 * orbit.half.t_end
    t = t_m + 0.3
    assert np.array_equal(orbit.state_at(t).as_vector(),
                          orbit.legs[0].state_at(t - t_m).as_vector())
    assert orbit.theta_at(t) == 2.0 * orbit.theta_p + orbit.legs[0].theta_at(t - t_m)


def _drop_path(potential, energy):
    anchor = case_anchor(DropFromRest(energy), potential)
    return anchor, extended_flow(make_initial_data(anchor), 0.0, potential,
                                 fall_time(anchor))


def test_radial_stop_is_a_fraction_of_the_starting_radius():
    # log drops differ only by the scale R of their rest radius, so a stop at
    # TRANSMISSION_FRACTION R takes the same steps at every energy, until
    # the floor COLLISION_RADIUS ends deep drops (R = 6.1e-6 at E = -12)
    legs = []
    for energy in (0.0, -1.0, -5.0, -12.0, -17.0):
        anchor, path = _drop_path(logarithmic(), energy)
        R = anchor.radius
        stop = max(TRANSMISSION_FRACTION * R, COLLISION_RADIUS)
        assert path.half.abort_radius == pytest.approx(stop, rel=1e-10)
        assert (stop == COLLISION_RADIUS) == (energy <= -12.0)
        # the closed form of the log fall from rest
        assert path.half.t_end == pytest.approx(R * math.sqrt(math.pi / 2.0), rel=2e-13)
        legs.append(len(path.half.pre.times))
    # DEFAULT_ATOL is absolute: at R = 6.7e-3 (E = -5) it sizes the first
    # step differently, which costs one more step
    assert legs[0] == legs[1] and abs(legs[2] - legs[0]) <= 1


@pytest.mark.parametrize("potential", [logarithmic(), homogeneous(0.5)], ids=["log", "hom"])
def test_window_radius_inverts_the_fall_time(potential):
    # below the radial stop the radius is read off the fall-time quadrature;
    # an ODE fall from the abort radius, at the path's energy, agrees.  Its
    # clock starts at the abort radius, tail = collision_time(abort_radius)
    # before the collision, so it reads time t at tail - (T0 - t); a fall
    # timed from t = 0 would carry the rounding of T0 times the speed, up to
    # 1e-10 of these radii
    _, path = _drop_path(potential, -1.0)
    half = path.half
    T0, ta, ra = half.t_end, half.pre.t_end, half.abort_radius
    rp = RadialProblem(half.pre.potential, half.pre.energy0, 0.0)
    tail = collision_time(rp, ra)
    speed = math.sqrt(2.0 * (half.pre.energy0 + potential.value(ra)))

    def fall(s, y):
        r = math.hypot(y[0], y[1])
        scale = potential.deriv(r) / r
        return y[2], y[3], scale * y[0], scale * y[1]

    def near_centre(s, y):
        return math.hypot(y[0], y[1]) - 1e-2 * ra
    near_centre.terminal = True
    sol = solve_ivp(fall, (0.0, tail), [*(ra * half.direction), *(-speed * half.direction)],
                    method="DOP853", rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                    dense_output=True, events=near_centre)
    assert sol.status == 1
    for t in ta + np.linspace(0.1, 0.9, 5) * (T0 - ta):
        r = path.state_at(t).r
        assert r < ra
        assert r == pytest.approx(math.hypot(*sol.sol(tail - (T0 - t))[:2]), rel=1e-12)
        assert collision_time(rp, r) == pytest.approx(T0 - t, rel=1e-14)


def test_extended_flow_names_the_collision_threshold():
    # l = 1e-10 is above COLLISION_L_TOL, so the datum is integrated plainly;
    # with eps = 0 it falls to the collision threshold, which stops the run
    y0 = make_initial_data(DROP0, Perturbation(l=1e-10))
    with pytest.raises(RuntimeError) as exc:
        extended_flow(y0, 0.0, logarithmic(), 1.5 * fall_time(DROP0))
    message = str(exc.value)
    assert "collision threshold r = 1e-08" in message
    assert f"|l| = {abs(y0.ang_momentum)!r}" in message
    assert "COLLISION_L_TOL = 1e-12" in message


def test_continuity_marks_exiting_cells():
    # entry case with a tight ball: a strong outward kick leaves the ball
    entry = case_anchor(InwardCrossing(1.0, 1.0), logarithmic())
    T = 1.2 * fall_time(entry)   # E = 1: |p|^2 = 2
    cells = [(1e-2, Perturbation(dv1=2.5))]
    table = continuity_experiment(entry, T, cells)
    assert "marked_cells" in table.meta
    assert math.isnan(table.rows[0][5])


def test_section_anchor_hits_exactly():
    T = 1.5 * T0_LOG
    table = poincare_section(section_at(DROP0, T), delta=1e-3,
                             sample_count=6, seed=3)
    row0 = table.rows[0]   # the unperturbed datum
    tau0 = row0[7]
    assert tau0 == pytest.approx(T, abs=1e-10)
    anchor = table.meta["anchor"]
    assert row0[8:12] == pytest.approx(anchor, abs=1e-9)


def test_section_transversality_margin_is_field_norm():
    # the section is normal to the flow at its anchor: the margin is |field|^2
    table = poincare_section(section_at(DROP0, 1.5 * T0_LOG),
                             delta=1e-3, sample_count=2, seed=0)
    anchor = table.meta["anchor"]
    f = phase_field(PhaseState(anchor[:2], anchor[2:]), logarithmic())
    assert table.meta["transversality_margin"] == float(np.dot(f, f))
    assert table.meta["transversality_margin"] > 1e-10


def test_section_at_or_before_the_collision_is_refused_unintegrated(monkeypatch):
    # T0 is the quadrature's fall time, so T is checked before any orbit runs
    runs = []
    monkeypatch.setattr(flow, "integrate", lambda *args, **kwargs: runs.append(args))
    for T in (0.5 * T0_LOG, fall_time(DROP0)):
        with pytest.raises(ValueError, match="strictly after the collision time"):
            section_at(DROP0, T)
    assert runs == []


def test_section_crossings_and_shrinking_neighbourhood():
    T = 1.5 * T0_LOG
    taus, traces = [], []
    section = section_at(DROP0, T)
    for delta in (1e-2, 1e-3):
        table = poincare_section(section, delta=delta, sample_count=14, seed=11)
        assert table.meta["crossings_found"] == table.meta["samples"]
        taus.append(table.meta["max_tau_dev"])
        traces.append(table.meta["max_trace_dev"])
    assert taus[1] < taus[0]
    assert traces[1] < traces[0]


def test_section_bracket_halves_until_the_offset_changes_sign():
    # just past the fall of the homogeneous(0.25) drop the first bracket
    # T +- 0.1 T is too wide: two halvings find the sign change at delta 1e-2;
    # at delta 0.1 the nearby samples never change sign, down to 25 halvings
    anchor = case_anchor(DropFromRest(-1.0), homogeneous(0.25))
    section = section_at(anchor, 1.02 * fall_time(anchor))
    xi0 = 0.1 * section.T
    table = poincare_section(section, delta=1e-2, sample_count=3, seed=1)
    assert "failed_samples" not in table.meta
    assert [row[-1] for row in table.rows] == [0.25 * xi0] * 3
    table = poincare_section(section, delta=0.1, sample_count=4, seed=1)
    assert table.rows[0][-1] == 0.25 * xi0
    assert table.meta["failed_samples"] == [
        (i, f"no sign change of the section offset in [T-xi, T+xi] down to xi={xi0 / 2**25!r}")
        for i in (1, 2, 3)]


def test_section_offset_monotone_through_crossing():
    # H(y, t) increases through the located crossing
    T = 1.5 * T0_LOG
    y0 = make_initial_data(DROP0, Perturbation(l=1e-3))
    sm = SmoothedPotential(logarithmic(), 1e-3)
    traj = integrate(y0, sm, horizon=1.2 * T)
    ref = poincare_section(section_at(DROP0, T), delta=1e-3, sample_count=2, seed=0)
    anchor = np.array(ref.meta["anchor"])
    normal = phase_field(PhaseState(anchor[:2], anchor[2:]), logarithmic())
    hs = [float(np.dot(traj.state_at(t).as_vector() - anchor, normal))
          for t in np.linspace(T - 0.02, T + 0.02, 10)]
    assert all(b > a for a, b in zip(hs, hs[1:]))


def test_section_sample_zero_reuses_the_reference_orbit():
    # sample 0 is the collision datum itself; its fall stops at the collision
    # threshold, long before either horizon, so it does not depend on the horizon
    T = 1.5 * T0_LOG
    y0 = make_initial_data(DROP0)
    ref = extended_flow(y0, 0.0, logarithmic(), T)
    own = extended_flow(y0, 0.0, logarithmic(), 1.1 * T)
    assert np.array_equal(ref.half.pre.times, own.half.pre.times)
    assert np.array_equal(ref.half.pre.states, own.half.pre.states)
    assert ref.half.t_end == own.half.t_end
    # near 2 T0 the reused orbit, like every other collision sample, runs
    # past 2 T0 to the samples' horizon T + 0.1 T, and its first bracket holds
    T = 1.95 * T0_LOG
    section = section_at(DROP0, T)
    assert section.path.legs != () and section.path.t_end >= T + section.xi0
    table = poincare_section(section, delta=1e-3, sample_count=2, seed=0)
    assert "failed_samples" not in table.meta
    assert table.column("bracket_xi") == [0.1 * T] * 2


def test_continuity_reads_a_collision_cell_past_its_own_2T0():
    # the collision cell's kick shortens its fall, so its 2 T0 lies before
    # T = 1.99 T0 of the reference: it reads on by the extended flow of its
    # state there, and its distance is the composed flow's, split elsewhere
    T = 1.99 * fall_time(DROP0)
    table = continuity_experiment(DROP0, T, [(0.0, Perturbation(dv1=-1e-2)),
                                             (0.0, Perturbation(dv1=1e-2)),
                                             (1e-3, Perturbation(l=1e-3))])
    assert "marked_cells" not in table.meta and "cell_failed" not in table.meta
    ref = extended_flow(make_initial_data(DROP0), 0.0, logarithmic(), T).state_at(T)
    y0 = make_initial_data(DROP0, Perturbation(dv1=-1e-2))
    path = extended_flow(y0, 0.0, logarithmic(), T)
    assert 2.0 * path.half.t_end < T
    T1 = 1.5 * path.half.t_end
    mid = extended_flow(y0, 0.0, logarithmic(), T1).state_at(T1)
    composed = extended_flow(mid, 0.0, logarithmic(), T - T1).state_at(T - T1)
    d = table.column("dist_total")
    assert d[0] == pytest.approx(composed.distance(ref), abs=1e-10)
    # recorded; re-recorded when the step-size control turned predictive
    # after a run's first rejection (moves of 4.8e-4 and 7e-6 of the ODE class)
    assert d[1:] == [0.010126956891152832, 0.07507414011174265]


def test_extended_flow_is_not_differentiable_along_l():
    # the transmission-extended flow of the unit drop at T = 1.5 T0 and eps = 0,
    # perturbed along one direction at a time: along dv1 and the radial dq
    # the datum stays a collision datum and d/delta settles to a derivative;
    # along l it is integrated plainly round the centre and d/delta grows
    # without bound, the same for +l and -l (a first check of ROADMAP item
    # 10; the law with its next-order term waits for item 4)
    T = 1.5 * fall_time(DROP0)
    deltas = (1e-2, 1e-4, 1e-6, 1e-7)
    directions = {"dv1": lambda d: Perturbation(dv1=d),
                  "dq": lambda d: Perturbation(dq=(d, 0.0)),
                  "+l": lambda d: Perturbation(l=d),
                  "-l": lambda d: Perturbation(l=-d)}
    dist, ratio = {}, {}
    for name, perturb in directions.items():
        table = continuity_experiment(DROP0, T, [(0.0, perturb(d)) for d in deltas])
        assert "marked_cells" not in table.meta
        dist[name] = table.column("dist_total")
        ratio[name] = [x / d for x, d in zip(dist[name], deltas)]
    for name in ("dv1", "dq"):
        assert ratio[name][3] == pytest.approx(ratio[name][2], rel=1e-5, abs=0.0)
    assert ratio["+l"][2] >= 50.0 * ratio["+l"][1]
    assert [x.hex() for x in dist["+l"]] == [x.hex() for x in dist["-l"]]
