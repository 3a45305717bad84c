import dataclasses
import hashlib
import math

import numpy as np
import pytest
import scipy.integrate._ivp.rk as rk
from scipy.integrate import DOP853, solve_ivp

from onecentre import _dop853, simulator
from onecentre._brent import brentq
from onecentre.flow import diagonal_cells
from onecentre.potentials import PotentialSpec, SmoothedPotential, homogeneous, logarithmic
from onecentre.quadrature import sqrt_endpoint_quad
from onecentre.radial import (DropFromRest, InwardCrossing, RadialProblem, case_anchor,
                              collision_time, fall_time, turning_points)
from onecentre.simulator import (APSE, COLLISION, COLLISION_RADIUS, DEFAULT_ATOL,
                                 DEFAULT_RTOL, EXIT_BALL, TRANSMISSION_FRACTION,
                                 Perturbation, PhaseState, conserved_drift, integrate,
                                 is_collision_datum, make_initial_data, oracle_crosscheck)

BARE_LOG = SmoothedPotential(logarithmic(), 0.0)


def _apse_times(traj, direction):
    """The times of one kind of apse of a finished run, in order, found
    after the run and in absolute time, apart from `integrate`'s APSE stop:
    each zero of r rdot that crosses in `direction` (1 upward, the
    pericentres; -1 downward, the apocentres) between stored states, a zero
    at a stored state included (a datum at an apse counts at t = 0), refined
    on the interpolant of its step."""
    radial_rate, tol = simulator._radial_rate, simulator._ROOT_TOL
    g = direction * radial_rate(traj.states.T)
    found = []
    for i in np.flatnonzero((g[:-1] <= 0.0) & (g[1:] >= 0.0)).tolist():
        seg = traj.dense.segment(i)
        found.append(brentq(lambda t: radial_rate(_dop853.interpolate(seg, t)),
                            traj.times[i], traj.times[i + 1], xtol=tol, rtol=tol))
    return found


def test_phase_state_polar_accessors():
    st = PhaseState((3.0, 4.0), (0.1, 0.2))
    assert st.r == 5.0
    assert st.ang_momentum == pytest.approx(3.0 * 0.2 - 4.0 * 0.1)


def test_circular_orbit_stays_circular():
    # for -log r the force balance at r = 1 needs unit tangential speed
    st = PhaseState((1.0, 0.0), (0.0, 1.0))
    traj = integrate(st, BARE_LOG, horizon=20.0)
    r = np.hypot(traj.states[:, 0], traj.states[:, 1])
    assert np.max(np.abs(r - 1.0)) < 1e-8


def test_energy_and_momentum_drift_budget():
    st = PhaseState((1.2, 0.0), (0.0, 0.7))
    traj = integrate(st, BARE_LOG, horizon=100.0)
    dE, dl = conserved_drift(traj)
    assert dE < 1e-8 and dl < 1e-8


def test_drift_of_single_sample_is_zero():
    st = PhaseState((1.0, 0.0), (0.0, 1.0))
    traj = integrate(st, BARE_LOG, horizon=1e-9)
    dE, dl = conserved_drift(traj)
    assert dE < 1e-13 and dl < 1e-13


def test_radial_drop_matches_quadrature_time():
    # time to reach the collision threshold vs the radial fall-time integrals:
    # the whole fall less the fall from the threshold
    anchor = case_anchor(DropFromRest(0.0), logarithmic())
    traj = integrate(make_initial_data(anchor), BARE_LOG, horizon=5.0)
    assert traj.stop == COLLISION
    rp = RadialProblem(BARE_LOG, 0.0, 0.0)
    t_quad = fall_time(anchor) - collision_time(rp, traj.state_at(traj.t_end).r)
    assert traj.t_end == pytest.approx(t_quad, abs=1e-6)


def test_pericentre_period_matches_radial_oracle():
    rp = RadialProblem(BARE_LOG, 0.2, 0.4)
    tp = turning_points(rp)
    half = sqrt_endpoint_quad(rp, tp.pericenter, tp.apocenter, angle=False,
                              upper_singular=True).value
    st = PhaseState((tp.apocenter, 0.0), (0.0, 0.4 / tp.apocenter))
    traj = integrate(st, BARE_LOG, horizon=4.5 * half)
    peri = _apse_times(traj, 1)
    assert len(peri) >= 2
    assert peri[1] - peri[0] == pytest.approx(2.0 * half, abs=1e-6)


def test_apsidal_angle_crosscheck_with_theta_lift():
    from onecentre.apsidal import apsidal_angle
    rp = RadialProblem(BARE_LOG, 0.2, 0.4)
    tp = turning_points(rp)
    st = PhaseState((tp.apocenter, 0.0), (0.0, 0.4 / tp.apocenter))
    traj = integrate(st, BARE_LOG, horizon=5.0)
    swept = traj.theta_at(_apse_times(traj, 1)[0])
    assert swept == pytest.approx(apsidal_angle(rp).value, abs=1e-6)


def test_rotational_equivariance():
    phi = 0.7
    R = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    st = PhaseState((1.1, 0.0), (0.05, 0.8))
    st_rot = PhaseState(R @ st.position, R @ st.velocity)
    tr_a = integrate(st, BARE_LOG, horizon=7.0)
    tr_b = integrate(st_rot, BARE_LOG, horizon=7.0)
    ts = np.linspace(0.0, 7.0, 60)
    worst = 0.0
    for t in ts:
        a = tr_a.state_at(t)
        b = tr_b.state_at(t)
        worst = max(worst, float(np.linalg.norm(R @ a.position - b.position)))
    assert worst < 1e-9


def test_radial_orbit_stays_on_ray():
    st = PhaseState((0.9, 0.0), (-0.3, 0.0))
    traj = integrate(st, BARE_LOG, horizon=5.0)
    assert np.max(np.abs(traj.states[:, 1])) < 1e-9
    assert np.max(np.abs(traj.states[:, 4])) < 1e-9   # theta never moves


def test_smoothed_run_passes_through_centre():
    sm = SmoothedPotential(logarithmic(), 1e-2)
    st = PhaseState((1.0, 0.0), (0.0, 0.0))
    traj = integrate(st, sm, horizon=3.0)
    assert traj.stop is None and traj.t_end == 3.0
    r = np.hypot(traj.states[:, 0], traj.states[:, 1])
    assert np.min(r) < 1e-3   # dives through the smoothed core
    dE, _ = conserved_drift(traj)
    assert dE < 1e-8


def test_exit_ball_event_terminal():
    # thrown outward with E = 0.405: the turn radius e^E ~ 1.5 lies beyond
    # the ball of radius 1.3, so the orbit exits and the run stops there
    st = PhaseState((1.0, 0.0), (0.9, 0.0))
    traj = integrate(st, BARE_LOG, horizon=50.0, ball_radius=1.3)
    assert traj.stop == EXIT_BALL
    assert traj.state_at(traj.t_end).r == pytest.approx(1.3, abs=1e-9)


def test_time_reversal_symmetry_of_drift():
    st = PhaseState((1.2, 0.0), (0.0, 0.7))
    fwd = integrate(st, BARE_LOG, horizon=10.0)
    end = fwd.state_at(10.0)
    back = integrate(PhaseState(end.position, -end.velocity), BARE_LOG, horizon=10.0)
    ret = back.state_at(10.0)
    assert np.linalg.norm(ret.position - st.position) < 1e-8
    assert np.linalg.norm(ret.velocity + st.velocity) < 1e-8


def test_make_initial_data_drop_case():
    st = make_initial_data(case_anchor(DropFromRest(0.0), logarithmic()))
    assert st.position == pytest.approx([1.0, 0.0])
    assert st.velocity == pytest.approx([0.0, 0.0])
    assert st.ang_momentum == 0.0


def test_make_initial_data_entry_case():
    st = make_initial_data(case_anchor(InwardCrossing(1.0, 1.0), logarithmic()))
    assert st.position == pytest.approx([1.0, 0.0])
    # |p|^2 = 2 (E + V(1)) = 2, directed toward the centre
    assert st.velocity == pytest.approx([-math.sqrt(2.0), 0.0])


def test_make_initial_data_perturbation_decomposition():
    pert = Perturbation(dq=(0.01, -0.02), l=0.05, dv1=0.03)
    st = make_initial_data(case_anchor(DropFromRest(0.0), logarithmic()), pert)
    assert st.position == pytest.approx([1.01, -0.02])
    assert st.ang_momentum == pytest.approx(0.05, abs=1e-15)
    u_r = st.position / st.r
    assert float(np.dot(st.velocity, u_r)) == pytest.approx(0.03, abs=1e-15)


def test_zero_perturbation_keeps_l_exactly_zero():
    st = make_initial_data(case_anchor(DropFromRest(0.0), logarithmic()), Perturbation())
    assert st.ang_momentum == 0.0


def test_initial_state_inside_collision_threshold_rejected():
    with pytest.raises(ValueError):
        integrate(PhaseState((1e-9, 0.0), (0.0, 0.0)), BARE_LOG, horizon=1.0)


def test_trajectory_sample_and_event_invariants():
    st = PhaseState((1.0, 0.0), (0.0, 0.3))
    traj = integrate(st, BARE_LOG, horizon=8.0)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.stop is None and traj.t_end == 8.0
    peri = _apse_times(traj, 1)
    assert peri, "a bounded orbit passes its pericentre within the horizon"
    assert traj.times[0] <= peri[0] and np.all(np.diff(peri) > 0) and peri[-1] <= traj.t_end


# --- the DOP853 kernel against scipy ------------------------------------------

def _terms(potential: SmoothedPotential, l0: float) -> tuple:
    """The field's terms (V', eps^2, l0), as `integrate` binds them."""
    return potential.base.deriv, potential.epsilon * potential.epsilon, l0


def _field(terms: tuple):
    """(vx', vy', theta') at (x, y) under `terms`, written apart from the
    kernel: the reference field of the oracles."""
    Vp, eps2, l0 = terms

    def rhs(x, y):
        r2 = x * x + y * y
        h = math.sqrt(r2 + eps2)
        scale = Vp(h) / h
        return scale * x, scale * y, l0 / r2

    return rhs


def _in_kernel_order(coeffs, rows):
    """sum_j c_j rows[j] over the nonzero c_j, left to right: the kernel's order."""
    total = None
    for c, row in zip(coeffs, rows):
        if c != 0.0:
            total = c * row if total is None else total + c * row
    return total


def _rk_step_in_kernel_order(fun, t, y, f, h, A, B, C, K):
    K[0] = f
    for s in range(1, len(C)):
        K[s] = fun(t + C[s] * h, y + _in_kernel_order(A[s, :s], K[:s]) * h)
    y_new = y + h * _in_kernel_order(B, K[:-1])
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


class _PredictiveDOP853(DOP853):
    """scipy's DOP853 with the kernel's step-size control: scipy's law up to
    the run's first rejected attempt, and from there on (that attempt's retry
    included) Gustafsson's predictive factor, Hairer & Wanner's eq. (IV.8.25)
    at order 8, from the last accepted step's size and error (floored at
    1e-2), at most scipy's factor and at most 1 after a rejection."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # (h, max(error, 1e-2), predictive) of the last accepted step
        self.memory = None

    def _step_impl(self):
        # scipy's RungeKutta._step_impl, forward in time with no max_step, and
        # the factor of an accepted step predicted once the run has rejected
        t, y = self.t, self.y
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(self.h_abs, min_step)
        h_acc, err_acc, predictive = self.memory or (0.0, 0.0, False)
        rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = rk.rk_step(self.fun, t, y, self.f, h, self.A, self.B, self.C,
                                      self.K)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error = self._estimate_error_norm(self.K, h, scale)
            if error < 1:
                if error == 0:
                    factor = rk.MAX_FACTOR
                else:
                    factor = min(rk.MAX_FACTOR, rk.SAFETY * error ** self.error_exponent)
                    if predictive and self.memory is not None:
                        factor = max(rk.MIN_FACTOR, min(factor, factor * (h_abs / h_acc) *
                                                        (err_acc / error) ** (1 / 8)))
                if rejected:
                    factor = min(1, factor)
                self.memory = (h_abs, max(error, 1e-2), predictive)
                h_abs *= factor
                break
            h_abs *= max(rk.MIN_FACTOR, rk.SAFETY * error ** self.error_exponent)
            rejected = predictive = True
        self.h_previous, self.y_old, self.t, self.y = h, y, t_new, y_new
        self.h_abs, self.f = h_abs, f_new
        return True, None


class _KernelOrderDOP853(_PredictiveDOP853):
    """`_PredictiveDOP853` (tableau, control law, interpolant) with every
    tableau sum taken in the kernel's order, so the two agree bitwise."""

    def _estimate_error_norm(self, K, h, scale):
        err5 = (_in_kernel_order(self.E5, K) / scale).tolist()
        err3 = (_in_kernel_order(self.E3, K) / scale).tolist()
        e5 = sum(v * v for v in err5)
        e3 = sum(v * v for v in err3)
        if e5 == 0 and e3 == 0:
            return 0.0
        return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * len(scale))

    def rows(self) -> np.ndarray:
        """The 7 x 5 interpolant of the last step (scipy's F)."""
        K, h = self.K_extended, self.h_previous
        for s, (a, c) in enumerate(zip(self.A_EXTRA, self.C_EXTRA), start=self.n_stages + 1):
            K[s] = self.fun(self.t_old + c * h, self.y_old + _in_kernel_order(a[:s], K[:s]) * h)
        dy = self.y - self.y_old
        return np.array([dy, h * K[0] - dy, 2 * dy - h * (self.f + K[0]),
                         *(h * _in_kernel_order(d, K) for d in self.D)])


#: V = 0: no force
_NO_FORCE = PotentialSpec(name="zero", value=lambda x: 0.0, deriv=lambda x: 0.0,
                          deriv2=lambda x: 0.0)


@pytest.mark.parametrize("potential, eps, y0", [
    (logarithmic(), 0.0, (1.2, 0.1, -0.05, 0.7, 0.0)),
    (homogeneous(0.5), 1e-2, (1.0, 0.0, 0.0, 0.3, 0.0)),
    # at rest with no force: the small-derivative first step, then steps
    # whose error estimate is 0, each 10 times the last (1e-6 ... 1)
    (_NO_FORCE, 0.0, (1.0, 0.5, 0.0, 0.0, 0.0)),
    # through the smoothed centre from rest: past it an accepted error falls
    # below ERROR_FLOOR, and the factor of step 72 reads the floor
    (logarithmic(), 1e-2, (1.0, 0.0, 0.0, 0.0, 0.0)),
])
def test_kernel_steps_equal_scipy_dop853(monkeypatch, potential, eps, y0):
    # the first accepted steps (75, or 6 at rest) from a fixed state, against
    # scipy's stepper summing in the kernel's order: step sizes, proposals,
    # states and interpolants agree bitwise, which pins every tableau entry it
    # uses and the control law.  (In numpy's summation order the sizes differ
    # by ~1e-8 relative at rtol 1e-12: the error estimate cancels O(|K|)
    # terms down to the tolerance, so rounding noise reaches the step-size
    # proposals.)
    monkeypatch.setattr(rk, "rk_step", _rk_step_in_kernel_order)
    terms = _terms(SmoothedPotential(potential, eps), y0[0] * y0[3] - y0[1] * y0[2])
    rhs = _field(terms)
    steps = 6 if potential is _NO_FORCE else 75
    t, y = 0.0, y0
    f = (y[2], y[3], *rhs(y[0], y[1]))
    h_abs = _dop853.initial_step(terms, y, f, 100.0, DEFAULT_RTOL, DEFAULT_ATOL)

    def fun(t, y):
        return np.array([y[2], y[3], *rhs(y[0], y[1])])

    assert h_abs == pytest.approx(
        DOP853(fun, 0.0, np.array(y0), 100.0, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL).h_abs,
        rel=1e-14)
    ref = _KernelOrderDOP853(fun, 0.0, np.array(y0), 100.0, rtol=DEFAULT_RTOL,
                             atol=DEFAULT_ATOL, first_step=h_abs)
    memory = None
    for _ in range(steps):
        t, y, f, h_abs, memory, rec = _dop853.step(terms, t, y, f, h_abs, 100.0,
                                                   DEFAULT_RTOL, DEFAULT_ATOL, memory)
        ref.step()
        assert (t, h_abs, rec[1]) == (ref.t, ref.h_abs, ref.t - ref.t_old)
        assert np.array_equal(y, ref.y) and np.array_equal(f, ref.f)
        assert np.array_equal(np.reshape(_dop853.segment(terms, rec)[7:], (7, 5)), ref.rows())
    # the runs with a force reject an attempt (at steps 7, 16 and 11), so the
    # predictive law is pinned too; the run at rest never rejects
    assert memory[2] is (potential is not _NO_FORCE)


def _solve_ivp_oracle(state, potential, horizon, ball_radius=math.inf,
                      method=_PredictiveDOP853):
    """The same run by solve_ivp, by default with the kernel's step-size
    control: its solution, whose t_events[0] are the upward zeros of r rdot
    and t_events[1:] the times of the stop rules.  A radial datum's collision
    threshold is TRANSMISSION_FRACTION of its starting radius (1e-4 for
    r0 = 1), any other's COLLISION_RADIUS."""
    rhs = _field(_terms(potential, state.ang_momentum))
    r_stop = (max(TRANSMISSION_FRACTION * state.r, COLLISION_RADIUS)
              if is_collision_datum(state, potential.epsilon) else COLLISION_RADIUS)

    def radial_turn(t, y):
        return y[0] * y[2] + y[1] * y[3]
    radial_turn.direction = 1.0

    def near_collision(t, y):
        return math.hypot(y[0], y[1]) - r_stop
    near_collision.terminal, near_collision.direction = True, -1.0

    def exit_ball(t, y):
        return math.hypot(y[0], y[1]) - ball_radius
    exit_ball.terminal, exit_ball.direction = True, 1.0

    events = [radial_turn]
    if potential.epsilon == 0.0:
        events.append(near_collision)
    if math.isfinite(ball_radius):
        events.append(exit_ball)
    return solve_ivp(lambda t, y: (y[2], y[3], *rhs(y[0], y[1])), (0.0, horizon),
                     [*state.position, *state.velocity, 0.0], method=method,
                     rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, dense_output=True,
                     events=events)


#: the runs `integrate` is checked on against solve_ivp
_ORACLE_POTENTIALS = pytest.mark.parametrize(
    "potential", [logarithmic(), homogeneous(0.5)], ids=["log", "hom"])
_ORACLE_RUNS = pytest.mark.parametrize("eps, state, horizon, ball, stop", [
    (0.0, PhaseState((1.2, 0.0), (0.0, 0.7)), 20.0, math.inf, None),
    (1e-2, PhaseState((1.0, 0.0), (0.0, 0.0)), 3.0, math.inf, None),
    (0.0, PhaseState((1.0, 0.0), (0.0, 0.0)), 5.0, math.inf, COLLISION),
    (0.0, PhaseState((1.0, 0.0), (0.9, 0.0)), 50.0, 1.3, EXIT_BALL),
], ids=["eps0-l", "eps-drop", "collision-drop", "ball"])


@_ORACLE_POTENTIALS
@_ORACLE_RUNS
def test_integrate_matches_solve_ivp(potential, eps, state, horizon, ball, stop):
    sm = SmoothedPotential(potential, eps)
    traj = integrate(state, sm, horizon, ball_radius=ball)
    sol = _solve_ivp_oracle(state, sm, horizon, ball)
    # each case ends as it claims to: at its stop, where a terminal event ends
    # solve_ivp's run, or at the horizon
    assert traj.stop == stop
    if stop is None:
        assert sol.status == 0 and traj.t_end == sol.t[-1] == horizon
    else:
        t_stop, = np.concatenate(sol.t_events[1:])
        assert sol.status == 1 and abs(traj.t_end - t_stop) <= 1e-12
    peri = _apse_times(traj, 1)
    assert len(peri) == len(sol.t_events[0])
    assert np.max(np.abs(np.subtract(peri, sol.t_events[0])), initial=0.0) <= 1e-12
    assert abs(len(traj.times) - len(sol.t)) <= 2
    # up to 0.9 t_end: at the collision threshold the acceleration is ~1/r,
    # 1e4 at the radial stop and 1e8 at COLLISION_RADIUS, so a rounding-level
    # shift of the stop time moves the velocity there far more than elsewhere
    for t in np.linspace(0.0, 0.9 * traj.t_end, 10):
        assert np.max(np.abs(traj.dense(t) - sol.sol(t))) <= 1e-10


@_ORACLE_POTENTIALS
@_ORACLE_RUNS
def test_integrate_stays_within_the_ode_class_of_stock_scipy(potential, eps, state,
                                                               horizon, ball, stop):
    # unmodified scipy DOP853, whose steps part from the kernel's at the run's
    # first rejected attempt: the two runs agree within perfbench/check.py's
    # ODE class, 1e-10 + 1e-10 |x|, up to 0.9 t_end
    sm = SmoothedPotential(potential, eps)
    traj = integrate(state, sm, horizon, ball_radius=ball)
    sol = _solve_ivp_oracle(state, sm, horizon, ball, method="DOP853")
    for t in np.linspace(0.0, 0.9 * traj.t_end, 50):
        want = sol.sol(t)
        assert np.all(np.abs(traj.dense(t) - want) <= 1e-10 + 1e-10 * np.abs(want))


def test_step_too_small_raises():
    # the eps = l = 1e-12 diagonal continuity cell of the unit drop: the
    # orbit grazes the centre and the step size falls below 10 ulp(t)
    (eps, pert), = diagonal_cells([12])
    state = make_initial_data(case_anchor(DropFromRest(0.0), logarithmic()), pert)
    with pytest.raises(RuntimeError, match="step size"):
        integrate(state, SmoothedPotential(logarithmic(), eps), horizon=2.0)


def test_interpolants_are_built_only_where_read(monkeypatch):
    # integrate builds an interpolant only on the step where the run stops;
    # the dense output and the pericentre query build one per step they
    # read, once
    built = []
    segment = _dop853.segment

    def counting(terms, record):
        built.append(record[0])
        return segment(terms, record)

    monkeypatch.setattr(_dop853, "segment", counting)
    traj = integrate(PhaseState((1.0, 0.0), (0.0, 0.0)), BARE_LOG, horizon=50.0)
    assert traj.stop == COLLISION and len(built) == 1
    built.clear()
    traj = integrate(PhaseState((1.2, 0.0), (0.0, 0.7)), BARE_LOG, horizon=20.0)
    assert traj.stop is None and built == []
    peri = _apse_times(traj, 1)
    s = traj.states
    g = s[:, 0] * s[:, 2] + s[:, 1] * s[:, 3]
    upward = sum(a <= 0.0 <= b for a, b in zip(g, g[1:]))
    assert len(built) == upward == len(peri) > 0
    assert len(built) * 10 < len(traj.times)
    assert _apse_times(traj, 1) == peri and len(built) == len(peri)
    i = next(i for i, t in enumerate(traj.times) if t not in built)
    t = 0.5 * (traj.times[i] + traj.times[i + 1])
    traj.dense(t)
    assert built[-1] == traj.times[i] and len(built) == len(peri) + 1
    traj.dense(t)
    traj.state_at(traj.times[i + 1])
    traj.theta_at(peri[0])
    assert len(built) == len(peri) + 1


def test_dense_array_equals_scalar_calls():
    def run():
        return integrate(PhaseState((1.2, 0.0), (0.0, 0.7)), BARE_LOG, horizon=10.0)

    # step boundaries, interior points, both ends and the pericentre times,
    # unsorted
    peri = _apse_times(run(), 1)
    traj = run()
    t = np.concatenate([traj.times[::7], np.linspace(0.0, 10.0, 101)[::-1], peri])

    def scalars(tr):
        return np.array([tr.dense(s) for s in t]).T

    # an array read before any scalar read, then repeated reads of both kinds
    many = traj.dense(t)
    assert many.shape == (5, len(t))
    assert np.array_equal(many, scalars(traj))
    assert np.array_equal(traj.dense(t), many) and np.array_equal(scalars(traj), many)
    # scalar reads before an array read
    traj = run()
    assert np.array_equal(scalars(traj), many) and np.array_equal(traj.dense(t), many)
    # an array read over steps of which every other one is built
    traj = run()
    for s in t[::2]:
        traj.dense(s)
    assert np.array_equal(traj.dense(t), many)
    assert traj.dense(float(t[3])).shape == (5,)


# sha256 of Trajectory.states of runs ending at each stop.  "exit_ball" and
# "on_ball" reject no attempt, so scipy's step-size law alone sets their
# steps, and their digests predate the predictive control; the others were
# recorded with it.  "on_ball" starts on the ball and moving out, so its stop
# falls at the start of its only step, which is dropped
_RECORD_RUNS = {
    "horizon": (PhaseState((1.2, 0.0), (0.0, 0.7)), BARE_LOG, 10.0, math.inf, False,
                None, 115, "a397c1eff3148bff65ca480981a03f6e2bdceec9ebd8bf2a843d833d8f09b949"),
    "apse": (PhaseState((1.2, 0.0), (0.0, 0.7)), BARE_LOG, 3.0, math.inf, True,
             APSE, 25, "2486df53c102627a15cea37b782d909668860967f67962a2effb17ec8bbbd883"),
    "smoothed_apse": (PhaseState((1.0, 0.0), (0.0, 1e-3)),
                      SmoothedPotential(homogeneous(0.5), 1e-3), 4.0, math.inf, True,
                      APSE, 135, "628592cb7a30b3289bb48f3af49741c42783ff64fb6b8f97aa222b0de2a45ec2"),
    "collision": (PhaseState((1.0, 0.0), (0.0, 0.0)), BARE_LOG, 50.0, math.inf, False,
                  COLLISION, 85, "237ec93ab0a318f7f1f4983f5f4459708b10b5d9380c539d93cd8de06836fb7a"),
    "exit_ball": (PhaseState((1.0, 0.0), (0.9, 0.0)), BARE_LOG, 50.0, 1.3, False,
                  EXIT_BALL, 7, "dd5c30a5aa8794cc0c80b4f3d331e4df3f35de79839400f857c020c9c3280c4e"),
    "on_ball": (PhaseState((1.3, 0.0), (0.9, 0.0)), BARE_LOG, 50.0, 1.3, False,
                EXIT_BALL, 1, "345958564ea1bff8654b557662cb205979d0411c0ad0f89e2408776c53a1ce06"),
}


@pytest.mark.parametrize("name", list(_RECORD_RUNS))
def test_records_are_the_tuples_step_returns(monkeypatch, name):
    # one record per stored step, each the tuple `step` returned, not a copy;
    # every interpolant is the one built from its record, and the states are
    # the same, bit for bit, as recorded
    state, potential, horizon, ball, apse, stop, n, digest = _RECORD_RUNS[name]
    returned = []
    step = _dop853.step

    def keeping(*args):
        out = step(*args)
        returned.append(out[-1])
        return out

    monkeypatch.setattr(_dop853, "step", keeping)
    traj = integrate(state, potential, horizon, ball_radius=ball, apse=apse)
    records = traj.dense._records
    assert traj.stop == stop and len(traj.times) == n
    # every step `step` returned keeps its record; a stop at the start of
    # its step stores no time, and that step's interpolant reads its start
    assert len(records) == len(returned) == len(traj.times) - (name != "on_ball")
    assert all(rec is ret for rec, ret in zip(records, returned))
    assert all(type(rec) is tuple and len(rec) == _dop853.STAGES for rec in records)
    for i, rec in enumerate(records):
        got = np.array(traj.dense.segment(i))
        want = np.array(_dop853.segment(traj.dense._terms, rec))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert traj.states.dtype == np.float64 and traj.states.shape == (n, 5)
    assert hashlib.sha256(traj.states.tobytes()).hexdigest() == digest


def _counting(potential: SmoothedPotential, calls: list) -> SmoothedPotential:
    """`potential` with a V' that appends to `calls` on each call."""
    deriv = potential.base.deriv

    def counted(x):
        calls.append(None)
        return deriv(x)

    return SmoothedPotential(dataclasses.replace(potential.base, deriv=counted),
                             potential.epsilon)


def _count_attempts(monkeypatch) -> tuple[list, list]:
    """(calls, attempts): `_dop853.step` wrapped to append to attempts the
    attempts of each step, counted by the V' calls a `_counting` potential
    appends to calls inside it, 12 an attempt (11 stages and f_new)."""
    calls, attempts = [], []
    step = _dop853.step

    def counting(*args):
        before = len(calls)
        out = step(*args)
        assert (len(calls) - before) % 12 == 0
        attempts.append((len(calls) - before) // 12)
        return out

    monkeypatch.setattr(_dop853, "step", counting)
    return calls, attempts


def test_a_fall_to_the_centre_rejects_at_most_two_attempts(monkeypatch):
    # below r ~ 0.58 the step the error allows shrinks by ~12% a step (h ~ r);
    # under scipy's law, which keeps h after a rejection, every step of the
    # log fall from rest there was rejected once (72 rejected of 156
    # attempts, for 84 steps).  The predictive controller follows the
    # shrinking step.  The runs that reject nothing keep scipy's steps, and
    # so their recorded states.
    calls, attempts = _count_attempts(monkeypatch)
    for name, most in [("collision", 2), ("exit_ball", 0), ("on_ball", 0)]:
        state, potential, horizon, ball, apse, stop, n, digest = _RECORD_RUNS[name]
        attempts.clear()
        traj = integrate(state, _counting(potential, calls), horizon, ball_radius=ball,
                         apse=apse)
        assert traj.stop == stop and len(traj.times) == n
        assert sum(attempts) - len(attempts) <= most
        if most == 0:
            assert hashlib.sha256(traj.states.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("name", list(_RECORD_RUNS))
def test_the_inline_field_is_the_field_of_the_cold_callers(monkeypatch, name):
    # `step` writes the field of its stages out inline, and the cold callers
    # (`initial_step`, `segment` and the run's first derivative) call
    # `_dop853.field`: each record's f_new is, bit for bit, both `field` and
    # the reference field at the step's end state.  The run calls V' 12
    # times an attempt, twice to start (the first derivative and
    # `initial_step`) and 3 times for the interpolant of its stop
    def bits(values):
        return np.array(values, dtype=float).view(np.uint64).tolist()

    state, potential, horizon, ball, apse, stop, n, digest = _RECORD_RUNS[name]
    calls, attempts = _count_attempts(monkeypatch)
    traj = integrate(state, _counting(potential, calls), horizon, ball_radius=ball,
                     apse=apse)
    assert traj.stop == stop and len(traj.times) == n
    assert hashlib.sha256(traj.states.tobytes()).hexdigest() == digest
    assert len(traj.dense._built) == (stop is not None)
    assert len(calls) == 12 * sum(attempts) + 2 + 3 * len(traj.dense._built)
    terms = _terms(potential, state.ang_momentum)
    for rec in traj.dense._records:
        x, y, vx, vy = rec[7:11]
        want = bits((vx, vy, *_dop853.field(terms, x, y)))
        assert bits(rec[-5:]) == want == bits((vx, vy, *_field(terms)(x, y)))


def test_run_stopped_at_its_start_reads_its_datum():
    # a datum on its ball moving out stops at t = 0, at the start of its
    # first step: the run has no step past the datum, and reads it back
    state = PhaseState((1.3, 0.0), (0.9, 0.0))
    traj = integrate(state, BARE_LOG, 50.0, ball_radius=1.3)
    assert traj.stop == EXIT_BALL and traj.t_end == 0.0
    assert np.array_equal(traj.state_at(0.0).as_vector(), state.as_vector())
    assert traj.theta_at(0.0) == 0.0


@pytest.mark.parametrize("state, ball, kind", [
    (PhaseState((1.0, 0.0), (0.0, 0.0)), math.inf, COLLISION),
    (PhaseState((1.0, 0.0), (0.9, 0.0)), 1.3, EXIT_BALL),
])
def test_terminal_run_ends_at_its_event(state, ball, kind):
    traj = integrate(state, BARE_LOG, horizon=50.0, ball_radius=ball)
    assert traj.stop == kind and traj.t_end < 50.0
    assert np.array_equal(traj.dense(traj.t_end), traj.states[-1])


def test_apse_stop_is_the_first_pericentre_whatever_the_horizon():
    state = PhaseState((1.2, 0.0), (0.0, 0.7))
    plain = integrate(state, BARE_LOG, horizon=3.0)
    t_p, = _apse_times(plain, 1)
    assert t_p < 3.0 <= 2.0 * t_p
    traj = integrate(state, BARE_LOG, horizon=3.0, apse=True)
    assert traj.stop == APSE and abs(traj.t_end - t_p) <= 1e-12
    # the same steps up to the apse, and the apse state is the pericentre
    n = len(traj.times) - 1
    assert np.array_equal(traj.times[:n], plain.times[:n])
    assert np.array_equal(traj.states[:n], plain.states[:n])
    x, y, vx, vy, _ = traj.states[-1]
    assert abs(x * vx + y * vy) <= 1e-14
    assert np.max(np.abs(traj.states[-1] - plain.dense(t_p))) <= 1e-12
    # a first pericentre before half the horizon stops the run all the same:
    # the rule does not read the horizon
    longer = integrate(state, BARE_LOG, horizon=5.0, apse=True)
    assert longer.stop == APSE and 2.0 * longer.t_end < 5.0
    assert np.array_equal(longer.times, traj.times)
    assert np.array_equal(longer.states, traj.states)


def test_apse_stop_skips_a_pericentre_at_the_start():
    # started tangentially above circular speed (1 for the logarithm), the
    # datum is at its own pericentre, r rdot = 0 and rising: the run stops at
    # the next pericentre, a period later, not at t = 0
    state = PhaseState((1.0, 0.0), (0.0, 1.5))
    plain = integrate(state, BARE_LOG, horizon=10.0)
    peri = _apse_times(plain, 1)
    assert peri[0] == 0.0 and 0.0 < peri[1] < 10.0
    traj = integrate(state, BARE_LOG, horizon=10.0, apse=True)
    assert traj.stop == APSE and abs(traj.t_end - peri[1]) <= 1e-12


# --- the oracle's period, twice apocentre to pericentre -----------------------

def test_apocentre_query_counts_a_datum_at_rest_radially_at_zero():
    # the test-local locator, which the checks above compare with the APSE
    # stop, counts an apse at the datum
    traj = integrate(PhaseState((1.2, 0.0), (0.0, 0.7)), BARE_LOG, horizon=10.0)
    apo, peri = _apse_times(traj, -1), _apse_times(traj, 1)
    assert apo[0] == 0.0 and len(apo) >= 2
    # apocentres and pericentres alternate
    assert all(a < p < b for a, p, b in zip(apo, peri, apo[1:]))


def test_oracle_integrates_one_period(monkeypatch):
    runs = []

    def spy(state, potential, horizon, *args, **kwargs):
        runs.append((horizon, integrate(state, potential, horizon, *args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(simulator, "integrate", spy)
    # a horizon of one period and a little more, and a run that stops at the
    # pericentre, half a period in: its period is twice the run
    table = oracle_crosscheck(logarithmic(), 4, 0)
    assert table.meta["failing"] is None and len(runs) == len(table.rows) == 4
    for (h, traj), row in zip(runs, table.rows):
        assert h <= 2.1 * (row[4] / 2.0)
        assert traj.stop == APSE and row[3] == 2.0 * traj.t_end


def test_oracle_refuses_an_unresolved_pericentre_before_it_integrates(monkeypatch):
    # orbits 1, 5 and 6 of this draw have true pericentres of 5.9e-15, 5.5e-15
    # and 4.8e-14, below the turning-point scan, which reads 0.0 for them: no
    # half period is taken from r = 0 and no run starts
    runs = []

    def spy(state, *args, **kwargs):
        runs.append(state.ang_momentum)
        return integrate(state, *args, **kwargs)

    monkeypatch.setattr(simulator, "integrate", spy)
    table = oracle_crosscheck(homogeneous(1.9), 8, 0)
    refused = [i for i, msg in table.meta["failing"] if msg == "pericentre is not positive"]
    assert refused == [1, 5, 6]
    # every orbit's row carries its l, and each run starts with that l
    ran = [row[0] for row in table.rows
           if any(math.isclose(l, row[2], rel_tol=1e-12) for l in runs)]
    assert len(runs) == 5 and ran == [0, 2, 3, 4, 7]


def test_oracle_names_a_run_that_misses_its_pericentre(monkeypatch):
    # runs cut to a tenth of their horizon end before the apse: each orbit
    # fails, naming the stop that ended it
    def short(state, potential, horizon, **kwargs):
        return integrate(state, potential, 0.1 * horizon, **kwargs)

    monkeypatch.setattr(simulator, "integrate", short)
    table = oracle_crosscheck(logarithmic(), 2, 0)
    assert [i for i, _ in table.meta["failing"]] == [0, 1]
    assert all(msg.startswith("no pericentre: the run stopped at its horizon, t = ")
               for _, msg in table.meta["failing"])


@pytest.mark.parametrize("potential", [logarithmic(), homogeneous(0.5)], ids=["log", "hom"])
def test_oracle_period_is_twice_the_solve_ivp_pericentre_event(potential):
    sm = SmoothedPotential(potential, 0.0)
    table = oracle_crosscheck(potential, 4, 0)
    assert table.meta["failing"] is None
    # each row's apocentre datum, as oracle_crosscheck builds it from E and l
    for _, E, l, period_ode, period_quad, *_ in table.rows:
        tp = turning_points(RadialProblem(sm, E, l))
        state = PhaseState((tp.apocenter, 0.0), (0.0, l / tp.apocenter))
        rhs = _field(_terms(sm, state.ang_momentum))

        def pericentre(t, y):
            return y[0] * y[2] + y[1] * y[3]
        pericentre.terminal, pericentre.direction = True, 1.0

        sol = solve_ivp(lambda t, y: (y[2], y[3], *rhs(y[0], y[1])),
                        (0.0, 2.1 * (period_quad / 2.0)),
                        [*state.position, *state.velocity, 0.0], method="DOP853",
                        rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, events=[pericentre])
        # relative: solve_ivp's first step differs from the kernel's in the
        # last bits, and the two runs part by ~1e-13 of a period
        assert sol.status == 1
        t_p, = sol.t_events[0]
        assert abs(period_ode - 2.0 * t_p) <= 1e-12 * 2.0 * t_p
