"""Planar integration of the smoothed one-centre system, with event detection.

The equations of motion are  u'' = grad V_eps(|u|)  in the plane.  The state
carries a fifth component, the continuous angular lift theta with
theta' = l0 / r^2 (l0 the conserved angular momentum of the initial data), so
swept angles are available without unwrapping.  Integration uses an adaptive
high-order Runge-Kutta scheme (DOP853) with dense output; pericentre,
apocentre, ball-exit and near-collision events are located on the dense
output by root finding.

Energy E = |u'|^2/2 - V_eps(|u|) and l = u x u' are conserved by the dynamics;
their numerical drift is monitored, never corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .potentials import PotentialSpec, SmoothedPotential
from .radial import (Case, RadialProblem, case_anchor, time_of_flight,
                     turning_points)
from .tables import ConvergenceTable

#: ODE solver tolerances; the drift budget of the experiments assumes these
DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-14
#: radius below which an eps = 0 run is aborted with a collision event
COLLISION_RADIUS = 1e-8

PERICENTER = "pericenter"
APOCENTER = "apocenter"
COLLISION = "collision"
EXIT_BALL = "exit_ball"


@dataclass(frozen=True)
class PhaseState:
    """One point of the flow: plane position and velocity."""

    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, float))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, float))

    @property
    def r(self) -> float:
        return math.hypot(self.position[0], self.position[1])

    @property
    def theta(self) -> float:
        return math.atan2(self.position[1], self.position[0])

    @property
    def r_dot(self) -> float:
        return float(np.dot(self.position, self.velocity)) / self.r

    @property
    def theta_dot(self) -> float:
        return self.ang_momentum / self.r**2

    @property
    def ang_momentum(self) -> float:
        """Signed angular momentum u x u'."""
        return float(self.position[0] * self.velocity[1] - self.position[1] * self.velocity[0])

    def energy(self, potential: SmoothedPotential) -> float:
        return 0.5 * float(np.dot(self.velocity, self.velocity)) - potential.value(self.r)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.position, self.velocity])

    def distance(self, other: "PhaseState") -> float:
        """Euclidean phase-space distance (positions and velocities, unit weights)."""
        return float(np.linalg.norm(self.as_vector() - other.as_vector()))


@dataclass(frozen=True)
class Event:
    time: float
    kind: str


@dataclass
class Trajectory:
    """Time-stamped solution samples with dense output and event annotations."""

    potential: SmoothedPotential
    times: np.ndarray
    states: np.ndarray            # shape (n, 5): x, y, vx, vy, theta
    events: list[Event]
    energy0: float
    ang_momentum0: float
    dense: object = field(repr=False, default=None)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def state_at(self, t: float) -> PhaseState:
        y = self.dense(t)
        return PhaseState(y[0:2], y[2:4])

    def theta_at(self, t: float) -> float:
        return float(self.dense(t)[4])

    def first_event(self, kind: str) -> Event | None:
        for ev in self.events:
            if ev.kind == kind:
                return ev
        return None

    def events_of(self, kind: str) -> list[Event]:
        return [ev for ev in self.events if ev.kind == kind]

    def export_csv(self, path, events_path=None) -> None:
        """CSV of samples (t, x, y, vx, vy, r, theta, E, l); events separately."""
        import csv as _csv
        with open(path, "w", newline="") as fh:
            wr = _csv.writer(fh)
            wr.writerow(["t", "x", "y", "vx", "vy", "r", "theta", "E", "l"])
            for t, s in zip(self.times, self.states):
                r = math.hypot(s[0], s[1])
                E = 0.5 * (s[2]**2 + s[3]**2) - self.potential.value(r)
                l = s[0] * s[3] - s[1] * s[2]
                wr.writerow([repr(float(v)) for v in (t, s[0], s[1], s[2], s[3], r, s[4], E, l)])
        if events_path is not None:
            with open(events_path, "w", newline="") as fh:
                wr = _csv.writer(fh)
                wr.writerow(["t", "kind"])
                for ev in self.events:
                    wr.writerow([repr(ev.time), ev.kind])


def integrate(state: PhaseState, potential: SmoothedPotential, horizon: float,
              ball_radius: float = math.inf) -> Trajectory:
    """Integrate the smoothed system from `state` for `horizon` time units.

    eps = 0 runs are legitimate while the orbit stays away from the origin
    (l != 0 keeps it away; radial runs stop at the collision event).  A finite
    ball radius makes leaving the ball a terminal event.
    """
    eps = potential.epsilon
    l0 = state.ang_momentum
    E0 = state.energy(potential)
    if eps == 0.0 and state.r <= COLLISION_RADIUS:
        raise ValueError("initial state inside the collision threshold with eps = 0")

    Vp = potential.base.deriv

    def rhs(t, y):
        x, yy, vx, vy, th = y
        r2 = x * x + yy * yy
        h = math.sqrt(r2 + eps * eps)
        scale = Vp(h) / h
        return (vx, vy, scale * x, scale * yy, l0 / r2)

    def radial_turn(t, y):
        return y[0] * y[2] + y[1] * y[3]

    events = [radial_turn]

    def near_collision(t, y):
        return math.hypot(y[0], y[1]) - COLLISION_RADIUS
    near_collision.terminal = True
    near_collision.direction = -1.0
    if eps == 0.0:
        events.append(near_collision)

    def exit_ball(t, y):
        return math.hypot(y[0], y[1]) - ball_radius
    exit_ball.terminal = True
    exit_ball.direction = 1.0
    if math.isfinite(ball_radius):
        events.append(exit_ball)

    y0 = [state.position[0], state.position[1], state.velocity[0], state.velocity[1], 0.0]
    sol = solve_ivp(rhs, (0.0, horizon), y0, method="DOP853",
                    rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, dense_output=True,
                    events=events)
    if not sol.success and sol.status != 1:
        raise RuntimeError(f"integration failed: {sol.message}")

    found: list[Event] = []
    # classify radial turning points by the sign change of r rdot
    for t_ev, y_ev in zip(sol.t_events[0], sol.y_events[0]):
        r2 = y_ev[0]**2 + y_ev[1]**2
        h = math.sqrt(r2 + eps * eps)
        # d/dt (r rdot) = |v|^2 + u.a ; minimum of r when positive
        acc = Vp(h) / h
        curv = y_ev[2]**2 + y_ev[3]**2 + acc * r2
        found.append(Event(float(t_ev), PERICENTER if curv > 0 else APOCENTER))
    idx = 1
    if eps == 0.0:
        for t_ev in sol.t_events[idx]:
            found.append(Event(float(t_ev), COLLISION))
        idx += 1
    if math.isfinite(ball_radius):
        for t_ev in sol.t_events[idx]:
            found.append(Event(float(t_ev), EXIT_BALL))
    found.sort(key=lambda ev: ev.time)

    return Trajectory(potential=potential, times=sol.t, states=sol.y.T,
                      events=found, energy0=E0, ang_momentum0=l0, dense=sol.sol)


def conserved_drift(traj: Trajectory) -> tuple[float, float]:
    """(max |E(t) - E0|, max |l(t) - l0|) over the stored samples."""
    s = traj.states
    r = np.hypot(s[:, 0], s[:, 1])
    E = 0.5 * (s[:, 2]**2 + s[:, 3]**2) - traj.potential.value(r)
    l = s[:, 0] * s[:, 3] - s[:, 1] * s[:, 2]
    return (float(np.max(np.abs(E - traj.energy0))),
            float(np.max(np.abs(l - traj.ang_momentum0))))


def oracle_crosscheck(potential: PotentialSpec, orbits: int, seed: int) -> ConvergenceTable:
    """Pericentre-to-pericentre periods of seeded eps = 0 orbits against twice
    the radial quadrature flight time, with conservation drift.

    Each orbit draws E in [-0.5, 1) and l in [0.2, 0.9] times the largest
    admissible l (max of f on a grid), starts at its apocenter and runs for
    4.1 half periods.  meta carries worst_period_mismatch, worst_drift and
    failing: (orbit, reason) of the last orbit with fewer than two pericentre
    passages, or None.
    """
    rng = np.random.default_rng(seed)
    sm = SmoothedPotential(potential, 0.0)
    table = ConvergenceTable(("orbit", "E", "l", "period_ode", "period_quad",
                              "mismatch", "dE", "dl"))
    worst_period, worst_drift = 0.0, 0.0
    failing = None
    for i in range(orbits):
        E = rng.uniform(-0.5, 1.0)
        fmax = float(np.max(RadialProblem(sm, E, 0.0).f(np.geomspace(1e-6, 50.0, 4000))))
        l = math.sqrt(fmax) * rng.uniform(0.2, 0.9)
        rp = RadialProblem(sm, E, l)
        tp = turning_points(rp)
        half = time_of_flight(rp, tp.pericenter, tp.apocenter, tp)
        state = PhaseState((tp.apocenter, 0.0), (0.0, l / tp.apocenter))
        traj = integrate(state, sm, horizon=4.1 * half)
        peri = traj.events_of(PERICENTER)
        if len(peri) < 2:
            failing = (i, "fewer than two pericentre passages")
            continue
        period_ode = peri[1].time - peri[0].time
        mism = abs(period_ode - 2.0 * half)
        dE, dl = conserved_drift(traj)
        table.add(i, E, l, period_ode, 2.0 * half, mism, dE, dl)
        worst_period = max(worst_period, mism)
        worst_drift = max(worst_drift, dE, dl)
    table.meta.update(worst_period_mismatch=worst_period, worst_drift=worst_drift,
                      failing=failing)
    return table


@dataclass(frozen=True)
class Perturbation:
    """Offsets applied to a nominal initial datum: position shift, angular
    momentum, and radial-velocity shift (decomposed along the shifted radius)."""

    dq: tuple[float, float] = (0.0, 0.0)
    l: float = 0.0
    dv1: float = 0.0

    @property
    def scale(self) -> float:
        return max(abs(self.dq[0]), abs(self.dq[1]), abs(self.l), abs(self.dv1))


def make_initial_data(case: Case, potential: PotentialSpec,
                      perturbation: Perturbation | None = None) -> PhaseState:
    """Initial datum of a (possibly perturbed) collision orbit.

    The nominal datum sits on the positive x axis: at rest at the outer rest
    radius (drop case), or on the ball boundary moving inward (crossing case).
    A perturbation shifts the position by dq and decomposes the velocity as
    (v1_nominal + dv1) along the shifted radius plus l/|q0| across it.
    """
    pert = perturbation or Perturbation()
    anchor, v1_bar = case_anchor(case, potential)
    q0 = np.array([anchor + pert.dq[0], pert.dq[1]])
    r0 = math.hypot(q0[0], q0[1])
    if r0 == 0.0:
        raise ValueError("perturbed position collides with the centre")
    u_r = q0 / r0
    u_t = np.array([-u_r[1], u_r[0]])
    v = (v1_bar + pert.dv1) * u_r + (pert.l / r0) * u_t
    return PhaseState(q0, v)
