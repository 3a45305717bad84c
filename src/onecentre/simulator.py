"""Planar integration of the smoothed one-centre system, with its three stops.

The equations of motion are  u'' = grad V_eps(|u|)  in the plane.  The state
carries a fifth component, the continuous angular lift theta with
theta' = l0 / r^2 (l0 the conserved angular momentum of the initial data), so
swept angles are available without unwrapping.  The stepper is the in-house
DOP853 of `_dop853`: the Dormand-Prince 8(5,3) pair with scipy's tableau and
scipy's step-size control up to the run's first rejected attempt, and
Gustafsson's predictive control (Gustafsson 1994; Hairer & Wanner,
*Solving ODEs II*, Sec. IV.8) from there on, written out over Python
floats, with the 7th-order interpolant of each accepted step as dense
output.  The run carries the controller's memory from step to step.  Each
step keeps only its stages; its interpolant is built when something reads
it.  A run stops at the collision threshold (eps = 0; a collision datum's
is `TRANSMISSION_FRACTION`
of its starting radius), on leaving a finite ball, or, when asked, at its
first pericentre t_p > 0 (the apse past which the extended flow reads the
orbit by the apsidal mirror), whatever the horizon, at the root of the stop
rule on the interpolant of the step where it changes sign; a `Trajectory`
records which stop ended it.  The apse is solved in that step's
own variable, not in absolute time, and it is the program's one apse
locator.  scipy's integrators serve only as test oracles.
`make_initial_data` places the (perturbed) collision datum of a solved
case (`radial.Anchor`).  `oracle_crosscheck` checks the stepper's half
periods, from an apocentre to the apse stop, against the flight times of
`radial.pericentre_integral`, taken by quadrature between the turning
points.

Energy E = |u'|^2/2 - V_eps(|u|) and l = u x u' are conserved by the dynamics;
their numerical drift is monitored, never corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from . import _dop853
from ._brent import brentq
from .potentials import PotentialSpec, SmoothedPotential
from .radial import Anchor, RadialProblem, pericentre_integral
from .tables import ConvergenceTable

#: ODE solver tolerances; the drift budget of the experiments assumes these
DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-14
#: radius below which an eps = 0 run stops with `COLLISION`
COLLISION_RADIUS = 1e-8
#: |l| up to which an eps = 0 datum is radial: a collision datum
COLLISION_L_TOL = 1e-12
#: a collision datum's run stops with `COLLISION` at this fraction of its
#: starting radius, or at COLLISION_RADIUS if that is larger; the rest of its
#: fall is quadrature at `quadrature.DEFAULT_TOL`, so this sets cost, not accuracy
TRANSMISSION_FRACTION = 1e-4
#: upper end of the radius grid on which `oracle_crosscheck` bounds l
ORACLE_RADIUS = 50.0
#: absolute and relative tolerance of stop and apse roots on the dense output
_ROOT_TOL = 4 * np.finfo(float).eps

#: how a run stopped before its horizon (`Trajectory.stop`)
COLLISION = "collision"
EXIT_BALL = "exit_ball"
APSE = "apse"


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


def is_collision_datum(state: PhaseState, eps: float) -> bool:
    """Whether a datum falls into the centre: eps = 0 and |l| <= COLLISION_L_TOL."""
    return eps == 0.0 and abs(state.ang_momentum) <= COLLISION_L_TOL


def _radial_rate(s) -> float:
    """r rdot of a state: negative falling, positive rising."""
    return s[0] * s[2] + s[1] * s[3]


@dataclass
class Trajectory:
    """Time-stamped solution samples with dense output and the stop that
    ended the run (`COLLISION`, `EXIT_BALL`, `APSE`, or None at the
    horizon)."""

    potential: SmoothedPotential
    times: np.ndarray
    states: np.ndarray            # shape (n, 5): x, y, vx, vy, theta
    stop: str | None
    energy0: float
    ang_momentum0: float
    dense: _dop853.DenseOutput = field(repr=False)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def state_at(self, t: float) -> PhaseState:
        y = self._dense_at(t)
        return PhaseState(y[0:2], y[2:4])

    def theta_at(self, t: float) -> float:
        return float(self._dense_at(t)[4])

    def _dense_at(self, t: float) -> np.ndarray:
        """The dense output at t, which must lie in [0, t_end]: the
        interpolant would extrapolate past either end."""
        if not (0.0 <= t <= self.t_end):
            raise ValueError(f"t={t!r} outside the trajectory domain [0, {self.t_end!r}]")
        return self.dense(t)


def integrate(state: PhaseState, potential: SmoothedPotential, horizon: float,
              ball_radius: float = math.inf, apse: bool = False) -> Trajectory:
    """Integrate the smoothed system from `state` for `horizon` time units.

    eps = 0 runs are legitimate while the orbit stays away from the origin
    (l != 0 keeps it away) and stop at the collision threshold: for a
    collision datum the larger of TRANSMISSION_FRACTION r0 and
    COLLISION_RADIUS, r0 its starting radius, else COLLISION_RADIUS.  A
    finite ball radius makes leaving the ball a stop.  With `apse`, the
    first pericentre t_p > 0 (the upward zero of r rdot) stops the run with
    `APSE`, whatever the horizon; a datum at its own pericentre (r rdot = 0
    and rising at t = 0) runs on to the next one.  Each step tests the stop
    rules in place, and a stop is located on the interpolant of the step
    where its rule changes sign, the only interpolant built here (the dense
    output builds any other step's on its first read), and the run ends at
    its time.  The apse is solved in the step's own variable
    (`_dop853.interpolate_step`), and its state taken there: at a deep apse
    theta' = l / r^2 is large, and a root in absolute t would misplace theta
    by theta' ulp(t).  A step size below 10 ulp(t) raises RuntimeError.

    The field goes to the kernel as data, its terms (V', eps^2, l0) bound
    once for the run: `_dop853.step` writes the field of its stages out
    inline, so an attempt calls V' 12 times and nothing else, and the run
    calls V' twice more to start and 3 times for the interpolant of a stop.
    """
    eps = potential.epsilon
    l0 = state.ang_momentum
    E0 = state.energy(potential)
    if eps == 0.0 and state.r <= COLLISION_RADIUS:
        raise ValueError("initial state inside the collision threshold with eps = 0")
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")

    # the terms of `_dop853.field`
    terms = (potential.base.deriv, eps * eps, l0)

    # (g, direction, stop): the run stops where g crosses zero in direction; one
    # step never crosses both (r_old <= ball_radius <= r_new <= r_stop < r_old)
    rules = []
    if eps == 0.0:
        r_stop = (max(TRANSMISSION_FRACTION * state.r, COLLISION_RADIUS)
                  if is_collision_datum(state, eps) else COLLISION_RADIUS)
        rules.append((lambda s: math.hypot(s[0], s[1]) - r_stop, -1, COLLISION))
    if math.isfinite(ball_radius):
        rules.append((lambda s: math.hypot(s[0], s[1]) - ball_radius, 1, EXIT_BALL))
    if apse:
        rules.append((_radial_rate, 1, APSE))

    t = 0.0
    y = (float(state.position[0]), float(state.position[1]),
         float(state.velocity[0]), float(state.velocity[1]), 0.0)
    f = (y[2], y[3], *_dop853.field(terms, y[0], y[1]))
    h_abs = _dop853.initial_step(terms, y, f, horizon, DEFAULT_RTOL, DEFAULT_ATOL)
    # records: each step's stage record, as `step` returns it; built: index -> interpolant
    times, states, records, built = [t], [y], [], {}
    memory = None
    g = [rule(y) for rule, _, _ in rules]
    if apse and g[-1] == 0.0:
        g[-1] = 1.0     # an apse at t = 0 is no stop: t_p > 0
    stop = None
    while t < horizon:
        t_old = t
        t, y, f, h_abs, memory, rec = _dop853.step(terms, t, y, f, h_abs, horizon,
                                                   DEFAULT_RTOL, DEFAULT_ATOL, memory)
        records.append(rec)
        for i, (rule, direction, kind) in enumerate(rules):
            a, b = g[i], rule(y)
            g[i] = b
            if (a <= 0.0 <= b) if direction > 0 else (a >= 0.0 >= b):
                stop = kind
                break
        if stop is not None:
            seg = built[len(times) - 1] = _dop853.segment(terms, rec)
            if stop == APSE:
                x = brentq(lambda x: _radial_rate(_dop853.interpolate_step(seg, x)), 0.0, 1.0,
                           xtol=_ROOT_TOL, rtol=_ROOT_TOL)
                t_stop, y_stop = t_old + x * seg[1], _dop853.interpolate_step(seg, x)
            else:
                t_stop = brentq(lambda s: rule(_dop853.interpolate(seg, s)), t_old, t,
                                xtol=_ROOT_TOL, rtol=_ROOT_TOL)
                y_stop = _dop853.interpolate(seg, t_stop)
            if t_stop > t_old:
                times.append(t_stop)
                states.append(y_stop)
            break
        times.append(t)
        states.append(y)

    return Trajectory(potential=potential, times=np.array(times),
                      states=np.array(states),
                      stop=stop, energy0=E0, ang_momentum0=l0,
                      dense=_dop853.DenseOutput(terms, times, records, built))


def conserved_drift(traj: Trajectory) -> tuple[float, float]:
    """(max |E(t) - E0|, max |l(t) - l0|) over the stored samples."""
    s = traj.states
    r = np.hypot(s[:, 0], s[:, 1])
    E = 0.5 * (s[:, 2]**2 + s[:, 3]**2) - traj.potential.value(r)
    l = s[:, 0] * s[:, 3] - s[:, 1] * s[:, 2]
    return (float(np.max(np.abs(E - traj.energy0))),
            float(np.max(np.abs(l - traj.ang_momentum0))))


def oracle_energy_cap(potential: PotentialSpec) -> float:
    """Upper end of the energies `oracle_crosscheck` draws: min(1, -V(R)), with
    R = `ORACLE_RADIUS`, so every orbit turns back inside the grid on which l
    is bounded (a positive potential has no bounded orbit at E >= 0).
    ValueError when that leaves no energy above -0.5."""
    cap = min(1.0, -potential.value(ORACLE_RADIUS))
    if cap <= -0.5:
        raise ValueError(f"{potential.name} leaves the oracle no energy to draw: "
                         f"-V({ORACLE_RADIUS:g}) = {cap!r} <= -0.5")
    return cap


def oracle_crosscheck(potential: PotentialSpec, orbits: int, seed: int) -> ConvergenceTable:
    """Periods of seeded eps = 0 orbits, twice the run from an apocentre to
    the pericentre, against twice the radial flight time from pericentre to
    apocentre (`radial.pericentre_integral`, both ends singular), with
    conservation drift.

    Each orbit draws E in [-0.5, `oracle_energy_cap`) and l in [0.2, 0.9]
    times the largest admissible l (max of f on a grid up to
    `ORACLE_RADIUS`), starts at its apocenter and runs with the apse stop,
    on a horizon of 2.1 half periods, to its first pericentre.  An orbit of
    a central potential is symmetric about its apsidal line, so its period
    is twice that run's t_end; its mismatch is relative to the quadrature's
    period, and its drift is the run's.  Each orbit is a cell; one whose
    pericentre is not resolved (below `turning_points`' scan) fails before
    it runs, and one whose run does not stop at the apse fails, naming the
    stop that ended it.
    meta carries worst_period_mismatch, worst_drift and failing: the
    (orbit, message) records of `ConvergenceTable.attempt`, or None.
    """
    cap = oracle_energy_cap(potential)
    rng = default_rng(seed)
    sm = SmoothedPotential(potential, 0.0)
    table = ConvergenceTable(("orbit", "E", "l", "period_ode", "period_quad",
                              "mismatch", "dE", "dl"))

    def orbit(i, E, l):
        flight = pericentre_integral(RadialProblem(sm, E, l), math.inf, angle=False)
        half, apocenter = flight.value, flight.cutoff
        state = PhaseState((apocenter, 0.0), (0.0, l / apocenter))
        traj = integrate(state, sm, horizon=2.1 * half, apse=True)
        if traj.stop != APSE:
            raise RuntimeError(f"no pericentre: the run stopped at "
                               f"{traj.stop or 'its horizon'}, t = {traj.t_end!r}")
        period_ode, period_quad = 2.0 * traj.t_end, 2.0 * half
        mism = abs(period_ode - period_quad) / period_quad
        dE, dl = conserved_drift(traj)
        table.add(i, E, l, period_ode, period_quad, mism, dE, dl)
        mismatches.append(mism)
        drifts.extend((dE, dl))

    mismatches, drifts = [], []
    for i in range(orbits):
        E = rng.uniform(-0.5, cap)
        fmax = float(np.max(RadialProblem(sm, E, 0.0).f(np.geomspace(1e-6, ORACLE_RADIUS, 4000))))
        l = math.sqrt(fmax) * rng.uniform(0.2, 0.9)
        table.attempt("failing", (i,), (i, E, l), lambda: orbit(i, E, l))
    table.meta.update(worst_period_mismatch=max([0.0, *mismatches]),
                      worst_drift=max([0.0, *drifts]), failing=table.meta.get("failing"))
    return table


@dataclass(frozen=True)
class Perturbation:
    """Offsets applied to a nominal initial datum: position shift, angular
    momentum, and radial-velocity shift (decomposed along the shifted radius)."""

    dq: tuple[float, float] = (0.0, 0.0)
    l: float = 0.0
    dv1: float = 0.0


def make_initial_data(anchor: Anchor,
                      perturbation: Perturbation | None = None) -> PhaseState:
    """Initial datum of a (possibly perturbed) collision orbit of a solved case.

    The nominal datum sits on the positive x axis at the anchor's radius,
    moving with its radial speed.  A perturbation shifts the position by dq
    and decomposes the velocity as (v1_nominal + dv1) along the shifted
    radius plus l/|q0| across it.
    """
    pert = perturbation or Perturbation()
    q0 = np.array([anchor.radius + pert.dq[0], pert.dq[1]])
    r0 = math.hypot(q0[0], q0[1])
    if r0 == 0.0:
        raise ValueError("perturbed position collides with the centre")
    u_r = q0 / r0
    u_t = np.array([-u_r[1], u_r[0]])
    v = (anchor.speed + pert.dv1) * u_r + (pert.l / r0) * u_t
    return PhaseState(q0, v)
