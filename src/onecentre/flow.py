"""The extended flow: transmission through collision, continuity and Poincare section.

A zero-angular-momentum orbit of the unsmoothed system reaches the origin at a
finite time T0 with unbounded speed.  The extension adopted here reflects the
motion through the centre:

    position(T0 + s) = -position(T0 - s),   velocity(T0 + s) = velocity(T0 - s),

which is the pointwise limit of the smoothed orbits as the smoothing length
and the angular momentum vanish together.  The continuous angular lift jumps
by exactly pi at the collision instant.

`extended_flow` is the one flow primitive: it returns the orbit of any datum,
and its `state_at(T)` is the extended time-T map.  Every leg is one
integration, for the horizon left, with the apse stop, and the cases differ
only by how it stopped (`Trajectory.stop`): at the collision threshold, on
leaving the ball, at the apse, or at the horizon.  Every orbit
read past an apse is one `MirroredOrbit`, by one rule: an orbit of a central
potential is symmetric about its apsidal line.  A non-collision orbit is
integrated only up to its first pericentre t_p, and mirrored across its
apsidal line up to 2 t_p.  A collision datum's orbit is the mirror of its
`Fall` at the collision instant T0 up to 2 T0, by the apsidal limit of the
smoothed orbits as (eps, l) -> 0: the point reflection, with the apsidal
angle pi/2.  Where the mirror ends before the horizon, the orbit goes on as
the extended flow of the mirrored state there, so the flow is defined for
every T and its time-T maps compose: one loop builds the orbit leg by leg,
apse to apse, and holds the legs past the first in one flat tuple, which
its reads walk.  The `Fall` holds the integrated leg,
which ends at the collision threshold (`TRANSMISSION_FRACTION` of the
starting radius) and carries the energy, and adds the fall's quadrature tail
from there (`radial.collision_time`), which it inverts to read the radius
below it.  The time-T map is continuous in (datum, smoothing) at every T off
the collision instants -- the experiments in this module measure that
continuity and the induced Poincare section with its hitting-time map.
The experiments take a solved case (`radial.Anchor`), whose collision datum
`make_initial_data` places.  A `Section` (from `section_at`) holds that
datum's path and the section plane, computed once for all the
neighbourhoods `poincare_section` samples around it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.random import default_rng

from ._brent import RTOL_MIN, brentq
from .potentials import PotentialSpec, SmoothedPotential
from .radial import Anchor, RadialProblem, collision_time, fall_time
from .simulator import (APSE, COLLISION, COLLISION_L_TOL, COLLISION_RADIUS, EXIT_BALL,
                        PhaseState, Perturbation, Trajectory, integrate,
                        is_collision_datum, make_initial_data)
from .tables import ConvergenceTable, is_decreasing, limit_verdict


class ExitedBall(RuntimeError):
    """Raised when an orbit leaves the analysis ball before the requested time."""

    def __init__(self, exit_time: float):
        super().__init__(f"orbit left the ball at t={exit_time!r}")
        self.exit_time = exit_time


@dataclass(frozen=True)
class Fall:
    """The fall of a collision datum into the centre, on [0, t_end), t_end = T0.

    The integrated leg `pre` is aborted at the collision threshold
    `abort_radius`, at its end time `pre.t_end`; the remaining fall time to
    the centre is added by quadrature.  Inside the window (pre.t_end, T0)
    below the threshold the radius is the root of that quadrature, the fall
    time from r equal to T0 - t, with the speed restored from the leg's
    energy `pre.energy0`.  The collision instant T0 itself is excluded: the
    position there is 0 but the velocity is unbounded.  The fall sweeps no
    angle.
    """

    pre: Trajectory
    t_end: float
    abort_radius: float
    direction: np.ndarray      # unit vector of the fall line

    def state_at(self, t: float) -> PhaseState:
        if t == self.t_end:
            raise ValueError("velocity is unbounded at the collision instant")
        if t <= self.pre.t_end:
            return self.pre.state_at(t)
        r = self._window_radius(t)
        speed = math.sqrt(2.0 * (self.pre.energy0 + self.pre.potential.value(r)))
        return PhaseState(r * self.direction, -speed * self.direction)

    def theta_at(self, t: float) -> float:
        if t == self.t_end:
            raise ValueError("angle undefined at the collision point")
        return 0.0

    def _window_radius(self, t: float) -> float:
        """Radius at a time t in the window (pre.t_end, T0): the root r in
        (0, abort_radius] of collision_time(r) = T0 - t.  The bracket ends
        take their known offsets, t - T0 at the centre and t - pre.t_end at
        the abort radius (its fall time is the fall's tail), so the
        quadrature never runs at r = 0, where its radicand underflows."""
        T0, r_abort = self.t_end, self.abort_radius
        rp = RadialProblem(self.pre.potential, self.pre.energy0, 0.0)

        def offset(r):
            if r == 0.0:
                return t - T0
            if r == r_abort:
                return t - self.pre.t_end
            return collision_time(rp, r) - (T0 - t)

        # a relative tolerance only: xtol is the smallest normal float
        return brentq(offset, 0.0, r_abort, xtol=sys.float_info.min, rtol=RTOL_MIN)

    def positions(self, t: np.ndarray) -> np.ndarray:
        """Positions at the ascending times t in [0, T0), a (len(t), 2)
        array.  One dense-output evaluation covers the integrated leg."""
        inside = t <= self.pre.t_end
        window = [self._window_radius(s) for s in t[~inside].tolist()]
        return np.concatenate([self.pre.dense(t[inside])[0:2].T,
                               np.outer(window, self.direction)])


@dataclass(frozen=True)
class MirroredOrbit:
    """An orbit on [0, t_end], integrated only up to its apse t_p =
    half.t_end, read past it by the apsidal mirror up to 2 t_p, and past
    that by its later `legs`.

    An orbit of a central potential is symmetric about its apsidal line, so
    at t_p < t <= 2 t_p, with s = 2 t_p - t,

        x(t) = R x(s),   v(t) = -R v(s),   theta(t) = 2 theta_p - theta(s),

    with R = `reflection` and theta_p = `theta_p`, both set by
    `extended_flow`.  `half` is either a run stopped at its first pericentre
    (a `Trajectory` with stop `APSE`), or a collision datum's `Fall`, whose
    apse is the collision instant and whose mirror is the transmission.
    `legs` is empty when the mirror reaches the horizon (t_end = 2 t_p);
    else it holds, in order, the orbit's later legs, each the extended flow
    from the state where the leg before it ends: a `MirroredOrbit` with no
    legs of its own, or, last, the plain `Trajectory` that ends at the
    horizon.  A leg reads on its own clock, from its start, and its angle
    is added to the angle swept before it, 2 theta_p per mirror.
    """

    half: Trajectory | Fall
    reflection: np.ndarray = field(repr=False)
    theta_p: float
    t_end: float
    legs: tuple[MirroredOrbit | Trajectory, ...] = ()

    def state_at(self, t: float) -> PhaseState:
        part, s, mirror, _ = self._part(t)
        source = part.state_at(s)
        return source if mirror is None else PhaseState(mirror.reflection @ source.position,
                                                        (-mirror.reflection) @ source.velocity)

    def theta_at(self, t: float) -> float:
        part, s, mirror, swept = self._part(t)
        theta = part.theta_at(s)
        return swept + (theta if mirror is None else 2.0 * mirror.theta_p - theta)

    def _part(self, t: float) -> tuple[Trajectory | Fall, float, MirroredOrbit | None, float]:
        """(part, s, mirror, swept): the half or plain leg that reads t at
        its time s, the leg whose mirror maps that read (None for a direct
        read), and the angle swept by the legs before; ValueError off
        [0, t_end]."""
        if not 0.0 <= t <= self.t_end:
            raise ValueError(f"t={t!r} outside the trajectory domain [0, {self.t_end!r}]")
        leg, swept = self, 0.0
        for later in self.legs:
            span = 2.0 * leg.half.t_end
            if t <= span:
                break
            t, swept, leg = t - span, swept + 2.0 * leg.theta_p, later
        # the walk subtracts the spans that t_end adds up: the two may round
        # apart, by ulps, past the last leg's end
        t = min(t, leg.t_end)
        if isinstance(leg, Trajectory):     # the plain last leg
            return leg, t, None, swept
        t_p = leg.half.t_end
        return (leg.half, t, None, swept) if t <= t_p else (leg.half, 2.0 * t_p - t, leg, swept)


def extended_flow(state: PhaseState, eps: float, potential: PotentialSpec,
                  horizon: float,
                  ball_radius: float = math.inf) -> Trajectory | MirroredOrbit:
    """The orbit of the extended flow from `state`, valid on [0, its t_end],
    t_end >= horizon: the end of the mirror that covers the horizon, or the
    horizon itself, where a plain leg ends.

    The orbit is built leg by leg, each from the state where the one before
    it ends.  Every leg is `integrate` for the horizon left, with its apse
    stop, and is read by how it stopped.  A collision datum (eps = 0, |l| <=
    COLLISION_L_TOL) stopped at the collision threshold falls on to the
    centre (its `Fall`), and is mirrored there at T0: the transmission, the
    apsidal limit of the smoothed orbits, R = -I, x(T0 + s) = -x(T0 - s)
    and v(T0 + s) = v(T0 - s), and theta_p = pi/2, so the crossing sweeps
    pi.  A leg stopped at its first pericentre t_p > 0 is mirrored there
    across the line through the origin perpendicular to the pericentre
    velocity, R = I - 2 n n^T with n along that velocity, and theta_p the
    angle there.  A leg that the horizon ends first is a plain
    `Trajectory`, and is the last: a fall cut by the horizon, or a radial
    datum that never falls, too.  The legs end where one covers the
    horizon: the orbit is the first leg, with the later ones as its
    `MirroredOrbit.legs`, so the time-T maps compose.  Leaving the ball
    before the horizon raises ExitedBall, at the time since `state`, and an
    eps = 0 orbit whose |l| is too large for transmission that reaches the
    collision threshold RuntimeError.
    """
    legs, elapsed = [], 0.0
    while not legs or elapsed < horizon:   # `integrate` rejects a horizon <= 0
        left = horizon - elapsed
        orbit = integrate(state, SmoothedPotential(potential, eps), horizon=left,
                          ball_radius=ball_radius, apse=True)
        if orbit.stop == COLLISION and is_collision_datum(state, eps):
            end = orbit.state_at(orbit.t_end)
            tail = collision_time(RadialProblem(orbit.potential, orbit.energy0, 0.0), end.r)
            fall = Fall(orbit, orbit.t_end + tail, end.r, end.position / end.r)
            leg = MirroredOrbit(fall, -np.eye(2), 0.5 * math.pi, 2.0 * fall.t_end)
        elif orbit.stop == APSE:
            # the last state is the apse, solved in its step's own variable; the
            # line perpendicular to v_p, not the one through the apse position,
            # stays the apsidal line at l = 0, eps > 0, where the apse is the centre
            v_p = orbit.states[-1, 2:4]
            n = v_p / np.linalg.norm(v_p)
            leg = MirroredOrbit(orbit, np.eye(2) - 2.0 * np.outer(n, n),
                                float(orbit.states[-1, 4]), 2.0 * orbit.t_end)
        elif orbit.stop == COLLISION:
            raise RuntimeError(
                f"integration stopped at t={elapsed + orbit.t_end!r} before T={horizon!r} at "
                f"the collision threshold r = {COLLISION_RADIUS!r}: eps = 0 and |l| = "
                f"{abs(state.ang_momentum)!r} > COLLISION_L_TOL = {COLLISION_L_TOL!r}")
        elif orbit.stop == EXIT_BALL and orbit.t_end < left:
            raise ExitedBall(elapsed + orbit.t_end)
        else:   # the horizon comes first: the last leg, which ends there
            legs.append(orbit)
            break
        legs.append(leg)
        elapsed += leg.t_end
        if elapsed < horizon:
            state = leg.state_at(leg.t_end)
    return legs[0] if len(legs) == 1 else replace(legs[0], t_end=max(elapsed, horizon),
                                                  legs=tuple(legs[1:]))


def diagonal_cells(exponents) -> list[tuple[float, Perturbation]]:
    """Schedule cells perturbing (eps, l, dq, dv1) all at scale 10^-k."""
    return [(10.0 ** -k, Perturbation(dq=(10.0 ** -k, 0.0), l=10.0 ** -k,
                                      dv1=10.0 ** -k))
            for k in exponents]


def continuity_experiment(anchor: Anchor, T: float,
                          cells: list[tuple[float, Perturbation]]) -> ConvergenceTable:
    """Distance at time T between the extended flow of perturbed data and the
    transmission path of a solved case, along a schedule of (eps,
    perturbation) cells tending to zero.

    A failed cell is recorded by `ConvergenceTable.attempt` in
    meta["marked_cells"]; one that fails other than by leaving the ball
    before T names its eps and l, and sets meta["cell_failed"].  meta
    records the collision time T0 of the solved case, `radial.fall_time`
    (the reference is a plain run when T < T0), the reference state,
    whether the distances of the other cells are nonincreasing, the
    first/last distance ratio, and the extrapolated angular increment (the
    transmission value is exactly pi).
    """
    potential, ball_radius = anchor.potential, anchor.case.ball_radius
    ref = extended_flow(make_initial_data(anchor), 0.0, potential, T, ball_radius).state_at(T)
    ref_speed = float(np.linalg.norm(ref.velocity))
    table = ConvergenceTable(
        ("k", "epsilon", "l", "dq", "dv1", "dist_total", "dist_pos",
         "dist_vel", "theta_increment"),
        meta={"T": T, "collision_time": fall_time(anchor),
              "reference": ref.as_vector().tolist()})
    if ref_speed <= 1e-8:
        # rest point on the extended path: continuity is not claimed there
        table.meta["skipped"] = f"|velocity(T)| = {ref_speed!r} below 1e-8"
        return table

    def cell(prefix, eps, pert):
        try:
            orbit = extended_flow(make_initial_data(anchor, pert), eps, potential, T,
                                  ball_radius)
            st = orbit.state_at(T)
            theta_inc = orbit.theta_at(T)
        except ExitedBall:
            raise
        except (RuntimeError, ValueError) as exc:
            table.meta["cell_failed"] = True
            raise RuntimeError(f"eps={eps!r}, l={pert.l!r}: {exc}") from exc
        d_pos = float(np.linalg.norm(st.position - ref.position))
        d_vel = float(np.linalg.norm(st.velocity - ref.velocity))
        table.add(*prefix, math.hypot(d_pos, d_vel), d_pos, d_vel, theta_inc)
        dists.append(math.hypot(d_pos, d_vel))
        thetas.append(theta_inc)

    dists, thetas = [], []
    for k, (eps, pert) in enumerate(cells):
        prefix = (k, eps, pert.l, math.hypot(*pert.dq), pert.dv1)
        table.attempt("marked_cells", (k,), prefix, lambda: cell(prefix, eps, pert))

    if len(dists) >= 3:
        table.meta["nonincreasing"] = is_decreasing(dists)
        table.meta["decay_ratio"] = dists[-1] / dists[0] if dists[0] else math.inf
        verdict = limit_verdict(thetas, target=math.pi)
        table.meta["theta_limit"] = verdict.estimate
        table.meta["theta_converged"] = verdict.converged
    return table


def phase_field(state: PhaseState, potential: PotentialSpec) -> np.ndarray:
    """The phase-space vector field (velocity, grad V) of the unsmoothed
    system at a state."""
    sm = SmoothedPotential(potential, 0.0)
    return np.concatenate([state.velocity, sm.gradient(state.position)])


def _sample_cloud(delta: float, count: int,
                  rng: np.random.Generator) -> list[tuple[float, Perturbation]]:
    """Seeded samples in the delta-neighbourhood of the collision datum.

    Every fifth sample is an exact collision datum (l = 0, eps = 0, transported
    by the transmission flow); every fifth starting at the next offset keeps
    eps = 0 with small l; the rest draw both l and eps in (0, delta].
    """
    cells = []
    for i in range(count):
        dq = (delta * rng.uniform(-0.5, 0.5), delta * rng.uniform(-0.5, 0.5))
        dv1 = delta * rng.uniform(-0.5, 0.5)
        if i % 5 == 0:
            cells.append((0.0, Perturbation(dq=dq, l=0.0, dv1=dv1)))
        elif i % 5 == 1:
            cells.append((0.0, Perturbation(dq=dq, l=delta * rng.uniform(0.1, 1.0), dv1=dv1)))
        else:
            cells.append((delta * rng.uniform(0.0, 1.0),
                          Perturbation(dq=dq, l=delta * rng.uniform(0.1, 1.0), dv1=dv1)))
    return cells


@dataclass(frozen=True)
class Section:
    """The Poincare section at time T of a solved collision case.

    It is the plane through y1 = extended flow at time T of the collision
    datum, normal to the flow direction there (`normal`, the phase field at
    y1); its transversality margin |normal|^2 exceeds 1e-10.  `path` is the
    collision datum's orbit, which reads y1 at T.  xi0 = 0.1 T is the first
    half-width of the crossing bracket: every sample's orbit, `path` too,
    runs to T + xi0.
    """

    anchor: Anchor
    T: float
    xi0: float
    path: MirroredOrbit
    normal: np.ndarray


def section_at(anchor: Anchor, T: float) -> Section:
    """The section at time T, which must lie after the collision time T0 =
    `radial.fall_time(anchor)` of the solved case's collision datum:
    ValueError otherwise, before any integration."""
    if not fall_time(anchor) < T:
        raise ValueError("T must lie strictly after the collision time")
    xi0 = 0.1 * T
    path = extended_flow(make_initial_data(anchor), 0.0, anchor.potential,
                         T + xi0, anchor.case.ball_radius)
    normal = phase_field(path.state_at(T), anchor.potential)
    margin = float(np.dot(normal, normal))
    if margin <= 1e-10:
        raise ValueError(f"section not transversal: margin {margin!r}")
    return Section(anchor, T, xi0, path, normal)


def poincare_section(section: Section, delta: float, sample_count: int,
                     seed: int) -> ConvergenceTable:
    """Hitting times and section traces for samples near the collision datum.

    The samples are drawn in the delta-neighbourhood of the datum by a
    generator seeded with `seed`, so every delta of one section draws from
    its own stream.  For each sample the crossing time tau solves
    H(y, t) = (flow(y, t) - y1) . normal = 0 by bracketing around T (bracket
    half-width xi halved from the section's xi0 = 0.1 T until the signs
    differ) and root refinement; H is increasing along the flow near
    the section, which the bracket search relies on.  Sample 0 is the
    collision datum itself, so its orbit is the section's transmission path,
    not integrated again.
    """
    anchor, T, xi0, normal = section.anchor, section.T, section.xi0, section.normal
    potential, ball_radius = anchor.potential, anchor.case.ball_radius
    y1 = section.path.state_at(T)
    y1v, rng = y1.as_vector(), default_rng(seed)

    table = ConvergenceTable(
        ("sample_id", "q0x", "q0y", "v0x", "v0y", "epsilon", "l",
         "tau", "Sx", "Sy", "Svx", "Svy", "bracket_xi"),
        meta={"T": T, "delta": delta, "anchor": y1v.tolist(),
              "transversality_margin": float(np.dot(normal, normal))})

    def crossing(i, y0, eps, prefix):
        orbit = (section.path if i == 0 else
                 extended_flow(y0, eps, potential, T + xi0, ball_radius))
        flow_at = orbit.state_at

        def H(t):
            return float(np.dot(flow_at(t).as_vector() - y1v, normal))

        xi = xi0
        for _ in range(25):
            if H(T - xi) < 0.0 < H(T + xi):
                break
            xi *= 0.5
        else:
            raise RuntimeError(
                f"no sign change of the section offset in [T-xi, T+xi] down to xi={xi!r}")
        tau = brentq(H, T - xi, T + xi, xtol=1e-12, rtol=8.9e-16)
        trace = flow_at(tau)
        table.add(*prefix, tau, *trace.as_vector().tolist(), xi)
        tau_devs.append(abs(tau - T))
        trace_devs.append(trace.distance(y1))

    cells = [(0.0, Perturbation())] + _sample_cloud(delta, sample_count - 1, rng)
    tau_devs, trace_devs = [], []
    for i, (eps, pert) in enumerate(cells):
        y0 = make_initial_data(anchor, pert)
        prefix = (i, *np.concatenate([y0.position, y0.velocity]).tolist(), eps, pert.l)
        table.attempt("failed_samples", (i,), prefix, lambda: crossing(i, y0, eps, prefix))

    table.meta["crossings_found"] = len(tau_devs)
    table.meta["samples"] = len(cells)
    table.meta["max_tau_dev"] = max(tau_devs) if tau_devs else math.nan
    table.meta["max_trace_dev"] = max(trace_devs) if trace_devs else math.nan
    return table
