"""Action of discretized paths and the non-minimality probe for transmission.

Paths are piecewise linear on a uniform grid over [-T, T] with fixed
endpoints; the action is

    A(u) = integral ( |u'|^2 / 2 + V(|u|) ) dt,

evaluated with the exact kinetic energy of the piecewise-linear path and a
midpoint rule for the potential.  The midpoint rule never samples the exact
collision node; cells where the path passes near the origin are refined
dyadically until their contribution settles, so the (integrable) blow-up of V
along a collision path is captured.  The refinement runs a whole level at a
time on coordinate arrays, with one potential call per level for both
half-cell midpoints of every unsettled cell; only unsettled cells split.

The probe displaces a straight transmission path orthogonally by the plateau
profile

    delta                      for |t| < T1,
    delta (T - |t|)/(T - T1)   for T1 <= |t| <= T,

which removes the collision at cost exactly delta^2/(T - T1) of kinetic
action when T1 and T are grid-aligned, and gains potential action that beats
the cost for every small delta: the transmission path is not a local
minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potentials import PotentialSpec
from .radial import DropFromRest, fall_time
from .simulator import make_initial_data
from .flow import extended_flow
from .tables import ConvergenceTable

#: per-cell refinement tolerance of the potential quadrature
REFINE_TOL = 1e-10
MAX_DEPTH = 48
#: default number of cells of the uniform grid
DEFAULT_CELLS = 2 ** 14


@dataclass(frozen=True)
class DiscretePath:
    """Piecewise-linear path: uniform times on [-T, T], one 2-vector per node."""

    times: np.ndarray
    values: np.ndarray   # (n_nodes, 2)

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have the same length")
        dt = np.diff(self.times)
        # node values carry ~eps*|t| rounding, so diffs jitter at eps*T/dt
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
            raise ValueError("grid must be uniform")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def half_span(self) -> float:
        return float(self.times[-1])

    def kinetic_action(self) -> float:
        """Exact integral of |u'|^2/2 for the piecewise-linear path."""
        du = np.diff(self.values, axis=0)
        return float(0.5 * np.sum(du[:, 0]**2 + du[:, 1]**2) / self.dt)


def potential_action(path: DiscretePath, potential: PotentialSpec) -> tuple[float, int]:
    """Integral of V(|u|) along the path; returns (value, max refinement depth).

    Each live cell compares its midpoint value (coarse) with the sum of its
    two half-cell values (fine): cells with |fine - coarse| < REFINE_TOL
    settle and add fine, the others split, each half keeping its value as its
    coarse, and cells still live at MAX_DEPTH add coarse.  Endpoints are
    never sampled, so an exact-zero node is harmless.
    """
    V, dt = potential.value, path.dt
    xs, ys = path.values[:, 0], path.values[:, 1]
    xa, ya, xb, yb = xs[:-1], ys[:-1], xs[1:], ys[1:]
    xm, ym = 0.5 * (xa + xb), 0.5 * (ya + yb)
    coarse = V(np.hypot(xm, ym)) * dt
    total, depth = 0.0, 0
    while coarse.size:
        if depth >= MAX_DEPTH:
            return total + float(np.sum(coarse)), depth
        dt *= 0.5
        left = V(np.hypot(0.5 * (xa + xm), 0.5 * (ya + ym))) * dt
        right = V(np.hypot(0.5 * (xm + xb), 0.5 * (ym + yb))) * dt
        fine = left + right
        settled = np.abs(fine - coarse) < REFINE_TOL
        total += float(np.sum(fine[settled]))
        depth += 1
        live = ~settled
        xa, xb = np.concatenate((xa[live], xm[live])), np.concatenate((xm[live], xb[live]))
        ya, yb = np.concatenate((ya[live], ym[live])), np.concatenate((ym[live], yb[live]))
        xm, ym = 0.5 * (xa + xb), 0.5 * (ya + yb)
        coarse = np.concatenate((left[live], right[live]))
    return total, depth


def transmission_discrete_path(potential: PotentialSpec, energy: float,
                               n_cells: int = DEFAULT_CELLS) -> DiscretePath:
    """Discretize the transmission path of the rest-to-rest drop on [-T0, T0].

    The drop starts at rest at the outer rest radius, collides at t = 0 (a
    grid node, with value exactly 0) and continues to the reflected rest
    point.  n_cells must be divisible by 4 so that t = 0 and T1 = T0/2 are
    grid nodes.  The pre-collision nodes are evaluated in one call and the
    t > 0 half is their point reflection, so the path is exactly
    antisymmetric.
    """
    if n_cells % 4:
        raise ValueError("n_cells must be divisible by 4")
    case = DropFromRest(energy)
    path = extended_flow(make_initial_data(case, potential), 0.0, potential,
                         fall_time(case, potential), case.ball_radius)
    T0 = path.collision_time

    times = np.linspace(-T0, T0, n_cells + 1)
    return DiscretePath(times, path.symmetric_positions(T0 + times[:n_cells // 2]))


def _collinear_axis(path: DiscretePath) -> np.ndarray:
    """Unit vector of the line of motion; error if the path is not collinear."""
    vals = path.values
    norms = np.hypot(vals[:, 0], vals[:, 1])
    i_far = int(np.argmax(norms))
    axis = vals[i_far] / norms[i_far]
    cross = np.abs(vals[:, 0] * axis[1] - vals[:, 1] * axis[0])
    if np.max(cross) > 1e-9 * max(norms.max(), 1.0):
        raise ValueError("path is not collinear: orthogonal variation direction is ambiguous")
    return axis


def plateau_profile(times: np.ndarray, delta: float, T1: float, T: float) -> np.ndarray:
    """delta inside |t| < T1, tapering linearly to 0 at |t| = T."""
    a = np.abs(times)
    return np.where(a < T1, delta, delta * (T - a) / (T - T1))


def standard_variation(path: DiscretePath, delta: float, T1: float) -> DiscretePath:
    """Displace a collinear path orthogonally by the plateau profile.

    The displacement direction is the counterclockwise normal of the line of
    motion.  T1 is snapped to the nearest grid node so the kinetic cost of the
    taper is exactly delta^2/(T - T1).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    T = path.half_span
    if not (0.0 < T1 < T):
        raise ValueError("need 0 < T1 < T")
    T1 = path.times[int(np.argmin(np.abs(path.times - T1)))]
    axis = _collinear_axis(path)
    normal = np.array([-axis[1], axis[0]])
    offsets = plateau_profile(path.times, delta, T1, T)
    return DiscretePath(path.times, path.values + offsets[:, None] * normal)


def delta_action(path: DiscretePath, deltas, T1: float,
                 potential: PotentialSpec) -> ConvergenceTable:
    """Compare the action of a transmission path with each of its plateau
    displacements: one row of A(u0) - A(u1), split into kinetic and potential
    parts, per delta.

    dA > 0 means the displaced path has smaller action than the transmission
    path.  dK_closed is the exact taper cost -delta^2/(T - T1), dK_discrete
    the kinetic difference of the grid paths, and collision_cell_depth the
    deeper of the two refinements.  meta holds the evidence of the
    non-minimality claim: "dA", "kinetic_mismatch" (max |dK_discrete -
    dK_closed|), "dV_over_delta_sq" and "unsettled" (the deltas whose depth
    reached MAX_DEPTH, where a cell added its coarse value).  The potential
    action of the unvaried path is refined once.
    """
    i_T1 = int(np.argmin(np.abs(path.times - T1)))
    T1_snap = float(path.times[i_T1])
    T = path.half_span
    kin0 = path.kinetic_action()
    pot0, depth0 = potential_action(path, potential)

    table = ConvergenceTable(("delta", "T1", "dK_closed", "dK_discrete",
                              "dV", "dA", "collision_cell_depth"))
    for delta in deltas:
        varied = standard_variation(path, delta, T1)
        dK_discrete = kin0 - varied.kinetic_action()
        pot1, depth1 = potential_action(varied, potential)
        dV = pot0 - pot1
        table.add(delta, T1_snap, -delta * delta / (T - T1_snap), dK_discrete,
                  dV, dK_discrete + dV, max(depth0, depth1))
    col = table.column
    table.meta.update(
        dA=col("dA"),
        kinetic_mismatch=max(abs(d - c) for d, c in zip(col("dK_discrete"), col("dK_closed"))),
        dV_over_delta_sq=[v / d**2 for v, d in zip(col("dV"), col("delta"))],
        unsettled=[d for d, k in zip(col("delta"), col("collision_cell_depth"))
                   if k >= MAX_DEPTH])
    return table
