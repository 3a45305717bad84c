"""The non-minimality probe: the action of the drop's transmission path against
its plateau displacements.

The transmission path of a solved drop from rest (`radial.Anchor`) is
sampled on a uniform grid over [-T0, T0] and read as a piecewise-linear
path with fixed endpoints; the action is

    A(u) = integral ( |u'|^2 / 2 + V(|u|) ) dt,

evaluated with the exact kinetic energy of the piecewise-linear path and a
midpoint rule for the potential.  The midpoint rule never samples the exact
collision node; cells where the path passes near the origin are refined
dyadically until their contribution settles, so the (integrable) blow-up of V
along a collision path is captured.  The refinement runs a whole level at a
time on coordinate arrays, with one potential call per level for both
half-cell midpoints of every unsettled cell; only unsettled cells split.

The probe displaces the path along the normal of its fall line by the
plateau profile

    delta                        for |t| < T1,
    delta (T0 - |t|)/(T0 - T1)   for T1 <= |t| <= T0,

which removes the collision at cost exactly delta^2/(T0 - T1) of kinetic
action, since T1 is a grid node, and gains potential action that beats the
cost for every small delta: the transmission path is not a local minimizer.
"""

from __future__ import annotations

import numpy as np

from .potentials import PotentialSpec
from .radial import Anchor, DropFromRest, fall_time
from .simulator import make_initial_data
from .flow import extended_flow
from .tables import ConvergenceTable

#: per-cell refinement tolerance of the potential quadrature
REFINE_TOL = 1e-10
MAX_DEPTH = 48


def kinetic_action(values: np.ndarray, dt: float) -> float:
    """Exact integral of |u'|^2/2 for the piecewise-linear path through the
    rows of `values` (one 2-vector per node, a node every dt)."""
    du = np.diff(values, axis=0)
    return float(0.5 * np.sum(du[:, 0]**2 + du[:, 1]**2) / dt)


def potential_action(values: np.ndarray, dt: float,
                     potential: PotentialSpec) -> tuple[float, int]:
    """Integral of V(|u|) along the piecewise-linear path through the rows of
    `values`, a node every dt; returns (value, max refinement depth).

    Each live cell compares its midpoint value (coarse) with the sum of its
    two half-cell values (fine): cells with |fine - coarse| < REFINE_TOL
    settle and add fine, the others split, each half keeping its value as its
    coarse, and cells still live at MAX_DEPTH add coarse.  Endpoints are
    never sampled, so an exact-zero node is harmless.
    """
    V = potential.value
    xs, ys = values[:, 0], values[:, 1]
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


def delta_action(anchor: Anchor, deltas, T1_factor: float,
                 n_cells: int) -> ConvergenceTable:
    """The probe's table: A(u0) - A(u1), split into kinetic and potential
    parts, one row per delta, for the transmission path u0 of a solved drop
    from rest (any other case is a ValueError) and its plateau displacements
    u1.

    u0 is sampled at n_cells + 1 uniform times on [-T0, T0], from rest at the
    outer rest radius through the collision at t = 0 (a node, exactly 0) to
    the reflected rest point; the t > 0 half is the point reflection of the
    rest, so u0 is exactly antisymmetric.  n_cells must be divisible by 4 so
    that t = 0 and T0/2 are nodes; T1 = T1_factor * T0 snaps to a node.

    dA > 0 means the displaced path has smaller action.  dK_closed is the
    exact taper cost -delta^2/(T0 - T1), dK_discrete the kinetic difference
    of the grid paths, and collision_cell_depth the deeper of the two
    refinements; u0 is refined once.  meta holds the evidence of the
    non-minimality claim: "dA", "kinetic_mismatch" (max |dK_discrete -
    dK_closed|), "dV_over_delta_sq" and "unsettled" (the deltas whose depth
    reached MAX_DEPTH, where a cell added its coarse value).
    """
    if n_cells % 4:
        raise ValueError("n_cells must be divisible by 4")
    if not 0.0 < T1_factor < 1.0:
        raise ValueError("need 0 < T1_factor < 1")
    if not isinstance(anchor.case, DropFromRest):
        raise ValueError(f"the probe needs a drop from rest, got {anchor.case!r}")
    potential = anchor.potential
    path = extended_flow(make_initial_data(anchor), 0.0, potential, fall_time(anchor),
                         anchor.case.ball_radius)
    fall = path.half
    T0 = fall.t_end
    times = np.linspace(-T0, T0, n_cells + 1)
    values = fall.positions(T0 + times[:n_cells // 2])
    values = np.concatenate([values, np.zeros((1, 2)), -values[::-1]])
    dt = float(times[1] - times[0])
    T1 = float(times[int(np.argmin(np.abs(times - T1_factor * T0)))])
    normal = np.array([-fall.direction[1], fall.direction[0]])
    a = np.abs(times)
    kin0 = kinetic_action(values, dt)
    pot0, depth0 = potential_action(values, dt, potential)

    table = ConvergenceTable(("delta", "T1", "dK_closed", "dK_discrete",
                              "dV", "dA", "collision_cell_depth"))
    for delta in deltas:
        if delta <= 0:
            raise ValueError("delta must be positive")
        varied = values + np.where(a < T1, delta, delta * (T0 - a) / (T0 - T1))[:, None] * normal
        dK_discrete = kin0 - kinetic_action(varied, dt)
        pot1, depth1 = potential_action(varied, dt, potential)
        dV = pot0 - pot1
        table.add(delta, T1, -delta * delta / (T0 - T1), dK_discrete,
                  dV, dK_discrete + dV, max(depth0, depth1))
    col = table.column
    table.meta.update(
        dA=col("dA"),
        kinetic_mismatch=max(abs(d - c) for d, c in zip(col("dK_discrete"), col("dK_closed"))),
        dV_over_delta_sq=[v / d**2 for v, d in zip(col("dV"), col("delta"))],
        unsettled=[d for d, k in zip(col("delta"), col("collision_cell_depth"))
                   if k >= MAX_DEPTH])
    return table
