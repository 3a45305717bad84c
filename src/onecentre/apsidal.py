"""Apsidal angles, integrand bound functions, and convergence sweeps.

The apsidal angle of an orbit with angular momentum l > 0 between its
pericentre and the integration cutoff beta = min(safe radius, apocenter) is

    angle = integral_{R-}^{beta}  l dr / (r sqrt(f(r) - l^2)),

with inverse-square-root endpoint zeros (both ends when beta is the
apocenter), as `radial.pericentre_integral` takes it.  The value comes with
the split at the geometric mean of the endpoints: the outer part decays like
(R-/beta)^(1/4) as the orbit approaches collision; the inner part carries
the limit.

The convergence sweeps take a solved case (`radial.Anchor`) and give each
(eps, l) cell the energy of the case's datum perturbed by l and eps.

The module also evaluates two auxiliary functions used to bound the angle
integrand uniformly in the smoothing parameter -- an envelope built from
smoothed potential increments, and the desingularized factor left after the
endpoint zeros are extracted -- plus the calibration identity

    integral_1^xi dx / (x sqrt((x-1)(1-x/xi))) = pi      for every xi > 1,

which exercises the quadrature engine (its one caller outside `radial`)
against an exact value: it is the apsidal angle of a Kepler orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .potentials import PotentialSpec, SmoothedPotential
from .quadrature import PericentreIntegral, sqrt_endpoint_quad
from .radial import Anchor, RadialProblem, pericentre_integral, turning_points
from .tables import ConvergenceTable, LimitVerdict, limit_verdict


def apsidal_angle(rp: RadialProblem, safe_radius: float = math.inf) -> PericentreIntegral:
    """Apsidal angle of the orbit rp up to the cutoff (`pericentre_integral`)."""
    return pericentre_integral(rp, safe_radius, angle=True)


def calibration_integral(xi: float) -> float:
    """Exact-pi self test of the quadrature engine at xi > 1.

    The integral is the apsidal angle of the Kepler orbit V = k / r with
    l = 1, E = -1/(2 xi) and k = (1 + xi)/(2 xi), whose apsides are 1 and xi:
    its radicand 2 r^2 (E + k/r) - 1 is (r-1)(1-r/xi).  Its reduced weight is
    the constant 1/xi, so the engine runs at machine precision even for
    nearly degenerate intervals.  Measured on the decades: within 1.7e-13
    of pi up to xi = 1e11, and 2.0e-3 off at xi = 1e12, where the error
    estimate reads only 7.1e-8.
    """
    if xi <= 1.0:
        raise ValueError("xi must exceed 1")
    k = 0.5 * (1.0 + xi) / xi
    V = PotentialSpec("kepler", lambda h: k / h, lambda h: -k / (h * h), lambda h: 2.0 * k / h**3)
    kepler = RadialProblem(SmoothedPotential(V, 0.0), -0.5 / xi, 1.0)
    return sqrt_endpoint_quad(kepler, 1.0, xi, angle=True, upper_singular=True,
                              reduced=1.0 / xi).value


def integrand_envelope(potential: PotentialSpec, eps: float,
                       y: float, x: float, r_outer: float) -> float:
    """Lower-bound envelope built from smoothed potential increments.

    For admissible potentials and eps small enough this stays >= r_outer for
    every 0 < y < x < r_outer inside the safe radius; that is what caps the
    desingularized angle integrand.  The apparent singularity at x = y is
    removable (the bracket vanishes linearly in x/y - 1).
    """
    if not (0.0 < y < x <= r_outer):
        raise ValueError("need 0 < y < x <= r_outer")
    if x == r_outer:
        return math.inf
    sm = SmoothedPotential(potential, eps)
    vx, vy, vr = sm.value(x), sm.value(y), sm.value(r_outer)
    ratio = (vx - vr) / (vy - vr)
    bracket = (x / y) ** 2 * ratio * (r_outer**2 - y**2) / (r_outer**2 - x**2) - 1.0
    return (r_outer + x) / (x / y - 1.0) * bracket


def desingularized_factor(sm: SmoothedPotential, rm: float, beta: float,
                          v_sq: float, rho: float | np.ndarray) -> float | np.ndarray:
    """The factor left under the square root of the angle integrand after the
    endpoint zeros (rho - 1) and (beta - rho R-) are extracted.

    rm is the orbit's pericentre R- in the smoothed potential sm, and rho the
    radius in units of it, in (1, beta/R-), a scalar or an array; v_sq is the
    squared radial velocity at beta (zero when beta is the apocenter).  For
    admissible potentials and eps small enough the factor is bounded by beta
    throughout its domain.
    """
    if rm <= 0:
        raise ValueError("needs a positive pericentre")
    if not np.all((1.0 < rho) & (rho < beta / rm)):
        raise ValueError("rho outside (1, beta/pericentre)")
    num = (beta - rho * rm) * (rho - 1.0)
    incr = (sm.value(rho * rm) - sm.value(beta) + 0.5 * v_sq) / \
           (sm.value(rm) - sm.value(beta) + 0.5 * v_sq)
    den = (rm * rm * rho * rho / (beta * beta) - 1.0) + \
        rho * rho * incr * (beta * beta - rm * rm) / (beta * beta)
    return num / den


def bounds_audit(potential: PotentialSpec, eps_values, samples: int, seed: int,
                 energy: float, violation_tol: float) -> ConvergenceTable:
    """Seeded audit of both integrand bounds, per eps in `eps_values`.

    `samples` envelope draws 0 < y < x < r_outer <= 1 (rows "envelope", p =
    (y, x, r_outer), margin = envelope - r_outer), then `samples` factor draws
    of rho for the orbit with l = eps at energy + l^2/2, cut off at its
    apocenter beta (rows "factor", p = (rho, R-, beta), margin = beta -
    factor).  meta["violations"] lists the samples with margin < -violation_tol.
    The factor draws of one eps are one cell: a failed one is recorded by
    `ConvergenceTable.attempt` in meta["failed_cells"] as (eps, message).
    """
    rng = default_rng(seed)
    table = ConvergenceTable(("kind", "epsilon", "p1", "p2", "p3", "value", "margin"))

    def factor_rows(eps, draws):
        rp = RadialProblem(SmoothedPotential(potential, eps), energy + 0.5 * eps * eps, eps)
        tp = turning_points(rp)
        rm, beta = tp.pericenter, tp.apocenter
        rhos = 1.0 + (beta / rm - 1.0) * draws
        for rho, val in zip(rhos, desingularized_factor(rp.potential, rm, beta, 0.0, rhos)):
            table.add("factor", eps, rho, rm, beta, val, beta - val)

    for eps in eps_values:
        for _ in range(samples):
            r_outer = rng.uniform(0.05, 1.0)
            y = rng.uniform(1e-3, 0.999 * r_outer)
            x = rng.uniform(y * (1 + 1e-7), r_outer * (1 - 1e-7))
            val = integrand_envelope(potential, eps, y, x, r_outer)
            table.add("envelope", eps, y, x, r_outer, val, val - r_outer)
        draws = rng.uniform(1e-9, 1.0 - 1e-9, size=samples)
        table.attempt("failed_cells", (eps,), ("factor", eps), lambda: factor_rows(eps, draws))
    # a violation is (kind, eps, the draw's p's, margin); a factor draw is rho alone
    table.meta["violations"] = [(*row[:3 if row[0] == "factor" else 5], row[6])
                                for row in table.rows if row[6] < -violation_tol]
    return table


# --- convergence sweeps -----------------------------------------------------

@dataclass(frozen=True)
class SweepPath:
    path_id: str
    cells: tuple[tuple[float, float], ...]   # (eps, l) per cell, schedule order


def default_paths(exponents) -> list[SweepPath]:
    """Diagonal plus the two axis-first paths through the (eps, l) grid."""
    ks = list(exponents)
    fine = 10.0 ** -ks[-1]
    diag = tuple((10.0 ** -k, 10.0 ** -k) for k in ks)
    eps_first = tuple((fine, 10.0 ** -k) for k in ks)
    l_first = tuple((10.0 ** -k, fine) for k in ks)
    return [SweepPath("diagonal", diag),
            SweepPath("eps_first", eps_first),
            SweepPath("l_first", l_first)]


def _sweep_cell(anchor: Anchor, eps: float, l: float) -> PericentreIntegral:
    """One sweep cell: the angle of the orbit at the initial-data-consistent
    energy.

    The cell energy is the energy of the perturbed datum (the solved case's
    radius and radial speed, angular momentum l, smoothing eps), which tends
    to the case energy as the schedule refines.
    """
    sm = SmoothedPotential(anchor.potential, eps)
    r, v1_bar = anchor.radius, anchor.speed
    energy = 0.5 * v1_bar * v1_bar + 0.5 * l * l / (r * r) - sm.value(r)
    return apsidal_angle(RadialProblem(sm, energy, l), anchor.case.ball_radius)


def convergence_sweep(anchor: Anchor, paths: list[SweepPath]) -> ConvergenceTable:
    """Apsidal angles of a solved case over (eps, l) schedules, with per-path
    limit verdicts against pi/2.

    A failed cell is recorded by `ConvergenceTable.attempt` in
    meta["cell_errors"] as (path_id, k, message).  meta carries, per path,
    the Aitken limit estimate and the convergence verdict, plus a uniformity
    verdict: all path estimates within 1e-2 of each other.
    """
    table = ConvergenceTable(
        ("path_id", "k", "epsilon", "l", "R_minus", "beta", "delta_theta",
         "quad_err", "I1", "I2"))

    def cell(prefix, angles):
        ang = _sweep_cell(anchor, *prefix[2:])
        table.add(*prefix, ang.pericenter, ang.cutoff, ang.value, ang.quad_error,
                  ang.inner_part, ang.outer_part)
        angles.append(ang.value)

    estimates: dict[str, LimitVerdict] = {}
    for path in paths:
        angles = []
        for k, (eps, l) in enumerate(path.cells):
            prefix = (path.path_id, k, eps, l)
            table.attempt("cell_errors", prefix[:2], prefix, lambda: cell(prefix, angles))
        if len(angles) >= 3:
            estimates[path.path_id] = limit_verdict(angles, target=math.pi / 2.0)

    table.meta["path_limits"] = {
        pid: {"estimate": v.estimate, "converged": v.converged}
        for pid, v in estimates.items()}
    if estimates:
        vals = [v.estimate for v in estimates.values()]
        table.meta["uniform"] = (max(vals) - min(vals)) <= 1e-2
    return table
