"""The reduced one-dimensional radial problem.

For a plane orbit of energy E and angular momentum l in a smoothed central
potential, the radial coordinate is governed by

    rdot^2 = 2 (E + V_eps(r)) - l^2 / r^2,

and motion is possible where f(r) = 2 r^2 (E + V_eps(r)) >= l^2.  This module
finds the first positive zero of f and, for l > 0, the turning points
(pericentre/apocentre) of f(r) = l^2, scanning a grid sparsely.  For zero
angular momentum and a weak singularity the fall reaches the origin in
finite time: `collision_time` is the fall of a datum moving or at rest at
r0, `fall_time` the fall of a solved case.  The quadrature engine integrates
a `RadialProblem`, and its callers are here, one engine call per integral:
`pericentre_integral` (l > 0) from the pericentre to a cutoff, singular there
when it is the apocentre, and `collision_time`, which decides that from
E + V(r0).
`case_anchor` is the one solve of a collision case: its `Anchor` carries the
collision datum every experiment starts from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._brent import brentq, minimize_bounded
from .potentials import PotentialSpec, SmoothedPotential
from .quadrature import PericentreIntegral, sqrt_endpoint_quad

#: a peak of f - l^2 below this absolute bound (not relative to f) counts as a
#: double root, so deep drops, whose f - l^2 peaks below it, read as circular
#: orbits, which `turning_points` refuses
DEGENERATE_TOL = 1e-12
#: number of points of the geometric grid that brackets the turning points
SCAN_POINTS = 10_000
#: stride of the coarse pass of `_one_peak_scan`
_SCAN_STRIDE = 100


@dataclass(frozen=True)
class RadialProblem:
    """(potential, E, l): the reduced problem for one orbit family."""

    potential: SmoothedPotential
    energy: float
    ang_momentum: float

    def __post_init__(self):
        if self.ang_momentum < 0:
            raise ValueError("angular momentum magnitude must be nonnegative")
        # (V, E, eps, l) of `radicand` and the engine's nodes, bound once: the
        # constants as Python floats (the energy often arrives as a numpy scalar)
        object.__setattr__(self, "terms", (self.potential.base.value, float(self.energy),
                                           self.potential.epsilon, float(self.ang_momentum)))

    def f(self, r: np.ndarray) -> np.ndarray:
        """f(r) = 2 r^2 (E + V_eps(r)) on a grid of radii; motion needs
        f(r) >= l^2.  Scalar evaluations of f - l^2 use `radicand`."""
        r = np.asarray(r, float)
        return 2.0 * r * r * (self.energy + self.potential.value(r))

    def radicand(self, x: float) -> float:
        """f(x) - l^2 at a scalar x, in the operation order of `f`, with one
        call of V; x = 0 needs eps > 0."""
        V, energy, eps, l = self.terms
        h = math.hypot(x, eps)
        if not h:
            raise ValueError("x = 0 requires eps > 0")
        return 2.0 * x * x * (energy + V(h)) - l * l


@dataclass(frozen=True)
class TurningPoints:
    """Apsidal data of one non-circular orbit with l > 0.

    pericenter: smallest radius.
    apocenter: largest radius (+inf for unbounded orbits).
    """

    pericenter: float
    apocenter: float


@dataclass(frozen=True)
class DropFromRest:
    """Collision orbit bounded in the ball: start at rest at the outer radius
    where E + V vanishes (that radius must lie inside the ball)."""

    energy: float
    ball_radius: float = math.inf


@dataclass(frozen=True)
class InwardCrossing:
    """Collision orbit entering the ball from its boundary, with the inward
    speed fixed by the energy."""

    energy: float
    ball_radius: float


Case = DropFromRest | InwardCrossing


@dataclass(frozen=True)
class Anchor:
    """A solved collision case, made only by `case_anchor`: the nominal
    initial radius and signed radial speed of the case's collision datum."""

    case: Case
    potential: PotentialSpec
    radius: float
    speed: float


def case_anchor(case: Case, potential: PotentialSpec) -> Anchor:
    """The one solve of a collision case: (rest radius, 0) for a drop,
    (ball radius, -sqrt(2(E+V))) for a crossing.  Raises when the case
    preconditions fail (no rest radius above 1e-14, rest radius outside/inside
    the ball as appropriate, or imaginary boundary speed).
    """
    bare = SmoothedPotential(potential, 0.0)
    rest_radius = first_zero(RadialProblem(bare, case.energy, 0.0))
    if isinstance(case, DropFromRest):
        if not rest_radius < case.ball_radius:
            raise ValueError(
                f"drop case needs the rest radius {rest_radius!r} inside the ball "
                f"{case.ball_radius!r}")
        return Anchor(case, potential, rest_radius, 0.0)
    if not rest_radius >= case.ball_radius:
        raise ValueError(
            f"crossing case needs the rest radius {rest_radius!r} at or beyond the "
            f"ball {case.ball_radius!r}")
    speed_sq = 2.0 * (case.energy + bare.value(case.ball_radius))
    if speed_sq < 0:
        raise ValueError("boundary speed is imaginary: energy too low for the ball radius")
    return Anchor(case, potential, case.ball_radius, -math.sqrt(speed_sq))


def first_zero(rp: RadialProblem) -> float:
    """First positive zero of f, i.e. the radius where E + V_eps = 0.

    Since E + V_eps decreases in r, a doubling scan from r = 1 locates the
    sign change; +inf when none exists below 1e9.  When E + V_eps stays
    nonpositive down to 1e-14 there is no orbit, and a ValueError says so;
    a NaN energy is one too.
    """
    if math.isnan(rp.energy):
        raise ValueError("energy is NaN")

    def g(r):
        return rp.energy + rp.potential.value(r)

    x = 1.0
    while g(x) <= 0:
        x *= 0.5
        if x < 1e-14:
            raise ValueError(f"no orbit: E + V_eps has no zero above 1e-14 "
                             f"(E = {rp.energy!r}, eps = {rp.potential.epsilon!r})")
    while g(x) > 0:
        x_prev = x
        x *= 2.0
        if x > 1e9:
            return math.inf
    return brentq(g, x_prev, x, xtol=1e-15, rtol=8.9e-16)


def _one_peak_scan(g, start: float, stop: float, num: int) -> tuple[np.ndarray, np.ndarray]:
    """The points of `np.geomspace(start, stop, num)`, bit for bit and in grid
    order, near the peak of g and its sign changes on either side, with g
    there: every `_SCAN_STRIDE`-th point and the last one, and every point
    between the coarse neighbours of the coarse peak (never a non-finite
    value), of the last coarse negative at or before it and of the first at
    or after it.  Where g has one peak and changes sign at most once between
    coarse points, a search on them reads what the full grid holds; finite
    coarse values with an interior strict minimum (a valley) read every point.
    """
    log_start, log_stop = np.log10(start), np.log10(stop)
    step = (log_stop - log_start) / (num - 1)

    def grid(i):
        # np.geomspace's arithmetic: a linspace of the logs, exact ends
        r = np.power(10.0, i * step + log_start)
        r[i == 0], r[i == num - 1] = start, stop
        return r

    coarse = np.arange(0, num - 1 + _SCAN_STRIDE, _SCAN_STRIDE)
    coarse[-1] = num - 1
    g_coarse = g(grid(coarse))
    finite = np.isfinite(g_coarse)
    v = g_coarse[finite]
    if np.any((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])):
        r = grid(np.arange(num))
        return r, g(r)
    peak = int(np.argmax(np.where(finite, g_coarse, -np.inf)))
    below = np.flatnonzero(finite & (g_coarse < 0))
    read = np.zeros(num, bool)
    read[coarse] = True
    for c in (peak, *below[below <= peak][-1:], *below[below >= peak][:1]):
        read[coarse[max(c - 1, 0)]:coarse[min(c + 1, len(coarse) - 1)] + 1] = True
    r = grid(np.flatnonzero(read))
    return r, g(r)


def turning_points(rp: RadialProblem, safe_radius: float = math.inf) -> TurningPoints:
    """Locate pericentre and apocentre of an orbit with l > 0 by bracket scan
    plus root refinement.

    The brackets are those of f - l^2 on `SCAN_POINTS` geometric points from
    1e-12, read by `_one_peak_scan`: exact while f has one peak, as for -log,
    homogeneous(alpha <= 2), and alpha > 2 at E <= 0, or a valley that the
    coarse points show, as for alpha > 2 at eps = 0 (README).

    The pericentre is the smallest positive root of f(r) = l^2 crossed with f
    increasing (convention 0 when there is none); the apocenter is the next
    root crossed with f decreasing (convention +inf).  Raises when l^2
    exceeds the maximum of f on the scan range, or f has no zero above 1e-14
    (no orbit, from `first_zero`), and when l^2 is that maximum to within
    DEGENERATE_TOL (a circular orbit, a double root).  For an unbounded orbit
    (no zero of f) the scan ends at max(1e3, 10 safe_radius); safe_radius has
    no other use here.  A zero l is a ValueError: that orbit is a fall
    (`collision_time`, `fall_time`).
    """
    l = rp.ang_momentum
    if l == 0.0:
        raise ValueError("turning points need l > 0; a zero-l orbit is a fall to the centre")
    l2 = l * l
    P = first_zero(rp)
    w = rp.radicand
    hi = P if math.isfinite(P) else max(1e3, 10.0 * safe_radius if math.isfinite(safe_radius) else 0.0)
    with np.errstate(all="ignore"):
        grid, fvals = _one_peak_scan(lambda r: rp.f(r) - l2, 1e-12, hi * (1.0 - 1e-12),
                                     SCAN_POINTS)
    finite = np.isfinite(fvals)
    if not finite.all():
        grid, fvals = grid[finite], fvals[finite]
    i_max = int(np.argmax(fvals))

    # refine the peak: near-circular orbits keep the allowed region between
    # grid points, and the degeneracy test needs the true maximum
    if 0 < i_max < len(grid) - 1:
        r_peak, f_low = minimize_bounded(lambda r: -w(r), grid[i_max - 1],
                                         grid[i_max + 1], xatol=1e-14)
        f_peak = float(-f_low)
    else:
        r_peak, f_peak = float(grid[i_max]), float(fvals[i_max])

    if f_peak < -DEGENERATE_TOL:
        raise ValueError(f"no orbit: l^2 = {l2!r} exceeds max f = {f_peak + l2!r} on the scan range")
    if f_peak < DEGENERATE_TOL:
        raise ValueError("circular orbit: apsidal angle undefined by the turning-point formula")

    def refine(lo: float, hi_: float) -> float:
        return brentq(w, lo, hi_, xtol=1e-15, rtol=8.9e-16)

    below_left = np.where(fvals[:i_max + 1] < 0)[0]
    if len(below_left) == 0:
        pericenter = 0.0
    else:
        pericenter = refine(grid[below_left[-1]], r_peak)

    below_right = np.where(fvals[i_max:] < 0)[0]
    if len(below_right) > 0:
        apocenter = refine(r_peak, grid[i_max + below_right[0]])
    elif math.isfinite(P):
        # the outer crossing hides between the last scan point and the zero
        # of f, where f - l^2 = -l^2 < 0 brackets it from the right
        apocenter = refine(max(r_peak, grid[-1]), P)
    else:
        apocenter = math.inf

    return TurningPoints(pericenter, apocenter)


def pericentre_integral(rp: RadialProblem, safe_radius: float, *,
                        angle: bool) -> PericentreIntegral:
    """The apsidal angle (`angle`) or flight time of rp from its pericentre to
    beta = min(safe_radius, apocentre), singular at beta when it is the
    apocentre.  Requires a positive pericentre, not `turning_points`' 0.0
    for one below its scan, which also refuses l = 0 and a circular orbit."""
    turning = turning_points(rp, safe_radius)
    if turning.pericenter <= 0:
        raise ValueError("pericentre is not positive")
    beta = min(safe_radius, turning.apocenter)
    return sqrt_endpoint_quad(rp, turning.pericenter, beta, angle=angle,
                              upper_singular=beta == turning.apocenter)


def collision_time(rp: RadialProblem, r0: float) -> float:
    """Time to fall into the origin from r0 on a zero-angular-momentum orbit
    that is moving at r0 (E + V(r0) > 0), as a transmission path's tail is,
    or at rest there (E + V(r0) == 0), as a drop is.

    T0 = integral_0^r0 dr / sqrt(2 (E + V(r))), finite whenever the
    singularity is weak.  The engine's lower substitution takes the centre,
    where the factor r of the integrand cancels the double zero of f; the
    upper end is singular exactly when the datum is at rest, a turning point.
    """
    if rp.ang_momentum != 0.0:
        raise ValueError("collision time is defined for zero angular momentum")
    if not r0 > 0.0:
        raise ValueError(f"collision time needs r0 > 0, got {r0!r}")
    kinetic = rp.energy + rp.potential.value(r0)
    if not kinetic >= 0.0:
        raise ValueError(f"collision time needs a datum moving or at rest at r0={r0!r}: "
                         "E + V(r0) is negative")
    return sqrt_endpoint_quad(rp, 0.0, r0, angle=False, upper_singular=kinetic == 0.0).value


def fall_time(anchor: Anchor) -> float:
    """Collision time of the solved case's nominal orbit in the bare
    potential, at the energy of its datum (radius and radial speed); a drop's
    energy is -V(radius), so its datum is at rest."""
    bare = SmoothedPotential(anchor.potential, 0.0)
    energy = 0.5 * anchor.speed * anchor.speed - bare.value(anchor.radius)
    return collision_time(RadialProblem(bare, energy, 0.0), anchor.radius)
