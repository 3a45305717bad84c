"""Central potentials, the smoothing operator, and numerical class certification.

A potential here is a radial function V(x) on x > 0, attractive and singular at
the origin, given with its first two derivatives.  Built-in families:

* ``logarithmic``:        V(x) = -log x
* ``homogeneous(alpha)``: V(x) = x^(-alpha), alpha > 0

The smoothing operator takes V(x) to V(sqrt(x^2 + eps^2)), which is finite
at x = 0 for eps > 0 and restores V exactly when eps = 0.

Class certification is numerical, on geometric grids: a potential is
*admissible* when it blows up at the origin, is decreasing and convex near 0,
has V'/V'' decreasing with one-sided slope at 0 strictly below -1/2, and it is
*slowly varying* when V(lam*x)/V(lam) -> 1 uniformly on [1, M] as lam -> 0.
Admissible potentials have a safe radius (min of the radii certified by the
monotonicity and ratio conditions) inside which the origin is the only
singularity the dynamics can reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._brent import brentq
from .tables import ConvergenceTable, aitken_limit, is_decreasing

#: tolerance for the slow-variation sup at the finest lambda
SLOW_VARIATION_TOL = 0.25
#: tolerance below which x^2 V(x) counts as vanishing at the finest grid point
WEAK_SINGULARITY_TOL = 1e-4


@dataclass(frozen=True)
class PotentialSpec:
    """A radial potential with analytic first and second derivatives.

    value, deriv, deriv2 must accept floats and numpy arrays, be finite for
    every x > 0, and are never evaluated at x <= 0 by this package except
    where a +inf limit is explicitly expected (weak singularities).
    """

    name: str
    value: Callable
    deriv: Callable
    deriv2: Callable

    def __repr__(self) -> str:  # keep reprs short: callables are noise
        return f"PotentialSpec({self.name!r})"


def _neg_log(x):
    """-log x: `math.log` on a Python float, so the radicand's nodes stay in
    float arithmetic; `np.log` on arrays and numpy scalars."""
    return -math.log(x) if type(x) is float else -np.log(x)


def logarithmic() -> PotentialSpec:
    return PotentialSpec(
        name="logarithmic",
        value=_neg_log,
        deriv=lambda x: -1.0 / x,
        deriv2=lambda x: 1.0 / (x * x),
    )


def homogeneous(alpha: float) -> PotentialSpec:
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be a positive finite number, got {alpha!r}")
    a = float(alpha)
    return PotentialSpec(
        name=f"homogeneous(alpha={a:g})",
        value=lambda x: x ** (-a),
        deriv=lambda x: -a * x ** (-a - 1.0),
        deriv2=lambda x: a * (a + 1.0) * x ** (-a - 2.0),
    )


def from_config(cfg: dict) -> PotentialSpec:
    """Build a potential from a configuration mapping.

    ``{"family": "logarithmic"}`` or ``{"family": "homogeneous", "alpha": 0.5}``.
    """
    family = cfg.get("family")
    if family == "logarithmic":
        return logarithmic()
    if family == "homogeneous":
        return homogeneous(float(cfg["alpha"]))
    raise ValueError(f"unknown potential family: {family!r}")


@dataclass(frozen=True)
class SmoothedPotential:
    """V_eps(x) = V(sqrt(x^2 + eps^2)); eps = 0 reproduces the base on x > 0."""

    base: PotentialSpec
    epsilon: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")

    def value(self, x):
        """V_eps(x) for x >= 0 (x > 0 required when eps = 0)."""
        self._check_domain(x)
        return self.base.value(np.hypot(x, self.epsilon))

    def _check_domain(self, x) -> None:
        if self.epsilon == 0.0 and (x == 0.0 if type(x) is float
                                    else np.any(np.asarray(x) == 0.0)):
            raise ValueError("x = 0 requires eps > 0")

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """grad V_eps(|u|) at a plane point u; smooth at u = 0 when eps > 0.

        Uses grad = V'(h) * u / h with h = sqrt(|u|^2 + eps^2), which avoids
        dividing by |u|.
        """
        r = math.hypot(u[0], u[1])
        if self.epsilon == 0.0 and r == 0.0:
            raise ValueError("gradient at the singularity requires eps > 0")
        h = math.hypot(r, self.epsilon)
        scale = self.base.deriv(h) / h
        return np.array([scale * u[0], scale * u[1]])


@dataclass(frozen=True)
class ClassReport:
    """Outcome of the numerical class certification of a potential.

    monotone_radius: largest grid radius below which V' < 0 < V'' and V'/V''
        is decreasing (+inf when the whole grid passes).
    ratio_radius: largest x with V'/V'' <= -x/2 on (0, x) (+inf when no sign
        change is found up to the scan cap).
    safe_radius: min(monotone_radius, ratio_radius).
    slowly_varying: the verdict of `check_slowly_varying`, None when it is
        inconclusive; False for a potential that is not admissible.
    witness: (property name, x) for the first violated property, if any.
    """

    admissible: bool
    weak_singularity: bool
    monotone_radius: float
    ratio_radius: float
    safe_radius: float
    slope_at_origin: float
    slowly_varying: bool | None
    witness: tuple[str, float] | None = None
    notes: tuple[str, ...] = ()


def default_probe_grid() -> np.ndarray:
    """Geometric grid of 512 points from 10 down to 1e-8, strictly decreasing
    toward 0 as the checks expect."""
    return np.geomspace(10.0, 1e-8, 512)


def _slope_at_origin(p: PotentialSpec, xs: np.ndarray) -> tuple[float, float]:
    """One-sided limit of d/dx [V'/V''] at 0.

    Central differences with step proportional to x on the finest grid points,
    then Aitken extrapolation of the sequence toward x -> 0.  Returns
    (slope estimate, error estimate).
    """
    def h(x):
        return p.deriv(x) / p.deriv2(x)

    q = 0.5
    pts = np.sort(xs)[:6][::-1]  # six finest points, decreasing
    slopes = [(h(x * (1 + q)) - h(x * (1 - q))) / (2 * q * x) for x in pts]
    est = aitken_limit(slopes)
    err = abs(slopes[-1] - slopes[-2]) + abs(est - slopes[-1])
    return float(est), float(err)


def classify(p: PotentialSpec) -> ClassReport:
    """Full classification of a potential on the probe grid: admissibility,
    weak singularity and slow variation.

    Checks, in order: blow-up of V at 0 (monotone increase toward 0 beyond a
    threshold index), V' < 0 and V'' > 0, V'/V'' decreasing, and the one-sided
    slope of V'/V'' at 0 strictly below -1/2.  Estimates the monotonicity and
    ratio radii and their min.  Slow variation is only claimed within the
    admissible class: `check_slowly_varying` runs for an admissible
    potential, and any other reads False.  Reports a witness instead of
    raising on well-defined potentials.
    """
    grid = default_probe_grid()
    vals = p.value(grid)
    d1 = p.deriv(grid)
    d2 = p.deriv2(grid)
    finite = np.isfinite(vals) & np.isfinite(d1) & np.isfinite(d2)
    if not finite.all():
        # the witness is the largest grid point where V, V' or V'' is not finite
        return ClassReport(False, False, 0.0, 0.0, 0.0, math.nan, False,
                           witness=("finite", float(grid[~finite][0])),
                           notes=("non-finite values on grid",))

    notes: list[str] = []
    witness = None

    # (i) V -> +inf toward 0: the values must be increasing along the grid
    # (x decreasing) from some index on.  A finite grid cannot certify the
    # limit itself; we require the monotone tail to cover the finest decade.
    incr = np.diff(vals) > 0
    if not incr[-1] or not np.all(incr[len(incr) // 2:]):
        blowup_ok = False
        bad = np.where(~incr)[0]
        witness = ("blowup", float(grid[bad[-1]]))
    else:
        blowup_ok = True

    # (ii)+(iii) on the grid; scan from the finest point upward to find the
    # largest radius below which everything holds.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = d1 / d2
    ok_ii = (d1 < 0) & (d2 > 0)
    ok_iii = np.empty_like(ok_ii)
    ok_iii[:-1] = ratio[:-1] < ratio[1:]  # x decreasing: V'/V'' must increase along the array
    ok_iii[-1] = True
    ok = ok_ii & ok_iii
    if ok.all():
        monotone_radius = math.inf
    else:
        last_bad = int(np.where(~ok)[0][-1])
        if last_bad == len(grid) - 1:
            monotone_radius = 0.0
            if witness is None:
                prop = "monotonicity" if not ok_ii[last_bad] else "ratio-decreasing"
                witness = (prop, float(grid[last_bad]))
        else:
            monotone_radius = float(grid[last_bad + 1])

    # (iv) one-sided slope of V'/V'' at 0
    if monotone_radius > 0.0:
        slope, slope_err = _slope_at_origin(p, grid)
        margin = max(3.0 * slope_err, 1e-10)
        slope_ok = slope < -0.5 - margin
        if not slope_ok:
            if abs(slope + 0.5) <= margin:
                notes.append("slope at 0 indistinguishable from -1/2 (inconclusive)")
            if witness is None:
                witness = ("slope", float(grid[-1]))
    else:
        slope, slope_ok = math.nan, False

    admissible = blowup_ok and monotone_radius > 0.0 and slope_ok

    # ratio radius: first sign change of g(x) = V'/V'' + x/2, by bracket
    # doubling and bisection; +inf when g < 0 all the way to the scan cap 1e6.
    ratio_radius = 0.0
    if admissible:
        def g(x):
            return p.deriv(x) / p.deriv2(x) + 0.5 * x

        x = float(grid[-1])
        if g(x) >= 0:
            ratio_radius = 0.0
            admissible = False
            witness = witness or ("ratio-bound", x)
        else:
            ratio_radius = math.inf
            while x < 1e6:
                x_next = 2.0 * x
                if g(x_next) >= 0:
                    ratio_radius = brentq(g, x, x_next, xtol=1e-12, rtol=8.9e-16)
                    break
                x = x_next

    safe_radius = min(monotone_radius, ratio_radius) if admissible else 0.0
    weak = weak_singularity_check(p)
    return ClassReport(
        admissible=admissible,
        weak_singularity=weak,
        monotone_radius=monotone_radius,
        ratio_radius=ratio_radius,
        safe_radius=safe_radius,
        slope_at_origin=slope,
        slowly_varying=check_slowly_varying(p)[0] if admissible else False,
        witness=witness,
        notes=tuple(notes),
    )


def weak_singularity_check(p: PotentialSpec) -> bool:
    """True iff x^2 V(x) decreases below WEAK_SINGULARITY_TOL along the probe
    grid toward 0.

    This is a finite certificate: potentials whose x^2 V decays slower than
    the grid reaches (e.g. x^0.1) are reported False.
    """
    grid = default_probe_grid()
    vals = np.abs(grid * grid * p.value(grid))
    tail = vals[len(vals) // 2:]
    return bool(is_decreasing(tail, slack=1e-15) and tail[-1] < WEAK_SINGULARITY_TOL)


def check_slowly_varying(p: PotentialSpec) -> tuple[bool | None, ConvergenceTable]:
    """Check sup_{x in [1,10]} |V(lam x)/V(lam) - 1| -> 0 along the schedule
    lam = 1e-1, 1e-2, ..., 1e-8 (the sup taken on 256 geometric points).

    Returns (verdict, table).  Verdict True when the sup is decreasing along
    the schedule and below SLOW_VARIATION_TOL at the finest lam; False when
    it clearly is not; None (inconclusive) when the sequence is non-monotone
    within noise but still small.
    """
    xs = np.geomspace(1.0, 10.0, 256)
    table = ConvergenceTable(("lam", "sup_dev"),
                             meta={"quantity": "sup |V(lam x)/V(lam) - 1|"})
    sups = []
    for lam in 10.0 ** -np.arange(1, 9, dtype=float):
        ratio = p.value(lam * xs) / p.value(lam)
        sup = float(np.max(np.abs(ratio - 1.0)))
        sups.append(sup)
        table.add(float(lam), sup)

    decreasing = all(b < a - 1e-12 for a, b in zip(sups, sups[1:]))
    tiny = all(s <= 1e-12 for s in sups)
    if tiny:
        verdict: bool | None = True
    elif decreasing and sups[-1] < SLOW_VARIATION_TOL:
        verdict = True
    elif is_decreasing(sups, slack=1e-9) and sups[-1] < SLOW_VARIATION_TOL:
        verdict = None  # monotone only within noise: inconclusive
    else:
        verdict = False
    table.meta["verdict"] = verdict
    return verdict, table
