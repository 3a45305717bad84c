"""Adaptive quadrature for integrands with inverse-square-root endpoint zeros.

All the singular integrals in this package (apsidal angles, flight times,
the fall to the centre) go through one engine and have the form

    integral_a^b  g(r) / sqrt(w(r)) dr

where the radicand w is positive inside (a, b) and has a simple zero at one or
both endpoints (turning points of the radial motion), or a double zero at
a = 0 where g vanishes like r (the radial fall, w = 2 r^2 (E + V), g = r).
The substitution r = a + s^2 (resp. r = b - t^2) turns the endpoint behaviour
into a smooth integrand, which is then fed to adaptive Gauss-Kronrod
quadrature (QUADPACK's `dqagse`, ported in `_quadpack`); the fall's lower
leg becomes 2 s / sqrt(2 (E + V(s^2))).

Evaluating w near its zero by subtraction is noisy; the engine therefore works
with the *reduced weight*

    omega(r) = w(r) / ((r - a)^[lower] (b - r)^[upper])

which extends continuously to the endpoints.  Callers that know a closed
smooth form for omega can pass it (`reduced`) and get machine-precision
results even on nearly degenerate intervals; otherwise omega is built from w
with a guard that never divides by an offset below the floating-point noise
floor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from ._quadpack import qagse

_EPS = sys.float_info.epsilon

#: relative tolerance of all singular quadratures
DEFAULT_TOL = 1e-10
#: most subintervals of one adaptive quadrature
_LIMIT = 200


class QuadratureError(RuntimeError):
    pass


def _leg(fn: Callable, lo: float, hi: float) -> tuple[float, float]:
    """(value, error estimate) of integral_lo^hi fn to DEFAULT_TOL.

    Near machine precision QUADPACK may report (ier) that roundoff stops it
    short of the requested tolerance; the returned error estimate is still
    trustworthy, so the caller judges by it and ier is dropped.  The values
    are floats even where fn returns numpy scalars.
    """
    value, error, _, _ = qagse(fn, lo, hi, 0.0, DEFAULT_TOL, _LIMIT)
    return float(value), float(error)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float          # quadrature error estimate (sum over legs)
    lower_part: float     # contribution of [a, split]
    upper_part: float     # contribution of [split, b]


def sqrt_endpoint_quad(g: Callable, a: float, b: float, w: Callable, *,
                       lower_singular: bool = True, upper_singular: bool = True,
                       reduced: Callable | None = None) -> QuadResult:
    """integral_a^b g(r)/sqrt(w(r)) dr with simple w-zeros at flagged endpoints,
    to relative tolerance DEFAULT_TOL.

    The interval is split at the geometric mean of the endpoints when a > 0
    (which resolves the multi-scale structure of near-collision integrals,
    whether or not the lower end is a turning point), else at the midpoint.
    reduced: optional smooth omega(r) = w(r)/((r-a)^La (b-r)^Lb).
    Both ends must be finite: QUADPACK's `dqagse` integrates over a finite
    interval, so an unbounded orbit needs a finite cutoff.
    """
    if not (b > a):
        raise ValueError("need b > a")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise QuadratureError(
            f"infinite interval [{a!r}, {b!r}]: the quadrature needs finite ends")
    span = b - a
    guard = 64.0 * _EPS * max(abs(a), abs(b), 1e-300)
    La = 1 if lower_singular else 0
    Lb = 1 if upper_singular else 0

    # The legs compute the reduced weight at a node's first offsets inline,
    # which saves a Python call per node; a node whose value there is not
    # positive and finite continues in backed_off.
    def backed_off(dl: float, du: float, r: float) -> float:
        """omega after the offsets (dl, du) gave rounding noise at the zero:
        back the offsets away by 4x, at most 8 offsets in all."""
        for _ in range(7):
            dl *= 4.0
            du *= 4.0
            val = w(a + dl if La else b - du)
            if La:
                val /= dl
            if Lb:
                val /= du
            if 0.0 < val < math.inf:
                return val
        raise QuadratureError(
            f"radicand not positive near r={r!r} (interval [{a!r}, {b!r}])")

    def leg_lower(s: float) -> float:
        d = s * s
        e = span - d
        if reduced is not None:
            om = reduced(a + d)
        else:
            dl = d if d > guard else guard
            du = e if e > guard else guard
            om = w(a + dl) / dl
            if Lb:
                om /= du
            if not 0.0 < om < math.inf:
                om = backed_off(dl, du, a + d)
        rad = om * e if Lb else om
        return 2.0 * g(a + d) / math.sqrt(rad)

    def leg_upper(t: float) -> float:
        d = t * t
        e = span - d
        if reduced is not None:
            om = reduced(a + e)
        else:
            dl = e if e > guard else guard
            du = d if d > guard else guard
            om = w(a + dl if La else b - du)
            if La:
                om /= dl
            om /= du
            if not 0.0 < om < math.inf:
                om = backed_off(dl, du, a + e)
        rad = om * e if La else om
        return 2.0 * g(b - d) / math.sqrt(rad)

    def leg_plain(r: float) -> float:
        val = w(r)
        if val <= 0.0:
            raise QuadratureError(f"radicand negative at r={r!r} inside [{a!r}, {b!r}]")
        return g(r) / math.sqrt(val)

    split = math.sqrt(a * b) if a > 0 else 0.5 * (a + b)
    if La:
        I1, e1 = _leg(leg_lower, 0.0, math.sqrt(split - a))
    else:
        I1, e1 = _leg(leg_plain, a, split)
    if Lb:
        I2, e2 = _leg(leg_upper, 0.0, math.sqrt(b - split))
    else:
        I2, e2 = _leg(leg_plain, split, b)
    value = I1 + I2
    err = e1 + e2
    if not math.isfinite(value) or err > 1e4 * DEFAULT_TOL * max(abs(value), 1e-12):
        raise QuadratureError(
            f"quadrature did not converge on [{a!r}, {b!r}]: value {value!r}, "
            f"error estimate {err!r}")
    return QuadResult(value, err, I1, I2)

