"""Adaptive quadrature of the radial problem's inverse-square-root integrals.

All the singular integrals in this package (apsidal angles, flight times,
the fall to the centre) go through one engine, which integrates an orbit's
`radial.RadialProblem` (V, E, eps, l):

    integral_a^b  num(r) / sqrt(w(r)) dr,   0 <= a < b,

with the radial radicand w(r) = 2 r^2 (E + V(sqrt(r^2 + eps^2))) - l^2 of
its base potential V, and the numerator num(r) = l / r for an apsidal angle
and num(r) = r for a flight time.  w is positive inside (a, b).  Its lower end
is a simple zero (a turning point of the radial motion) or the double zero
at a = 0, where num vanishes like r (the radial fall, l = 0); its upper end
is a simple zero or, as the caller states, a regular point.
The substitution r = a + s^2 (resp. r = b - t^2) turns the endpoint
behaviour into a smooth integrand, which is then fed to adaptive
Gauss-Kronrod quadrature (QUADPACK's `dqagse`, ported in `_quadpack`); the
fall's lower leg becomes 2 s / sqrt(2 (E + V(s^2))).

Evaluating w near its zero by subtraction is noisy; the engine therefore works
with the *reduced weight*

    omega(r) = w(r) / ((r - a) (b - r)^[upper])

which extends continuously to the endpoints.  It is built from w with a guard
that never divides by an offset below the floating-point noise floor.  A
caller that knows omega as a constant (the Kepler radicand of the
calibration) can state it, and then gets machine-precision results even on
nearly degenerate intervals.

`_quadpack` hands each leg a whole 21-node Kronrod panel at a time, and the
leg computes everything for a node in one loop: the substitution, the
radicand with its one call of V, the guarded reduced weight and the
numerator.  The orbit's `RadialProblem.terms` (V, and E, eps and l as
Python floats) are bound once per call, so every node is evaluated in float
arithmetic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ._quadpack import qagse

if TYPE_CHECKING:
    from .radial import RadialProblem

_EPS = sys.float_info.epsilon

#: relative tolerance of all singular quadratures
DEFAULT_TOL = 1e-10


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class PericentreIntegral:
    """An angle or flight time from the pericentre R- to beta, with its split
    and error."""

    value: float
    pericenter: float
    cutoff: float
    inner_part: float     # [R-, sqrt(R- * beta)], or [0, beta/2] for a fall
    outer_part: float     # [sqrt(R- * beta), beta], or [beta/2, beta]
    quad_error: float     # quadrature error estimate (sum over legs)


def sqrt_endpoint_quad(rp: RadialProblem, a: float, b: float, *, angle: bool,
                       upper_singular: bool, reduced: float | None = None) -> PericentreIntegral:
    """integral_a^b of num(r) / sqrt(w(r)) for the orbit rp, to relative
    tolerance DEFAULT_TOL, with num(r) = l / r when `angle`, else r.

    a is a zero of w, the orbit's pericentre (a turning point, or the
    centre of a fall), so the result is the `PericentreIntegral` from a to
    the cutoff b; b is a simple zero when `upper_singular`, else a regular
    point.  `reduced` is None, or the constant reduced weight omega of w on
    [a, b], which the singular legs then use in place of the guarded one.
    The interval is split at the geometric mean of the endpoints when a > 0
    (which resolves the multi-scale structure of near-collision integrals),
    else at the midpoint; the two parts are its inner and outer parts.
    Both ends must be finite: QUADPACK's `dqagse` integrates over a finite
    interval, so an unbounded orbit needs a finite cutoff.  With a >= 0
    the legs evaluate w only at r > 0, never at r = 0, where eps = 0 leaves
    V undefined.  A node whose reduced weight is not positive and finite
    raises QuadratureError.
    """
    if not 0.0 <= a < b:
        raise ValueError("need 0 <= a < b")
    if not math.isfinite(b):
        raise QuadratureError(
            f"infinite interval [{a!r}, {b!r}]: the quadrature needs finite ends")
    span = b - a
    guard = 64.0 * _EPS * max(b, 1e-300)
    V, energy, eps, l = rp.terms
    l2 = l * l
    hypot, sqrt, inf = math.hypot, math.sqrt, math.inf

    # Each leg maps a panel of abscissae to integrand values.  A node whose
    # reduced weight is not positive and finite ends the quadrature.
    def lower_leg(panel):
        values = []
        for s in panel:
            d = s * s
            e = span - d
            if reduced is None:
                dl = d if d > guard else guard
                du = e if e > guard else guard
                x = a + dl
                om = (2.0 * x * x * (energy + V(hypot(x, eps))) - l2) / dl
                if upper_singular:
                    om /= du
                if not 0.0 < om < inf:
                    raise QuadratureError(f"radicand not positive near r={a + d!r} "
                                          f"(interval [{a!r}, {b!r}])")
            else:
                om = reduced
            x = a + d
            values.append(2.0 * (l / x if angle else x) / sqrt(om * e if upper_singular else om))
        return values

    def upper_leg(panel):
        values = []
        for t in panel:
            d = t * t
            e = span - d
            if reduced is None:
                dl = e if e > guard else guard
                du = d if d > guard else guard
                x = a + dl
                om = (2.0 * x * x * (energy + V(hypot(x, eps))) - l2) / dl
                om /= du
                if not 0.0 < om < inf:
                    raise QuadratureError(f"radicand not positive near r={a + e!r} "
                                          f"(interval [{a!r}, {b!r}])")
            else:
                om = reduced
            x = b - d
            values.append(2.0 * (l / x if angle else x) / sqrt(om * e))
        return values

    def plain_leg(panel):
        values = []
        for x in panel:
            val = 2.0 * x * x * (energy + V(hypot(x, eps))) - l2
            if val <= 0.0:
                raise QuadratureError(f"radicand negative at r={x!r} inside [{a!r}, {b!r}]")
            values.append((l / x if angle else x) / sqrt(val))
        return values

    split = math.sqrt(a * b) if a > 0 else 0.5 * (a + b)
    I1, e1 = qagse(lower_leg, 0.0, math.sqrt(split - a), DEFAULT_TOL)
    if upper_singular:
        I2, e2 = qagse(upper_leg, 0.0, math.sqrt(b - split), DEFAULT_TOL)
    else:
        I2, e2 = qagse(plain_leg, split, b, DEFAULT_TOL)
    value = I1 + I2
    err = e1 + e2
    # judged by the error estimate, which stays trustworthy where roundoff
    # stopped QUADPACK short of DEFAULT_TOL
    if not math.isfinite(value) or err > 1e4 * DEFAULT_TOL * max(abs(value), 1e-12):
        raise QuadratureError(
            f"quadrature did not converge on [{a!r}, {b!r}]: value {value!r}, "
            f"error estimate {err!r}")
    return PericentreIntegral(value, a, b, I1, I2, err)
