"""Brent's root finder and bounded minimiser, over Python floats.

Both follow R. P. Brent, *Algorithms for Minimization without Derivatives*
(1973), in the form scipy implements them:

- `brentq` is scipy's `Zeros/brentq.c` (inverse quadratic interpolation
  with bisection safeguards) with the checks of `scipy.optimize.brentq`:
  the same tolerance checks, the same NaN error and the same messages.
- `minimize_bounded` is `_minimize_scalar_bounded` of
  `scipy/optimize/_optimize.py` (golden section with parabolic steps), the
  method behind `minimize_scalar(method="bounded")`, with `math` where scipy
  uses numpy scalar ufuncs.

Each keeps scipy's operation order, so tests/test_brent.py finds the same
roots, exceptions and minima bitwise.
"""

from __future__ import annotations

import math

#: smallest rtol brentq accepts: 4 ulp(1)
RTOL_MIN = 4 * 2.220446049250313e-16
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, to within
    xtol + rtol |x| (scipy's `brentq`).

    Raises ValueError for a bracket without a sign change or a NaN value of
    f, RuntimeError after maxiter iterations without convergence.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL_MIN:g})")

    def call(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre
            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # brentq.c divides by an underflowed 0 to +-inf or nan, which
                # fails the step test below: the step is a bisection
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _sign_or_one(v: float) -> float:
    """numpy's sign(v) + (v == 0)."""
    return -1.0 if v < 0.0 else 1.0


def minimize_bounded(func, lower: float, upper: float, xatol: float,
                     maxiter: int = 500) -> tuple[float, float]:
    """(x, func(x)) at a local minimum of func on [lower, upper], to the
    absolute tolerance xatol (scipy's bounded `minimize_scalar`)."""
    if lower > upper:
        raise ValueError("The lower bound exceeds the upper bound.")
    a, b = float(lower), float(upper)
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # parabolic fit
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign_or_one(xm - xf)
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN_MEAN * e

        x = xf + _sign_or_one(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxiter:
            break
    return xf, fx
