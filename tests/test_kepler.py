"""A truth for the eps = 0 Kepler flow that does not come from the integrator.

For `homogeneous(1)`, V(r) = 1/r, every unsmoothed orbit with l != 0 is a
conic, and its state at any T follows from Kepler's equation.
`kepler_state` solves it in universal variables (J. M. A. Danby,
*Fundamentals of Celestial Mechanics*, 2nd ed., 1988, Sec. 6.9) at 60
digits, so an orbit with e -> 1, the small-l regime of the lab, loses no
digit that the comparison sees.
"""

import math

import numpy as np
import pytest

from onecentre.flow import extended_flow
from onecentre.potentials import homogeneous
from onecentre.radial import DropFromRest, case_anchor, fall_time
from onecentre.simulator import Perturbation, PhaseState, make_initial_data

mpmath = pytest.importorskip("mpmath")

KEPLER = homogeneous(1.0)
#: the Kepler drop from rest at r = 1, E = -1
DROP = case_anchor(DropFromRest(-1.0), KEPLER)
DIGITS = 60


def _stumpff(z):
    """Stumpff's c2(z) and c3(z): their series near 0, where the closed
    forms cancel, else the closed forms."""
    if abs(z) < 1:
        c2 = c3 = mpmath.mpf(0)
        k, power = 0, mpmath.mpf(1)       # power = (-z)^k
        while abs(power) > mpmath.eps:
            c2 += power / mpmath.factorial(2 * k + 2)
            c3 += power / mpmath.factorial(2 * k + 3)
            k, power = k + 1, -z * power
        return c2, c3
    if z > 0:
        s = mpmath.sqrt(z)
        return (1 - mpmath.cos(s)) / z, (s - mpmath.sin(s)) / s ** 3
    s = mpmath.sqrt(-z)
    return (mpmath.cosh(s) - 1) / -z, (mpmath.sinh(s) - s) / s ** 3


def kepler_state(state: PhaseState, T: float) -> np.ndarray:
    """(x, y, vx, vy) at time T >= 0 of the eps = 0 `homogeneous(1)` orbit
    from `state` (mu = 1, E = v^2/2 - 1/r), any energy, from the exact
    floats of the datum.  The universal anomaly chi solves

        T = sigma0 chi^2 c2 + (1 - alpha r0) chi^3 c3 + r0 chi,

    z = alpha chi^2, alpha = 2/r0 - v0^2 = -2E and sigma0 = x0 . v0; its
    right side increases with chi at the rate r(chi) >= 0, so a doubled
    bracket holds the root.  The state is f x0 + g v0, fdot x0 + gdot v0.
    """
    with mpmath.workdps(DIGITS):
        x0, y0 = (mpmath.mpf(float(c)) for c in state.position)
        vx0, vy0 = (mpmath.mpf(float(c)) for c in state.velocity)
        T = mpmath.mpf(T)
        r0 = mpmath.sqrt(x0 * x0 + y0 * y0)
        sigma0 = x0 * vx0 + y0 * vy0
        alpha = 2 / r0 - (vx0 * vx0 + vy0 * vy0)

        def parts(chi):
            c2, c3 = _stumpff(alpha * chi * chi)
            time = sigma0 * chi ** 2 * c2 + (1 - alpha * r0) * chi ** 3 * c3 + r0 * chi
            r = chi ** 2 * c2 + sigma0 * chi * (1 - alpha * chi ** 2 * c3) \
                + r0 * (1 - alpha * chi ** 2 * c2)
            return time, r, c2, c3

        hi = T / r0
        while parts(hi)[0] < T:
            hi *= 2
        chi = mpmath.findroot(lambda c: parts(c)[0] - T, (0, hi), solver="anderson")
        _, r, c2, c3 = parts(chi)
        f, g = 1 - chi ** 2 / r0 * c2, T - chi ** 3 * c3
        fdot, gdot = chi * (alpha * chi ** 2 * c3 - 1) / (r * r0), 1 - chi ** 2 / r * c2
        return np.array([float(f * x0 + g * vx0), float(f * y0 + g * vy0),
                         float(fdot * x0 + gdot * vx0), float(fdot * y0 + gdot * vy0)])


def _invariants(s):
    x, y, vx, vy = s
    return 0.5 * (vx * vx + vy * vy) - 1.0 / math.hypot(x, y), x * vy - y * vx


@pytest.mark.parametrize("l", [1e-2, 1e-3, 10 ** -3.5, 1e-100])
def test_kepler_state_closes_its_period_and_keeps_its_invariants(l):
    # the helper's own checks, with no integrator: at T = 0 the datum, after
    # one period 2 pi a^(3/2), a = 1 / (2|E|), the datum again, and E and l
    # conserved at every T read
    y0 = make_initial_data(DROP, Perturbation(l=l))
    v0 = y0.as_vector()
    assert np.array_equal(kepler_state(y0, 0.0), v0)
    E, l0 = _invariants(v0)
    period = 2.0 * math.pi * (-2.0 * E) ** -1.5
    assert np.max(np.abs(kepler_state(y0, period) - v0)) <= 1e-13
    for T in (0.3, 1.1, 1.7, 5.0):
        E_T, l_T = _invariants(kepler_state(y0, T))
        assert abs(E_T - E) <= 1e-13 and abs(l_T - l0) <= 1e-14 * l


@pytest.mark.parametrize("l", [1e-2, 1e-3, 10 ** -3.5])
def test_extended_flow_meets_the_kepler_closed_form(l):
    # the Kepler drop at E = -1, perturbed by l across the radius, read at
    # 1.5 T0, past its pericentre: the flow's integrated leg and its apsidal
    # mirror against the conic (measured: 4.2e-13 to 5.9e-13)
    T = 1.5 * fall_time(DROP)
    y0 = make_initial_data(DROP, Perturbation(l=l))
    got = extended_flow(y0, 0.0, KEPLER, T).state_at(T).as_vector()
    assert np.linalg.norm(got - kepler_state(y0, T)) <= 1e-11
