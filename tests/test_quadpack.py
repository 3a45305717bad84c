"""`_quadpack.qagse` against `scipy.integrate.quad`, bit for bit.

qagse takes a panel function, which receives the 21 abscissae of a Kronrod
panel at once; quad takes a scalar integrand.  `_panel` turns the scalar
integrands below into panel functions.
"""

import math
import warnings

import pytest

from onecentre import quadrature
from onecentre._quadpack import LIMIT, qagse
from onecentre.apsidal import _sweep_cell
from onecentre.potentials import homogeneous, logarithmic
from onecentre.radial import DropFromRest, case_anchor, fall_time

integrate = pytest.importorskip("scipy.integrate")

#: quad's message for each ier from 1 to 5 (full_output=1 returns the
#: message in place of ier)
_MESSAGES = {
    "The maximum number of subdivisions": 1,
    "The occurrence of roundoff error": 2,
    "Extremely bad integrand behavior": 3,
    "The algorithm does not converge": 4,
    "The integral is probably divergent": 5,
}

#: name -> (f, a, b): smooth, endpoint-singular, logarithmic, peaked, step
#: and interior-singular integrands
INTEGRANDS = {
    "gauss": (lambda x: math.exp(-3.0 * x * x), -1.0, 2.0),
    "cubic": (lambda x: x ** 3 - 2.0 * x, 0.0, 1.5),
    "oscillating": (lambda x: math.sin(40.0 * x) * math.exp(-x), 0.0, 3.0),
    "inverse-sqrt": (lambda x: 1.0 / math.sqrt(x) if x > 0 else 0.0, 0.0, 1.0),
    "inverse-power-0.9": (lambda x: x ** -0.9 if x > 0 else 0.0, 0.0, 1.0),
    "log": (lambda x: math.log(x) if x > 0 else 0.0, 0.0, 1.0),
    "log-over-sqrt": (lambda x: math.log(x) / math.sqrt(x) if x > 0 else 0.0, 0.0, 1.0),
    "peak": (lambda x: 1.0 / (1e-6 + (x - 0.3) ** 2), 0.0, 1.0),
    "step": (lambda x: 1.0 if x > 1.0 / 3.0 else 0.0, 0.0, 1.0),
    "interior-power": (lambda x: abs(x) ** -0.94 if x else 0.0, -1.0, 3.75),
    "interior-pole": (lambda x: 1.0 / (x - 0.3) if x != 0.3 else 0.0, 0.0, 1.0),
    "interior-abs-pole": (lambda x: 1.0 / abs(x - 1.0 / 3.0) if x != 1.0 / 3.0 else 0.0,
                          0.0, 1.0),
    "sin-inverse": (lambda x: math.sin(1.0 / x) if x > 0 else 0.0, 0.0, 1.0),
}
#: relative tolerances: the engine's request, quad's default, a tight one
EPSRELS = (1e-10, 1.49e-8, 1e-13)


def _panel(f):
    """The panel function of a scalar integrand f."""
    return lambda xs: [f(x) for x in xs]


def scipy_qagse(f, a, b, epsrel):
    """(result, abserr, neval, ier) of scipy's quad on [a, b], with qagse's
    zero absolute tolerance and `LIMIT`."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(f, a, b, full_output=1, epsabs=0.0,
                             epsrel=epsrel, limit=LIMIT)
    if len(out) == 3:
        ier = 0
    else:
        ier = next(code for prefix, code in _MESSAGES.items()
                   if out[3].startswith(prefix))
    return out[0], out[1], out[2]["neval"], ier


@pytest.mark.parametrize("name", list(INTEGRANDS))
def test_qagse_equals_quad(name):
    f, a, b = INTEGRANDS[name]
    for epsrel in EPSRELS:
        assert qagse(_panel(f), a, b, epsrel) == scipy_qagse(f, a, b, epsrel)[:2], epsrel


@pytest.mark.parametrize("name", list(INTEGRANDS))
def test_panels_hold_the_points_quad_evaluates(name):
    # the abscissae of all panels of one run, joined, are the points quad
    # evaluates, in its order; each panel is 21 of them, and quad counts
    # them all
    f, a, b = INTEGRANDS[name]
    for epsrel in EPSRELS:
        panels, points = [], []

        def panel(xs):
            panels.append(xs)
            return [f(x) for x in xs]

        def scalar(x):
            points.append(x)
            return f(x)

        qagse(panel, a, b, epsrel)
        neval = scipy_qagse(scalar, a, b, epsrel)[2]
        assert [x for xs in panels for x in xs] == points, epsrel
        assert all(len(xs) == 21 for xs in panels)
        assert neval == 21 * len(panels)


def test_the_grid_reaches_every_ier():
    # qagse returns no ier, but takes every exit quad takes on the grid
    # above, so quad's ier says which exits the comparisons cover
    seen = {scipy_qagse(f, a, b, epsrel)[3]
            for f, a, b in INTEGRANDS.values() for epsrel in EPSRELS}
    assert seen == {0, 1, 2, 3, 4, 5}


def test_integrand_exception_propagates():
    def f(x):
        if x > 0.5:
            raise ZeroDivisionError("boom")
        return x

    with pytest.raises(ZeroDivisionError, match="boom"):
        qagse(_panel(f), 0.0, 1.0, 1e-10)


@pytest.mark.parametrize("spec, case, k", [
    (logarithmic(), DropFromRest(0.0), 2),
    (logarithmic(), DropFromRest(0.0), 3),
    (logarithmic(), DropFromRest(0.0), 6),
    (homogeneous(0.5), DropFromRest(-1.0), 3),
    (homogeneous(0.5), DropFromRest(-1.0), 6),
], ids=["log-2", "log-3", "log-6", "hom-3", "hom-6"])
def test_engine_legs_replay_bitwise(monkeypatch, spec, case, k):
    # every leg the engine integrates for the angle of the 40-digit reference
    # cells of tests/test_apsidal.py (and of the pinned homogeneous cells)
    # and for the case's fall time, against scipy's quad on the same
    # integrand, interval and tolerance; quad calls the leg's panel function
    # one node at a time
    legs = []

    def both(panel, a, b, epsrel):
        got = qagse(panel, a, b, epsrel)
        assert got == scipy_qagse(lambda x: panel((x,))[0], a, b, epsrel)[:2]
        legs.append(got)
        return got

    monkeypatch.setattr(quadrature, "qagse", both)
    anchor = case_anchor(case, spec)
    _sweep_cell(anchor, 10.0 ** -k, 10.0 ** -k)
    fall_time(anchor)
    assert len(legs) == 4  # the angle and the fall time, two legs each
