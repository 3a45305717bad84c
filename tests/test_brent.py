"""`_brent.brentq` and `_brent.minimize_bounded` against scipy, bit for bit."""

import math

import numpy as np
import pytest

from onecentre import _brent, radial
from onecentre.potentials import SmoothedPotential, homogeneous, logarithmic
from onecentre.radial import RadialProblem, turning_points

optimize = pytest.importorskip("scipy.optimize")

#: brentq targets: a root near c, of different shapes
ROOT_FUNCTIONS = [
    lambda c: (lambda x: x - c),
    lambda c: (lambda x: math.copysign(abs(x - c) ** 3, x - c)),
    lambda c: (lambda x: math.tanh(5.0 * (x - c)) + 1e-3),
    lambda c: (lambda x: math.exp(x) - math.exp(c)),
    lambda c: (lambda x: (x - c) ** 3 - 2.0 * (x - c) + 0.1),
    lambda c: (lambda x: np.float64(x - c) ** 3),   # a numpy-scalar function
]
#: (xtol, rtol) of the call sites, scipy's defaults and a loose pair
ROOT_TOLERANCES = [(1e-15, 8.9e-16), (1e-12, 8.9e-16),
                   (4 * np.finfo(float).eps, 4 * np.finfo(float).eps),
                   (2e-12, 4 * np.finfo(float).eps), (1e-3, 1e-10)]


def outcome(call):
    """The root as a float, or the exception's type and message."""
    try:
        return float(call())
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def test_brentq_equals_scipy():
    rng = np.random.default_rng(3)
    kinds = set()
    for _ in range(600):
        f = ROOT_FUNCTIONS[rng.integers(len(ROOT_FUNCTIONS))](rng.uniform(-3.0, 3.0))
        a, b = rng.uniform(-5.0, 0.0), rng.uniform(0.0, 5.0)
        xtol, rtol = ROOT_TOLERANCES[rng.integers(len(ROOT_TOLERANCES))]
        maxiter = int(rng.choice([100, 10, 3]))
        got = outcome(lambda: _brent.brentq(f, a, b, xtol, rtol, maxiter))
        want = outcome(lambda: optimize.brentq(f, a, b, xtol=xtol, rtol=rtol,
                                               maxiter=maxiter))
        assert got == want, (a, b, xtol, rtol, maxiter)
        kinds.add(type(got) if isinstance(got, float) else got[0])
    assert kinds == {float, ValueError, RuntimeError}


@pytest.mark.parametrize("f, a, b, xtol, rtol", [
    (lambda x: x * x + 1.0, -1.0, 2.0, 1e-12, 8.9e-16),        # no sign change
    (lambda x: math.nan if x > 0.2 else -1.0, 0.0, 1.0, 1e-12, 8.9e-16),
    (lambda x: x, -1.0, 2.0, 0.0, 8.9e-16),                     # xtol <= 0
    (lambda x: x, -1.0, 2.0, 1e-12, 1e-16),                     # rtol too small
    (lambda x: x - 0.3, -1.0, 2.0, 1e-300, 4 * np.finfo(float).eps),
    (lambda x: x, 0.0, 1.0, 1e-12, 8.9e-16),                    # f(a) = 0
], ids=["same-sign", "nan", "xtol", "rtol", "tiny-xtol", "root-at-a"])
def test_brentq_edge_cases_equal_scipy(f, a, b, xtol, rtol):
    assert outcome(lambda: _brent.brentq(f, a, b, xtol, rtol)) == \
        outcome(lambda: optimize.brentq(f, a, b, xtol=xtol, rtol=rtol))


def test_brentq_messages_are_scipys():
    assert outcome(lambda: _brent.brentq(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12, 8.9e-16)) \
        == (ValueError, "f(a) and f(b) must have different signs")
    assert outcome(lambda: _brent.brentq(lambda x: x ** 3 - 0.1, -1.0, 2.0, 1e-15, 8.9e-16, 2)) \
        == (RuntimeError, "Failed to converge after 2 iterations.")


@pytest.mark.parametrize("k", [80, 90, 100, 110, 120, 130, 140, 150])
def test_brentq_underflowed_extrapolation_equals_scipy(k):
    # near r = s the radicand's differences underflow, so the extrapolation's
    # denominator is 0: brentq.c bisects (a root at s <= 1e-100, then
    # non-convergence from 1e-110 on), where a Python division would raise
    s = 10.0 ** -k
    sm = SmoothedPotential(logarithmic(), s)
    w = RadialProblem(sm, 0.5 * s * s - sm.value(1.0), s).radicand
    got = outcome(lambda: _brent.brentq(w, 1e-3 * s, s, 1e-300, 8.9e-16))
    assert got == outcome(lambda: optimize.brentq(w, 1e-3 * s, s, xtol=1e-300, rtol=8.9e-16))
    assert isinstance(got, float) == (k <= 100)


def test_minimize_bounded_equals_scipy():
    rng = np.random.default_rng(4)
    shapes = [
        lambda c, p: (lambda x: (x - c) ** 2),
        lambda c, p: (lambda x: abs(x - c) ** p),
        lambda c, p: (lambda x: -p * math.exp(-(x - c) ** 2)),
        lambda c, p: (lambda x: math.sin(p * x)),
        lambda c, p: (lambda x: x * x * x - p * x),
    ]
    for _ in range(400):
        f = shapes[rng.integers(len(shapes))](rng.uniform(-3.0, 3.0), rng.uniform(0.5, 4.0))
        lo = rng.uniform(-4.0, 0.0)
        hi = lo + float(rng.choice([rng.uniform(1e-9, 6.0), 1e-3]))
        xatol = float(rng.choice([1e-14, 1e-10, 1e-5]))
        res = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                       options={"xatol": xatol})
        assert _brent.minimize_bounded(f, lo, hi, xatol) == (float(res.x), float(res.fun))


def test_minimize_bounded_stops_at_maxiter_like_scipy():
    f = lambda x: math.sin(3.0 * x)  # noqa: E731
    res = optimize.minimize_scalar(f, bounds=(-2.0, 2.0), method="bounded",
                                   options={"xatol": 1e-14, "maxiter": 4})
    assert _brent.minimize_bounded(f, -2.0, 2.0, 1e-14, maxiter=4) == \
        (float(res.x), float(res.fun))


@pytest.mark.parametrize("spec, E, l, eps", [
    (logarithmic(), 0.0, 1e-3, 1e-3),
    (logarithmic(), 0.0, 1e-6, 1e-6),
    (logarithmic(), -1.0, 0.2, 0.0),
    (homogeneous(0.5), -1.0, 1e-3, 1e-3),
    (homogeneous(1.0), -0.4, 0.9, 0.0),
], ids=["log-3", "log-6", "log-bare", "hom-3", "kepler"])
def test_turning_points_replay_bitwise(monkeypatch, spec, E, l, eps):
    # every root and peak search of the engine, with scipy's solvers on the
    # same function, bracket and options
    calls = []

    def root(f, a, b, xtol, rtol, maxiter=100):
        got = _brent.brentq(f, a, b, xtol, rtol, maxiter)
        assert got == optimize.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
        calls.append("root")
        return got

    def peak(func, lower, upper, xatol):
        got = _brent.minimize_bounded(func, lower, upper, xatol)
        res = optimize.minimize_scalar(func, bounds=(lower, upper), method="bounded",
                                       options={"xatol": xatol})
        assert got == (float(res.x), float(res.fun))
        calls.append("peak")
        return got

    monkeypatch.setattr(radial, "brentq", root)
    monkeypatch.setattr(radial, "minimize_bounded", peak)
    turning_points(RadialProblem(SmoothedPotential(spec, eps), E, l))
    assert "root" in calls and "peak" in calls
