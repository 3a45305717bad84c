import math

import numpy as np
import pytest

from onecentre import apsidal, radial
from onecentre.apsidal import apsidal_angle, convergence_sweep, default_paths
from onecentre.potentials import PotentialSpec, SmoothedPotential, homogeneous, logarithmic
from onecentre.quadrature import QuadratureError, sqrt_endpoint_quad
from onecentre.radial import (DropFromRest, RadialProblem, case_anchor, fall_time,
                              turning_points)


def _orbit(value, energy: float, l: float) -> RadialProblem:
    """The orbit (energy, l) in the test-local potential V = value,
    unsmoothed: the engine integrates num(r) / sqrt(2 r^2 (E + V(r)) - l^2)
    with num(r) = l / r (angle) or r."""
    spec = PotentialSpec("test", value, None, None)
    return RadialProblem(SmoothedPotential(spec, 0.0), energy, l)


def _time(value) -> RadialProblem:
    """The orbit at E = 0, l = 0, whose flight-time integrand is
    r / sqrt(2 r^2 V(r))."""
    return _orbit(value, 0.0, 0.0)


def _kepler(xi: float) -> RadialProblem:
    """The Kepler orbit V = k / r with l = 1 and apsides 1 and xi: its
    radicand is (r - 1)(1 - r/xi)."""
    k = 0.5 * (1.0 + xi) / xi
    return _orbit(lambda h: k / h, -0.5 / xi, 1.0)


def test_arcsine_integral_both_endpoints():
    # int_0^1 r dr/sqrt(r^3 (1-r)) = int_0^1 dr/sqrt(r(1-r)) = pi
    res = sqrt_endpoint_quad(_time(lambda h: 0.5 * h * (1.0 - h)), 0.0, 1.0,
                             angle=False, upper_singular=True)
    assert res.value == pytest.approx(math.pi, abs=1e-12)
    assert res.inner_part + res.outer_part == pytest.approx(res.value)


def test_shifted_arcsine_with_reduced_weight():
    # int_2^5 r dr/sqrt((r-2)(5-r)) = 7 pi / 2, reduced weight identically 1
    res = sqrt_endpoint_quad(_time(lambda h: 0.5 * (h - 2.0) * (5.0 - h) / (h * h)), 2.0, 5.0,
                             angle=False, upper_singular=True, reduced=1.0)
    assert res.value == pytest.approx(3.5 * math.pi, abs=1e-14)


@pytest.mark.parametrize("xi", [1.5, 2.0, 10.0, 1e6])
def test_calibration_pi_through_the_guarded_reduced_weight(xi):
    # the calibration integral without its closed-form reduced weight: omega
    # comes from the radicand, as for every apsidal angle and flight time
    res = sqrt_endpoint_quad(_kepler(xi), 1.0, xi, angle=True, upper_singular=True)
    assert res.value == pytest.approx(math.pi, rel=1e-10, abs=0.0)
    assert _hexes(res) == _CALIBRATION_GOLDEN[xi]


def test_one_sided_singularity():
    # int_0^1 r dr/sqrt(r^3) = 2
    res = sqrt_endpoint_quad(_time(lambda h: 0.5 * h), 0.0, 1.0, angle=False, upper_singular=False)
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_elliptic_oracle():
    # int_1^3 r dr / sqrt(r^2 (r-1)(3-r)(4-r)), which is
    # int_{-1}^{1} dx / sqrt((1-x^2)(2-x)) at x = r - 2, agrees with a
    # dense-midpoint oracle
    res = sqrt_endpoint_quad(_time(lambda h: 0.5 * (h - 1.0) * (3.0 - h) * (4.0 - h)),
                             1.0, 3.0, angle=False, upper_singular=True)

    # oracle: substitution x = -cos(phi) makes the integrand smooth; use a
    # very fine trapezoid on it
    phi = np.linspace(0.0, math.pi, 200001)
    x = -np.cos(phi)
    vals = 1.0 / np.sqrt(2.0 - x)
    oracle = np.trapezoid(vals, phi)
    assert res.value == pytest.approx(oracle, abs=1e-9)


def test_negative_radicand_rejected():
    # w = r^2 (1 - 2 r) turns negative beyond r = 1/2, inside the regular
    # upper leg [1/2, 1]
    with pytest.raises(QuadratureError, match="radicand negative"):
        sqrt_endpoint_quad(_time(lambda h: 0.5 * (1.0 - 2.0 * h)), 0.0, 1.0,
                           angle=False, upper_singular=False)


def test_lower_zero_of_order_three_halves_with_vanishing_g():
    # int_0^1 r/sqrt(r^1.5) dr = int_0^1 r^(1/4) dr = 4/5: w vanishes faster
    # than simply at a = 0 and the numerator like r, as in the fall to the
    # centre; the integrand has an unbounded derivative at 0
    res = sqrt_endpoint_quad(_time(lambda h: 0.5 * h ** -0.5), 0.0, 1.0,
                             angle=False, upper_singular=False)
    assert res.value == pytest.approx(0.8, abs=1e-12)


def test_reduced_weight_not_positive_at_a_node_raises():
    # w(r) = r has the constant reduced weight 1 at the singular end a = 0,
    # but this radicand reads 0 within 1e-5 of it: the first node that close
    # ends the quadrature, after one call of V there
    calls = []

    def V(h):
        calls.append(h)
        return 0.0 if h < 1e-5 else 0.5 / h

    with pytest.raises(QuadratureError, match=r"radicand not positive near r="):
        sqrt_endpoint_quad(_time(V), 0.0, 1.0, angle=False, upper_singular=False)
    assert calls[-1] < 1e-5 and all(h >= 1e-5 for h in calls[:-1])


def test_infinite_interval_rejected():
    # an unbounded orbit's integral to r = inf: rejected before any node
    with pytest.raises(QuadratureError, match="infinite interval"):
        sqrt_endpoint_quad(_time(lambda h: 0.5), 1.0, math.inf, angle=False, upper_singular=False)


def test_interval_below_zero_rejected():
    # radial integrals live on r >= 0
    with pytest.raises(ValueError, match="need 0 <= a < b"):
        sqrt_endpoint_quad(_time(lambda h: 0.5), -1.0, 1.0, angle=False, upper_singular=True)


# --- bitwise goldens ---------------------------------------------------------
# float.hex of (value, quad_error, inner_part, outer_part) of every result, as
# recorded before the reduced weight was inlined into the legs: any change to
# the order of operations of the engine moves at least one of these bits.

# per potential: the diagonal, eps_first and l_first cells k = 0 ... 4, then
# the fall time
_SWEEP_GOLDEN = {
    "logarithmic": [
        "0x1.a5c97b1676d45p+0 0x1.fce559ab47800p-38 0x1.8e23f048f81ccp+0 0x1.7a58acd7eb78ap-4",
        "0x1.9bbc192dbafc3p+0 0x1.3b03a9cc644a0p-35 0x1.95363b83d2224p+0 0x1.a1776a7a367dap-6",
        "0x1.97ee0cade91eap+0 0x1.90ac464a0b1d0p-35 0x1.9612c404b7d65p+0 0x1.db48a93148494p-8",
        "0x1.96200056a4b05p+0 0x1.a9eaefc283022p-37 0x1.9594f5455759bp+0 0x1.1616229aad399p-9",
        "0x1.951ab94d8a938p+0 0x1.96cccd4431f80p-37 0x1.94f14714c81e1p+0 0x1.4b91c613ab679p-11",
        "0x1.c0e408e530e8cp+0 0x1.4a84a9e01cf00p-34 0x1.a814122b26091p+0 0x1.8cff6ba0adfb8p-4",
        "0x1.af82872fede9ep+0 0x1.26195b1183500p-35 0x1.a8b923bd40b11p+0 0x1.b258dcab4e341p-6",
        "0x1.a791bc11a49b1p+0 0x1.da7c0ac839f86p-35 0x1.a5a5e008d8601p+0 0x1.ebdc08cc3aff7p-8",
        "0x1.a16458c858ef3p+0 0x1.1fafde814cfb4p-36 0x1.a0d54fe0e3f5dp+0 0x1.1e11cee9f2bf2p-9",
        "0x1.951ab94d8a938p+0 0x1.96cccd4431f80p-37 0x1.94f14714c81e1p+0 0x1.4b91c613ab679p-11",
        "0x1.92203a0da4b4cp+0 0x1.3a20d49f4d500p-46 0x1.91fa187779062p+0 0x1.310cb15d74e61p-11",
        "0x1.92223acb4ea22p+0 0x1.0da325b433252p-32 0x1.91fe08bc1cf7ap+0 0x1.2190798d53ee1p-11",
        "0x1.922ee20fbbb63p+0 0x1.3d5c49404fddep-33 0x1.920919e8aa592p+0 0x1.2e41388ae8621p-11",
        "0x1.9287f2e49cd8fp+0 0x1.b891f58143f00p-41 0x1.926031d60c8d6p+0 0x1.3e0874825c8f2p-11",
        "0x1.951ab94d8a938p+0 0x1.96cccd4431f80p-37 0x1.94f14714c81e1p+0 0x1.4b91c613ab679p-11",
        "0x1.40d931ff6276dp+0 0x1.873f7e2a75e89p-39 0x1.32c5a2f8a71b3p-2 0x1.e84f928271600p-1",
    ],
    "homogeneous": [
        "0x1.b6550e83a3d97p+0 0x1.11496d7c39600p-38 0x1.98a32504183a6p+0 0x1.db1e97f8b9f0ap-4",
        "0x1.a349cae490ebap+0 0x1.47a45e766f600p-46 0x1.9b4f5f8a7cd41p+0 0x1.fe9ad68505e21p-6",
        "0x1.9b25faba3e7a3p+0 0x1.41902b2087d00p-46 0x1.98f03be21b836p+0 0x1.1adf6c117b682p-7",
        "0x1.97157363f11cdp+0 0x1.abc04538d1058p-33 0x1.96748b141ac24p+0 0x1.41d09facb52ecp-9",
        "0x1.94e480552d931p+0 0x1.3f20ddeffc109p-38 0x1.94b5fce1bc0cbp+0 0x1.741b9b8c32cd1p-11",
        "0x1.136dfdbfb57a2p+1 0x1.d668d506c0000p-46 0x1.01b3b6ba2bdb9p+1 0x1.1ba4705899e94p-3",
        "0x1.0db43d5dc164ep+1 0x1.04588e86c0000p-43 0x1.089c1c6f9c6f5p+1 0x1.46083b893d65dp-5",
        "0x1.08599d017c784p+1 0x1.a2cb26d136000p-40 0x1.06d6cd30b9098p+1 0x1.82cfd0c36ebb3p-7",
        "0x1.ad6723f7212c0p+0 0x1.ad94e1f5db000p-42 0x1.aca0c2fbf354dp+0 0x1.8cc1f65bae503p-9",
        "0x1.94e480552d931p+0 0x1.3f20ddeffc109p-38 0x1.94b5fce1bc0cbp+0 0x1.741b9b8c32cd1p-11",
        "0x1.9220a5bfb8726p+0 0x1.04bacbe999dc5p-30 0x1.91ffe6bd46ccbp+0 0x1.05f8138d2d5ecp-11",
        "0x1.92241f4108783p+0 0x1.e589390588432p-37 0x1.9208a9363aa25p+0 0x1.b760acdd5d9f8p-12",
        "0x1.923726243dd63p+0 0x1.ab1ab79e3e3d0p-34 0x1.9218acc4cb3dep+0 0x1.e795f729848c1p-12",
        "0x1.929ebe1f8f9a7p+0 0x1.09a683d3dbfecp-33 0x1.92792b3224976p+0 0x1.2c976b5818b84p-11",
        "0x1.94e480552d931p+0 0x1.3f20ddeffc109p-38 0x1.94b5fce1bc0cbp+0 0x1.741b9b8c32cd1p-11",
        "0x1.aa844a84c0f3ep+0 0x1.8badc96cb56c6p-45 0x1.65acf286a350ep-2 0x1.51190de3181fap+0",
    ],
}
# the calibration integral as the Kepler apsidal angle of `_kepler`, recorded
# by running that integrand through the engine as it was before the legs took
# whole Kronrod panels (numerator l / r, the radicand as a scalar callable)
_CALIBRATION_GOLDEN = {
    1.5:
        "0x1.921fb54442773p+1 0x1.80d17f5ecc5c6p-39 0x1.ac0780435bd09p+0 0x1.7837ea45291ddp+0",
    2.0:
        "0x1.921fb544429cbp+1 0x1.72ccd09eb22f3p-36 0x1.be43d1796ad25p+0 0x1.65fb990f1a671p+0",
    10.0:
        "0x1.921fb54442ad1p+1 0x1.7b3bfa70e5abcp-41 0x1.0efba70435b25p+1 0x1.06481c8019f58p+0",
    1000000.0:
        "0x1.921fb54442d35p+1 0x1.2b3d5badf4270p-35 0x1.8a07f7dabbf1ap+1 0x1.02f7ad30dc365p-4",
}
_ONE_SIDED_GOLDEN = {
    "logarithmic": [
        "0x1.bb0682e793108p+0 0x1.07ab0b3d7a284p-35 0x1.9e48a8f230208p+0 0x1.cbdd9f562effep-4",
        "0x1.3463be6eede63p-2 0x1.4cda51a03d53bp-36 0x1.bce5e49c36dd8p-7 0x1.267c8f4a0c2f4p-2",
    ],
    "homogeneous": [
        "0x1.03244573ea547p+1 0x1.2cef933c2d700p-34 0x1.dfc7256713d08p+0 0x1.340b2c0606c2dp-3",
        "0x1.66ebf534db8dep-2 0x1.a79f42ca4bcc8p-43 0x1.c41d562e112e6p-8 0x1.5fdb7fdc23492p-2",
    ],
}
_GOLDEN_CASES = {
    "logarithmic": (logarithmic(), DropFromRest(0.0)),
    "homogeneous": (homogeneous(0.5), DropFromRest(-1.0)),
}


def _hexes(res) -> str:
    return " ".join(x.hex() for x in (res.value, res.quad_error, res.inner_part, res.outer_part))


@pytest.fixture
def recorded(monkeypatch):
    """(upper_singular, hexes) of every engine call made by apsidal and radial."""
    calls = []

    def recording(*args, **kwargs):
        res = sqrt_endpoint_quad(*args, **kwargs)
        calls.append((kwargs["upper_singular"], _hexes(res)))
        return res

    monkeypatch.setattr(apsidal, "sqrt_endpoint_quad", recording)
    monkeypatch.setattr(radial, "sqrt_endpoint_quad", recording)
    return calls


@pytest.mark.parametrize("name", sorted(_GOLDEN_CASES))
def test_sweep_cells_and_collision_time_bitwise(recorded, name):
    # every apsidal_angle cell of the three default paths, in schedule order,
    # then the collision time of the drop
    anchor = case_anchor(*_GOLDEN_CASES[name][::-1])
    convergence_sweep(anchor, default_paths(range(2, 7)))
    fall_time(anchor)
    assert [flag for flag, _ in recorded] == [True] * 16
    assert [h for _, h in recorded] == _SWEEP_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(_GOLDEN_CASES))
def test_one_sided_and_plain_legs_bitwise(recorded, name):
    # an angle cut off inside the orbit and a flight from the pericentre to
    # a regular radius
    potential, case = _GOLDEN_CASES[name]
    anchor = case_anchor(case, potential).radius
    sm = SmoothedPotential(potential, 1e-3)
    l = 1e-2
    rp = RadialProblem(sm, 0.5 * l * l / (anchor * anchor) - sm.value(anchor), l)
    tp = turning_points(rp)
    mid = 0.5 * (tp.pericenter + tp.apocenter)
    apsidal_angle(rp, mid)
    radial.sqrt_endpoint_quad(rp, tp.pericenter, mid, angle=False, upper_singular=False)
    assert [flag for flag, _ in recorded] == [False, False]
    assert [h for _, h in recorded] == _ONE_SIDED_GOLDEN[name]
