import math

import numpy as np
import pytest

from onecentre.quadrature import QuadratureError, sqrt_endpoint_quad


def test_arcsine_integral_both_endpoints():
    # int_0^1 dx/sqrt(x(1-x)) = pi
    res = sqrt_endpoint_quad(lambda x: 1.0, 0.0, 1.0, lambda x: x * (1.0 - x))
    assert res.value == pytest.approx(math.pi, abs=1e-12)
    assert res.lower_part + res.upper_part == pytest.approx(res.value)


def test_shifted_arcsine_with_reduced_weight():
    # int_2^5 dx/sqrt((x-2)(5-x)) = pi, reduced weight identically 1
    res = sqrt_endpoint_quad(lambda x: 1.0, 2.0, 5.0,
                             lambda x: (x - 2.0) * (5.0 - x),
                             reduced=lambda x: 1.0)
    assert res.value == pytest.approx(math.pi, abs=1e-14)


@pytest.mark.parametrize("xi", [1.5, 2.0, 10.0, 1e6])
def test_calibration_pi_through_the_guarded_reduced_weight(xi):
    # the calibration integral without its closed-form reduced weight: omega
    # comes from the radicand, as for every apsidal angle and flight time
    res = sqrt_endpoint_quad(lambda x: 1.0 / x, 1.0, xi,
                             lambda x: (x - 1.0) * (1.0 - x / xi))
    assert res.value == pytest.approx(math.pi, rel=1e-10, abs=0.0)


def test_one_sided_singularity():
    # int_0^1 dx/sqrt(x) = 2
    res = sqrt_endpoint_quad(lambda x: 1.0, 0.0, 1.0, lambda x: x,
                             upper_singular=False)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    res = sqrt_endpoint_quad(lambda x: 1.0, 0.0, 1.0, lambda x: 1.0 - x,
                             lower_singular=False)
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_no_singularity_plain_quadrature():
    res = sqrt_endpoint_quad(lambda x: x, 1.0, 2.0, lambda x: x * x,
                             lower_singular=False, upper_singular=False)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_elliptic_oracle():
    # int_{-1}^{1} dx / sqrt((1-x^2)(2-x)) agrees with a dense-midpoint oracle
    def w(x):
        return (1.0 - x * x) * (2.0 - x)

    res = sqrt_endpoint_quad(lambda x: 1.0, -1.0, 1.0, w)

    # oracle: substitution x = -cos(phi) makes the integrand smooth; use a
    # very fine trapezoid on it
    phi = np.linspace(0.0, math.pi, 200001)
    x = -np.cos(phi)
    vals = 1.0 / np.sqrt(2.0 - x)
    oracle = np.trapezoid(vals, phi)
    assert res.value == pytest.approx(oracle, abs=1e-9)


def test_negative_radicand_rejected():
    with pytest.raises(QuadratureError):
        sqrt_endpoint_quad(lambda x: 1.0, 0.0, 1.0,
                           lambda x: -1.0 + 0.0 * x,
                           lower_singular=False, upper_singular=False)


def test_lower_zero_of_order_three_halves_with_vanishing_g():
    # int_0^1 r/sqrt(r^1.5) dr = int_0^1 r^(1/4) dr = 4/5: w vanishes faster
    # than simply at a = 0 and g like r, as in the fall to the centre; the
    # integrand has an unbounded derivative at 0
    res = sqrt_endpoint_quad(lambda r: r, 0.0, 1.0, lambda r: r ** 1.5,
                             upper_singular=False)
    assert res.value == pytest.approx(0.8, abs=1e-12)


def test_reduced_weight_backs_away_from_a_zero_at_the_first_offset():
    # w(r) = r has the constant reduced weight 1 at the singular end a = 0,
    # but this radicand reads 0 within 1e-5 of it, so every node that close
    # fails its first offset and must be backed away before it counts
    zeros = []

    def w(r):
        if r < 1e-5:
            zeros.append(r)
            return 0.0
        return r

    res = sqrt_endpoint_quad(lambda x: 1.0, 0.0, 1.0, w, upper_singular=False)
    assert zeros
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_reduced_weight_gives_up_after_eight_offsets():
    offsets = []

    def w(r):
        offsets.append(r)
        return 0.0

    with pytest.raises(QuadratureError, match=r"radicand not positive near r="):
        sqrt_endpoint_quad(lambda x: 1.0, 0.0, 1.0, w, upper_singular=False)
    assert len(offsets) == 8
    assert all(b == 4.0 * a for a, b in zip(offsets, offsets[1:]))


def test_infinite_interval_rejected():
    # an unbounded orbit's integral to r = inf: rejected before any node
    with pytest.raises(QuadratureError, match="infinite interval"):
        sqrt_endpoint_quad(lambda r: 1.0 / (r * r), 1.0, math.inf,
                           lambda r: 1.0 - 1.0 / (r * r), upper_singular=False)
