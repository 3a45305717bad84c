import math

import numpy as np
import pytest

from onecentre import variational
from onecentre.flow import transmission_extend
from onecentre.potentials import SmoothedPotential, homogeneous, logarithmic
from onecentre.radial import DropFromRest, case_anchor, fall_time
from onecentre.simulator import PhaseState, integrate
from onecentre.variational import (DiscretePath, delta_action,
                                   plateau_profile, potential_action,
                                   standard_variation,
                                   transmission_discrete_path)

T0_LOG = math.sqrt(math.pi / 2.0)


def action(path, potential):
    """Kinetic plus potential action of a discrete path."""
    return path.kinetic_action() + potential_action(path, potential)[0]


@pytest.fixture(scope="module")
def log_path():
    # moderate grid: keeps the module's tests fast, the acceptance suite uses
    # the full default resolution
    return transmission_discrete_path(logarithmic(), 0.0, n_cells=2 ** 12)


def straight_path(v, T=1.0, n=64, offset=(3.0, 0.0)):
    ts = np.linspace(-T, T, n + 1)
    vals = np.stack([offset[0] + v[0] * ts, offset[1] + v[1] * ts], axis=1)
    return DiscretePath(ts, vals)


def test_kinetic_action_of_uniform_motion():
    p = straight_path((0.4, 0.2), T=1.5)
    v2 = 0.4 ** 2 + 0.2 ** 2
    assert p.kinetic_action() == pytest.approx(0.5 * v2 * 3.0, rel=1e-12)


def test_action_against_fine_grid_oracle():
    # straight motion far from the centre in the alpha = 1/2 potential
    p = straight_path((0.4, 0.0), T=1.0, n=512, offset=(3.0, 1.0))
    pot = homogeneous(0.5)
    a = action(p, pot)

    ts = np.linspace(-1.0, 1.0, 2_000_001)
    xs = 3.0 + 0.4 * ts
    ys = np.full_like(ts, 1.0)
    oracle_pot = np.trapezoid(np.hypot(xs, ys) ** -0.5, ts)
    oracle = 0.5 * 0.16 * 2.0 + oracle_pot
    # the discrete path's potential differs from the continuum limit at
    # O(dt^2); 512 cells leave ~1e-8
    assert a == pytest.approx(oracle, abs=1e-7)


def test_action_time_reversal_invariance(log_path):
    rev = DiscretePath(log_path.times, log_path.values[::-1].copy())
    assert action(rev, logarithmic()) == pytest.approx(
        action(log_path, logarithmic()), abs=1e-11)


def test_action_refinement_second_order(monkeypatch):
    # with the adaptive refinement disabled (infinite settling tolerance) the
    # potential quadrature is a plain midpoint rule: second order in dt
    pot = homogeneous(0.5)
    with monkeypatch.context() as m:
        m.setattr(variational, "REFINE_TOL", math.inf)
        vals = [action(straight_path((0.4, 0.0), n=n), pot) for n in (128, 256, 512)]
    d1, d2 = vals[1] - vals[0], vals[2] - vals[1]
    assert d1 / d2 == pytest.approx(4.0, rel=0.1)
    # the adaptive rule instead settles to one value on every grid
    adaptive = [action(straight_path((0.4, 0.0), n=n), pot) for n in (128, 512)]
    assert abs(adaptive[1] - adaptive[0]) < 1e-8


def test_transmission_path_nodes(log_path):
    n = len(log_path.times) - 1
    assert log_path.times[0] == pytest.approx(-T0_LOG, abs=1e-9)
    assert log_path.times[-1] == pytest.approx(T0_LOG, abs=1e-9)
    # collision node is exact
    assert log_path.values[n // 2] == pytest.approx([0.0, 0.0], abs=0.0)
    # endpoints at the rest radius, reflected
    assert log_path.values[0] == pytest.approx([1.0, 0.0], abs=1e-9)
    assert log_path.values[-1] == pytest.approx([-1.0, 0.0], abs=1e-9)


def test_transmission_action_finite(log_path):
    val, depth = potential_action(log_path, logarithmic())
    assert math.isfinite(val)
    assert depth > 5   # the collision cell really was refined


def test_plateau_profile_shape():
    ts = np.linspace(-1.0, 1.0, 9)
    v = plateau_profile(ts, 0.1, 0.5, 1.0)
    assert v[4] == 0.1                     # centre
    assert v[0] == v[-1] == 0.0            # endpoints
    assert v[1] == pytest.approx(0.05)     # halfway down the taper


def test_standard_variation_geometry(log_path):
    delta, T1 = 1e-3, 0.5 * log_path.half_span
    varied = standard_variation(log_path, delta, T1)
    n = len(log_path.times) - 1
    # collision node displaced to distance delta: collision removed
    mid = varied.values[n // 2]
    assert np.hypot(mid[0], mid[1]) == pytest.approx(delta, abs=0.0)
    # endpoints fixed
    assert varied.values[0] == pytest.approx(log_path.values[0], abs=0.0)
    assert varied.values[-1] == pytest.approx(log_path.values[-1], abs=0.0)


def test_standard_variation_rejects_noncollinear():
    ts = np.linspace(-1.0, 1.0, 65)
    vals = np.stack([np.cos(ts), np.sin(ts)], axis=1)
    with pytest.raises(ValueError):
        standard_variation(DiscretePath(ts, vals), 1e-3, 0.5)


def test_kinetic_cost_closed_form(log_path):
    T = log_path.half_span
    table = delta_action(log_path, [1e-2, 1e-3, 1e-4], 0.5 * T, logarithmic())
    for delta, T1, dK_closed, dK_discrete, *_ in table.rows:
        assert dK_closed == pytest.approx(-delta * delta / (T - T1), rel=1e-12)
        assert abs(dK_discrete - dK_closed) < 1e-10
    assert table.meta["kinetic_mismatch"] < 1e-10


def test_action_gain_positive_and_ratio_increasing(log_path):
    T = log_path.half_span
    meta = delta_action(log_path, [1e-2, 1e-3, 1e-4], 0.5 * T, logarithmic()).meta
    assert all(dA > 0 for dA in meta["dA"])
    ratios = meta["dV_over_delta_sq"]
    assert ratios[0] < ratios[1] < ratios[2]
    assert meta["unsettled"] == []


def test_varied_action_finite_for_all_deltas(log_path):
    for d in (1e-2, 1e-4):
        varied = standard_variation(log_path, d, 0.5 * log_path.half_span)
        assert math.isfinite(action(varied, logarithmic()))


def test_nonuniform_grid_rejected():
    ts = np.array([0.0, 0.1, 0.3])
    with pytest.raises(ValueError):
        DiscretePath(ts, np.zeros((3, 2)))


# --- level-wise refinement against the per-cell recursion -------------------

def _scalar_cell(g, u_a, u_b, dt, tol, depth=0):
    """Per-cell dyadic midpoint recursion on scalars: the reference oracle."""
    mid = 0.5 * (u_a + u_b)
    coarse = g(math.hypot(mid[0], mid[1])) * dt
    if depth >= variational.MAX_DEPTH:
        return coarse, depth
    left, right = 0.5 * (u_a + mid), 0.5 * (mid + u_b)
    fine = (g(math.hypot(left[0], left[1])) * (0.5 * dt)
            + g(math.hypot(right[0], right[1])) * (0.5 * dt))
    if abs(fine - coarse) < tol:
        return fine, depth + 1
    l_val, l_depth = _scalar_cell(g, u_a, mid, 0.5 * dt, tol, depth + 1)
    r_val, r_depth = _scalar_cell(g, mid, u_b, 0.5 * dt, tol, depth + 1)
    return l_val + r_val, max(l_depth, r_depth)


def _scalar_integral(g, nodes, dt, tol=variational.REFINE_TOL):
    total, depth = 0.0, 0
    for u_a, u_b in zip(nodes[:-1], nodes[1:]):
        val, d = _scalar_cell(g, u_a, u_b, dt, tol)
        total += val
        depth = max(depth, d)
    return total, depth


@pytest.fixture(scope="module", params=["logarithmic", "homogeneous(0.5)"])
def probe_case(request):
    pot = logarithmic() if request.param == "logarithmic" else homogeneous(0.5)
    return pot, transmission_discrete_path(pot, -1.0, n_cells=2 ** 12)


def test_potential_action_matches_scalar_recursion(probe_case):
    pot, path = probe_case
    val, depth = potential_action(path, pot)
    ref, ref_depth = _scalar_integral(pot.value, path.values, path.dt)
    assert depth == ref_depth
    assert depth > 5
    assert val == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_delta_action_matches_scalar_recursion(probe_case):
    pot, path = probe_case
    pot0, depth0 = _scalar_integral(pot.value, path.values, path.dt)
    table = delta_action(path, [1e-2, 1e-4], 0.5 * path.half_span, pot)
    for delta, _T1, _dKc, _dKd, dV, _dA, depth in table.rows:
        varied = standard_variation(path, delta, 0.5 * path.half_span)
        pot1, depth1 = _scalar_integral(pot.value, varied.values, path.dt)
        assert depth == max(depth0, depth1)
        # dV is a difference of two O(1) integrals: compare it on their scale
        assert abs(dV - (pot0 - pot1)) <= 1e-12 * abs(pot0)


def test_delta_action_refines_the_unvaried_path_once(monkeypatch, log_path):
    deltas = [1e-2, 1e-3, 1e-4]
    T1 = 0.5 * log_path.half_span
    singles = [delta_action(log_path, [d], T1, logarithmic()).rows[0] for d in deltas]
    calls = []
    original = variational.potential_action

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(variational, "potential_action", counting)
    table = delta_action(log_path, deltas, T1, logarithmic())
    # one unvaried refinement plus one per displaced path
    assert len(calls) == len(deltas) + 1
    assert sum(path is log_path for path in calls) == 1
    assert table.rows == singles


def test_refinement_stops_at_max_depth(monkeypatch, log_path):
    # the collision cell never settles within three levels; the far cells
    # settle at the first, so only a few cells stay live
    monkeypatch.setattr(variational, "MAX_DEPTH", 3)
    val, depth = potential_action(log_path, logarithmic())
    ref, ref_depth = _scalar_integral(logarithmic().value, log_path.values, log_path.dt)
    assert depth == ref_depth == 3
    assert val == pytest.approx(ref, rel=1e-12, abs=0.0)


def _log_transmission(energy=0.0):
    pot = logarithmic()
    case = DropFromRest(energy)
    anchor, _ = case_anchor(case, pot)
    horizon = 10.0 * fall_time(case, pot)
    pre = integrate(PhaseState((anchor, 0.0), (0.0, 0.0)), SmoothedPotential(pot, 0.0),
                    horizon=horizon)
    return transmission_extend(pre)


def test_transmission_path_matches_per_node_states(log_path):
    tpath = _log_transmission()
    T0 = tpath.collision_time
    n = len(log_path.times) - 1
    assert np.all(log_path.values[n // 2] == 0.0)
    assert np.array_equal(log_path.values, -log_path.values[::-1])
    for i, t in enumerate(log_path.times):
        if i != n // 2:
            assert np.max(np.abs(log_path.values[i] - tpath.state_at(T0 + t).position)) <= 1e-12


def test_symmetric_positions_inside_collision_window():
    # grid nodes never fall in the ~1e-9 window below the abort radius;
    # sample it directly, both halves, against the scalar state
    tpath = _log_transmission()
    T0, ta = tpath.collision_time, tpath.abort_time
    t = np.array([0.0, 0.5 * ta, ta, ta + 0.25 * (T0 - ta), ta + 0.75 * (T0 - ta)])
    pos = tpath.symmetric_positions(t)
    assert pos.shape == (11, 2)
    assert np.all(pos[5] == 0.0)
    for k, tk in enumerate(t):
        assert np.array_equal(pos[k], tpath.state_at(tk).position)
        assert np.array_equal(pos[10 - k], -pos[k])
        # 2 T0 - tk reflects back to tk only up to rounding
        assert np.max(np.abs(pos[10 - k] - tpath.state_at(2.0 * T0 - tk).position)) <= 1e-12
