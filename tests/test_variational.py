import math

import numpy as np
import pytest

from onecentre import variational
from onecentre.flow import extended_flow
from onecentre.potentials import homogeneous, logarithmic
from onecentre.radial import DropFromRest, InwardCrossing, case_anchor, fall_time
from onecentre.simulator import PhaseState
from onecentre.variational import delta_action, kinetic_action, potential_action

T0_LOG = math.sqrt(math.pi / 2.0)


def action(values, dt, potential):
    """Kinetic plus potential action of the piecewise-linear path through values."""
    return kinetic_action(values, dt) + potential_action(values, dt, potential)[0]


def probe(potential, energy, deltas, n_cells=2 ** 12):
    """delta_action's table and the (values, dt) of every path it integrated,
    in call order: the transmission path first, then one per delta."""
    paths = []

    def recording(values, dt, pot):
        paths.append((values, dt))
        return potential_action(values, dt, pot)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(variational, "potential_action", recording)
        table = delta_action(case_anchor(DropFromRest(energy), potential), deltas, 0.5,
                             n_cells)
    return table, paths


@pytest.fixture(scope="module")
def log_probe():
    # moderate grid: keeps the module's tests fast, the acceptance suite uses
    # the full default resolution
    return probe(logarithmic(), 0.0, [1e-2, 1e-3, 1e-4])


@pytest.fixture(scope="module")
def log_path(log_probe):
    return log_probe[1][0]


def straight_path(v, T=1.0, n=64, offset=(3.0, 0.0)):
    ts = np.linspace(-T, T, n + 1)
    vals = np.stack([offset[0] + v[0] * ts, offset[1] + v[1] * ts], axis=1)
    return vals, float(ts[1] - ts[0])


def test_kinetic_action_of_uniform_motion():
    v2 = 0.4 ** 2 + 0.2 ** 2
    assert kinetic_action(*straight_path((0.4, 0.2), T=1.5)) == pytest.approx(
        0.5 * v2 * 3.0, rel=1e-12)


def test_action_against_fine_grid_oracle():
    # straight motion far from the centre in the alpha = 1/2 potential
    pot = homogeneous(0.5)
    a = action(*straight_path((0.4, 0.0), T=1.0, n=512, offset=(3.0, 1.0)), pot)

    ts = np.linspace(-1.0, 1.0, 2_000_001)
    xs = 3.0 + 0.4 * ts
    ys = np.full_like(ts, 1.0)
    oracle_pot = np.trapezoid(np.hypot(xs, ys) ** -0.5, ts)
    oracle = 0.5 * 0.16 * 2.0 + oracle_pot
    # the discrete path's potential differs from the continuum limit at
    # O(dt^2); 512 cells leave ~1e-8
    assert a == pytest.approx(oracle, abs=1e-7)


def test_action_time_reversal_invariance(log_path):
    values, dt = log_path
    assert action(values[::-1].copy(), dt, logarithmic()) == pytest.approx(
        action(values, dt, logarithmic()), abs=1e-11)


def test_action_refinement_second_order(monkeypatch):
    # with the adaptive refinement disabled (infinite settling tolerance) the
    # potential quadrature is a plain midpoint rule: second order in dt
    pot = homogeneous(0.5)
    with monkeypatch.context() as m:
        m.setattr(variational, "REFINE_TOL", math.inf)
        vals = [action(*straight_path((0.4, 0.0), n=n), pot) for n in (128, 256, 512)]
    d1, d2 = vals[1] - vals[0], vals[2] - vals[1]
    assert d1 / d2 == pytest.approx(4.0, rel=0.1)
    # the adaptive rule instead settles to one value on every grid
    adaptive = [action(*straight_path((0.4, 0.0), n=n), pot) for n in (128, 512)]
    assert abs(adaptive[1] - adaptive[0]) < 1e-8


def test_transmission_path_nodes(log_path):
    values, dt = log_path
    n = len(values) - 1
    assert n == 2 ** 12
    assert 0.5 * n * dt == pytest.approx(T0_LOG, abs=1e-9)
    # collision node is exact
    assert values[n // 2] == pytest.approx([0.0, 0.0], abs=0.0)
    # endpoints at the rest radius, reflected
    assert values[0] == pytest.approx([1.0, 0.0], abs=1e-9)
    assert values[-1] == pytest.approx([-1.0, 0.0], abs=1e-9)


def test_transmission_action_finite(log_path):
    val, depth = potential_action(*log_path, logarithmic())
    assert math.isfinite(val)
    assert depth > 5   # the collision cell really was refined


def test_kinetic_cost_closed_form(log_probe):
    table, ((values, dt), *_) = log_probe
    T = 0.5 * (len(values) - 1) * dt
    for delta, T1, dK_closed, dK_discrete, *_ in table.rows:
        assert T1 == pytest.approx(0.5 * T, rel=1e-12)
        assert dK_closed == pytest.approx(-delta * delta / (T - T1), rel=1e-12)
        assert abs(dK_discrete - dK_closed) < 1e-10
    assert table.meta["kinetic_mismatch"] < 1e-10


def test_action_gain_positive_and_ratio_increasing(log_probe):
    meta = log_probe[0].meta
    assert all(dA > 0 for dA in meta["dA"])
    ratios = meta["dV_over_delta_sq"]
    assert ratios[0] < ratios[1] < ratios[2]
    assert meta["unsettled"] == []


def test_varied_action_finite_for_all_deltas(log_probe):
    table, paths = log_probe
    assert len(paths) == 1 + len(table.rows)
    for values, dt in paths[1:]:
        assert math.isfinite(action(values, dt, logarithmic()))


def test_delta_action_rejects_bad_arguments():
    drop = case_anchor(DropFromRest(0.0), logarithmic())
    with pytest.raises(ValueError, match="divisible by 4"):
        delta_action(drop, [1e-3], 0.5, 66)
    for T1_factor in (0.0, 1.0):
        with pytest.raises(ValueError, match="T1_factor"):
            delta_action(drop, [1e-3], T1_factor, 64)
    with pytest.raises(ValueError, match="delta must be positive"):
        delta_action(drop, [1e-3, 0.0], 0.5, 64)
    with pytest.raises(ValueError, match="needs a drop from rest"):
        delta_action(case_anchor(InwardCrossing(1.0, 1.0), logarithmic()), [1e-3], 0.5, 64)


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
    return (pot, *probe(pot, -1.0, [1e-2, 1e-4]))


def test_potential_action_matches_scalar_recursion(probe_case):
    pot, _table, ((values, dt), *_) = probe_case
    val, depth = potential_action(values, dt, pot)
    ref, ref_depth = _scalar_integral(pot.value, values, dt)
    assert depth == ref_depth
    assert depth > 5
    assert val == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_delta_action_matches_scalar_recursion(probe_case):
    pot, table, ((values, dt), *displaced) = probe_case
    pot0, depth0 = _scalar_integral(pot.value, values, dt)
    n = len(values) - 1
    T = 0.5 * n * dt
    a = np.abs(np.linspace(-T, T, n + 1))
    for (delta, T1, _dKc, _dKd, dV, _dA, depth), (recorded, _) in zip(table.rows, displaced):
        # the plateau displacement along the normal (0, 1) of the fall line
        profile = np.where(a < T1, delta, delta * (T - a) / (T - T1))
        varied = values + np.outer(profile, [0.0, 1.0])
        assert np.max(np.abs(recorded - varied)) <= 1e-15
        # the collision node moves to distance delta; the endpoints stay
        assert np.hypot(*recorded[n // 2]) == delta
        assert np.array_equal(recorded[[0, -1]], values[[0, -1]])
        pot1, depth1 = _scalar_integral(pot.value, varied, dt)
        assert depth == max(depth0, depth1)
        # dV is a difference of two O(1) integrals: compare it on their scale
        assert abs(dV - (pot0 - pot1)) <= 1e-12 * abs(pot0)


def test_delta_action_refines_the_unvaried_path_once(log_probe):
    deltas = [1e-2, 1e-3, 1e-4]
    drop = case_anchor(DropFromRest(0.0), logarithmic())
    singles = [delta_action(drop, [d], 0.5, 2 ** 12).rows[0] for d in deltas]
    table, paths = log_probe
    # one unvaried refinement plus one per displaced path; only the first
    # passes through the centre
    assert len(paths) == len(deltas) + 1
    assert [bool(np.any(np.all(values == 0.0, axis=1))) for values, _ in paths] == \
        [True] + [False] * len(deltas)
    assert table.rows == singles


def test_refinement_stops_at_max_depth(monkeypatch, log_path):
    # the collision cell never settles within three levels; the far cells
    # settle at the first, so only a few cells stay live
    monkeypatch.setattr(variational, "MAX_DEPTH", 3)
    val, depth = potential_action(*log_path, logarithmic())
    ref, ref_depth = _scalar_integral(logarithmic().value, *log_path)
    assert depth == ref_depth == 3
    assert val == pytest.approx(ref, rel=1e-12, abs=0.0)


def _log_transmission(energy=0.0):
    pot = logarithmic()
    anchor = case_anchor(DropFromRest(energy), pot)
    return extended_flow(PhaseState((anchor.radius, 0.0), (0.0, 0.0)), 0.0, pot,
                         fall_time(anchor))


def test_transmission_path_matches_per_node_states(log_path):
    tpath = _log_transmission()
    T0 = tpath.half.t_end
    values, _ = log_path
    n = len(values) - 1
    assert np.all(values[n // 2] == 0.0)
    assert np.array_equal(values, -values[::-1])
    for i, t in enumerate(np.linspace(-T0, T0, n + 1)):
        if i != n // 2:
            assert np.max(np.abs(values[i] - tpath.state_at(T0 + t).position)) <= 1e-12


def test_fall_positions_inside_collision_window():
    # grid nodes of the default probe never fall in the window below the
    # abort radius (1e-4 of the rest radius, about 2e-5 of T0); sample it
    # directly, both halves, against the scalar state.  Each time t is
    # rounded to 2 T0 - u for a time u after the collision, so the mirror
    # reads the fall at u at exactly t
    tpath = _log_transmission()
    fall = tpath.half
    T0, ta = fall.t_end, fall.pre.t_end
    u = 2.0 * T0 - np.array([0.0, 0.5 * ta, ta, ta + 0.25 * (T0 - ta), ta + 0.75 * (T0 - ta)])
    t = 2.0 * T0 - u
    pos = fall.positions(t)
    assert pos.shape == (5, 2)
    assert np.sum(t > ta) == 2
    for k, tk in enumerate(t):
        assert np.array_equal(pos[k], tpath.state_at(tk).position)
        assert np.array_equal(tpath.state_at(u[k]).position, -pos[k])
