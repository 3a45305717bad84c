"""The first clauses of the flow contract (ROADMAP item 23) on seeded random
data: the time-T map Phi_T of the extended flow commutes with the
reflection y -> -y bit for bit, and with a rotation about the centre within
the ODE tolerance class of `perfbench/check.py`.

Each family is a solved drop (the logarithm at E = 0, `homogeneous(0.5)` at
E = -1) with 12 cases: 4 collision data moved along the radius by s, 4
eps = 0 data with l = +-s, and 4 data with eps = s and l = +-s, for s from
1e-6 to 1e-1 (both ends, then two draws between) and T from 0.2 to 10 T0.
A case the flow cannot run is counted, not dropped: an eps = 0 orbit whose
pericentre lies below the collision threshold stops there (item 9's floor),
and its error names the threshold.
"""

import math

import numpy as np
import pytest
from numpy.random import default_rng

from onecentre.flow import extended_flow
from onecentre.potentials import SmoothedPotential, homogeneous, logarithmic
from onecentre.radial import DropFromRest, RadialProblem, case_anchor, fall_time, turning_points
from onecentre.simulator import COLLISION_RADIUS, PhaseState, Perturbation, make_initial_data

#: `perfbench/check.py`'s ODE class (rel, abs): plane integration at rtol 1e-12 per step
ODE = (1e-10, 1e-10)
FAMILIES = {"log": (logarithmic(), DropFromRest(0.0)),
            "hom": (homogeneous(0.5), DropFromRest(-1.0))}


def _cases(rng):
    """(kind, eps, perturbation, T in units of T0, rotation angle) per case."""
    cases = []
    for kind in ("collision", "bare", "smoothed"):
        for exponent in (-6.0, -1.0, *rng.uniform(-6.0, -1.0, 2)):
            s = 10.0 ** exponent * rng.choice((-1.0, 1.0))
            if kind == "collision":
                eps, pert = 0.0, Perturbation(dq=(s, 0.0))
            else:
                eps, pert = (0.0 if kind == "bare" else abs(s)), Perturbation(l=s)
            cases.append((kind, eps, pert, rng.uniform(0.2, 10.0), rng.uniform(0.0, 2.0 * math.pi)))
    return cases


def _end(state, eps, potential, T):
    end = extended_flow(state, eps, potential, T).state_at(T)
    return np.concatenate([end.position, end.velocity])


def _rotate(phi, v):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_flow_commutes_with_reflection_and_rotation(family):
    potential, case = FAMILIES[family]
    anchor = case_anchor(case, potential)
    T0 = fall_time(anchor)
    bare = SmoothedPotential(potential, 0.0)
    rng = default_rng(23 + sorted(FAMILIES).index(family))
    ran, refused, worst = 0, [], 0.0
    for kind, eps, pert, t_factor, phi in _cases(rng):
        y0 = make_initial_data(anchor, pert)
        T = t_factor * T0
        # the eps = 0 orbit with l != 0 turns above the collision threshold, or stops there
        below_floor = kind == "bare" and turning_points(RadialProblem(
            bare, y0.energy(bare), abs(pert.l))).pericenter < COLLISION_RADIUS
        try:
            end = _end(y0, eps, potential, T)
        except RuntimeError as exc:
            assert below_floor, (kind, eps, pert, str(exc))
            assert f"collision threshold r = {COLLISION_RADIUS!r}" in str(exc)
            refused.append(pert.l)
            continue
        assert not below_floor, (kind, eps, pert)
        ran += 1
        turned = PhaseState(_rotate(phi, y0.position), _rotate(phi, y0.velocity))
        rotated = _end(turned, eps, potential, T)
        expected = np.concatenate([_rotate(phi, end[:2]), _rotate(phi, end[2:])])
        allowed = ODE[1] + ODE[0] * np.abs(expected)
        worst = max(worst, float(np.max(np.abs(rotated - expected) / allowed)))
        # the turned datum lies off the axis, so its reflection is another datum
        flip = np.array([1.0, -1.0])
        mirrored = _end(PhaseState(turned.position * flip, turned.velocity * flip),
                        eps, potential, T)
        assert [x.hex() for x in mirrored] == [x.hex() for x in rotated * np.tile(flip, 2)]
    assert ran + len(refused) == 12
    assert worst <= 1.0
    # the floor holds only homogeneous(0.5)'s l = +-1e-6: its pericentre, about
    # 6e-9, lies below the threshold; the logarithm's, 1.6e-7, above it
    assert [abs(l) for l in refused] == ([1e-6] if family == "hom" else [])
