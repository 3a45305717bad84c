"""Time two primitives of the plane integration on fixed near-collision cells.

    python3 tools/primitives.py

Run from anywhere; the program is imported from this checkout's ``src/``.
It reaches the kernel only through `simulator.integrate` and a run's
dense output, not through `_dop853`'s own signatures, so a copy of it
times an earlier checkout as well.  The cells are the
diagonal continuity cell at 1e-4 (eps = l = dq = dv1 = 1e-4) of two drops
from rest at radius 1: the logarithm at E = 0 and ``homogeneous(0.5)`` at
E = -1.  The primitives are

* ``trajectory``: one ODE trajectory, the cell's run over two fall times
  T0 of its nominal orbit, in to the centre and out again, with no stop;
* ``apse_root``: one dense-output root, the ``APSE`` stop of the cell's
  run to its first pericentre: the interpolant of the stop step built
  again and the root of r rdot solved on it, as `integrate` does.

Each primitive's time is the best of ``REPEATS`` in-process runs.  A
separate run with a counting V' gives the counts: the steps, the V' calls
(12 an attempt, 2 to start the run, 3 an interpolant) and so the attempts.
It prints one line per cell and primitive, with the microseconds per step
of a trajectory, and checks nothing.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from onecentre import _dop853, simulator  # noqa: E402
from onecentre._brent import brentq  # noqa: E402
from onecentre.flow import diagonal_cells  # noqa: E402
from onecentre.potentials import SmoothedPotential, homogeneous, logarithmic  # noqa: E402
from onecentre.radial import DropFromRest, case_anchor, fall_time  # noqa: E402
from onecentre.simulator import make_initial_data  # noqa: E402

#: in-process runs per primitive, of which the fastest is reported
REPEATS = 20
#: (name, potential, drop energy), each a drop from rest at radius 1
CELLS = [("log", logarithmic(), 0.0), ("hom0.5", homogeneous(0.5), -1.0)]


def best(run) -> float:
    """The fastest of `REPEATS` calls of run(), in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def counted(sm: SmoothedPotential) -> tuple[SmoothedPotential, list]:
    """`sm` with a V' that appends to the returned list on each call."""
    calls, deriv = [], sm.base.deriv

    def counting(x):
        calls.append(None)
        return deriv(x)

    return SmoothedPotential(dataclasses.replace(sm.base, deriv=counting), sm.epsilon), calls


def apse_root(traj, evals: list | None = None) -> float:
    """The APSE stop of a run stopped there, found again: the stop step's
    interpolant built anew and r rdot's root solved in the step's own
    variable, at `integrate`'s tolerance; each evaluation of r rdot appends
    to `evals`, if given."""
    i = len(traj.times) - 2
    traj.dense._built.pop(i, None)
    seg = traj.dense.segment(i)

    def radial_rate(x):
        if evals is not None:
            evals.append(None)
        return simulator._radial_rate(_dop853.interpolate_step(seg, x))

    tol = simulator._ROOT_TOL
    return brentq(radial_rate, 0.0, 1.0, xtol=tol, rtol=tol)


def main() -> None:
    (eps, pert), = diagonal_cells([4])
    for name, potential, energy in CELLS:
        anchor = case_anchor(DropFromRest(energy), potential)
        state, horizon = make_initial_data(anchor, pert), 2.0 * fall_time(anchor)
        sm = SmoothedPotential(potential, eps)
        sm_counted, calls = counted(sm)

        seconds = best(lambda: simulator.integrate(state, sm, horizon))
        steps = len(simulator.integrate(state, sm_counted, horizon).times) - 1
        print(f"{name:7s} trajectory  best {seconds * 1e3:8.3f} ms  steps {steps:5d}  "
              f"attempts {(len(calls) - 2) // 12:5d}  deriv {len(calls):6d}  "
              f"{seconds / steps * 1e6:6.2f} us/step", flush=True)

        stopped = simulator.integrate(state, sm, horizon, apse=True)
        seconds = best(lambda: apse_root(stopped))
        counted_stop = simulator.integrate(state, sm_counted, horizon, apse=True)
        calls.clear()
        evals = []
        apse_root(counted_stop, evals)
        print(f"{name:7s} apse_root   best {seconds * 1e3:8.3f} ms  {stopped.stop} at "
              f"t = {stopped.t_end:.6f} after {len(stopped.times) - 1} steps  "
              f"deriv {len(calls)}  root evals {len(evals)}", flush=True)


if __name__ == "__main__":
    main()
