"""Write every output the program makes for a fixed set of inputs.

    python3 tools/outputs.py OUT

Run from anywhere; the program is imported from this checkout's ``src/``.
OUT receives three sets of outputs:

* ``OUT/defaults/<subcommand>/``: every CLI subcommand at its default
  configuration and seed;
* ``OUT/workloads/<workload>/seed<k>/<experiment>/``: every experiment of
  ``perfbench/workloads.py`` at seeds 0 to 3, with the configs it defines
  (written to ``OUT/inputs/``);
* ``OUT/extra/seed<k>/<name>/``: the fixed non-default configs of
  ``EXTRA`` at seeds 0 to 3 (configs in ``OUT/inputs/extra/``), which reach
  paths no default or workload run does: the entry case, the
  ``homogeneous(0.5)`` drop, a ball exit in the continuity schedule, a
  continuity run skipped because its reference is at rest, a variational
  probe failing on unsettled collision cells, a variational probe whose
  grid reads the transmission path below its abort radius (the inversion
  of the fall time), a transmission demo of a drop from rest radius 1e-8,
  whose integrated fall ends at once at the ``COLLISION_RADIUS`` floor, so
  that every sample but the first and last reads that inversion, some within
  1e-9 of the collision instant, a late section whose orbits run past
  their first mirror (2 T0 for the collision samples, 2 t_p for the
  others) and go on as the extended flow of the mirrored state there (in
  every other section and continuity run, including the entry,
  ``homogeneous(0.5)`` and ball-exit configs here, one mirror covers the
  horizon), section brackets that halve, section samples that find no
  crossing, oracle orbits that fail, a bounds audit whose second eps
  has no orbit, a bounds audit whose every eps has no orbit (E + V_eps has
  no zero above 1e-14, which `first_zero` reports through
  `turning_points`), the class reports of an admissible potential whose
  slow variation is inconclusive (``homogeneous(0.1)``) and of one that is
  not admissible (``homogeneous(2.5)``, witness ``slope``), and an apsidal
  sweep of a drop with no rest radius (a config error, exit 2).

The exit codes go to ``OUT/exit_codes.json``.  Two checkouts that should
compute the same numbers are compared with

    python3 tools/outputs.py /tmp/a   # in the first checkout
    python3 tools/outputs.py /tmp/b   # in the second
    diff -r /tmp/a /tmp/b
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

from onecentre.cli import COMMANDS, main  # noqa: E402

#: the seeds of the workload experiments and the extra configs
SEEDS = range(4)

_HOM = {"family": "homogeneous", "alpha": 0.5}
_HOM_QUARTER = {"family": "homogeneous", "alpha": 0.25}
_HOM_DROP = {"type": "drop", "energy": -1.0}
_ENTRY = {"type": "entry", "energy": 1.0, "ball_radius": 1.0}

#: name -> (subcommand, config): non-default configs; the keys not given
#: keep their defaults
EXTRA = {
    "oracle-crosscheck-hom": ("oracle-crosscheck", {"potential": _HOM}),
    "transmission-demo-entry": ("transmission-demo", {"case": _ENTRY}),
    # rest radius 1e-8: the fall reaches the COLLISION_RADIUS floor at once,
    # and the 199 inner samples, 1.25e-10 apart, read the window below it
    "transmission-demo-deep": ("transmission-demo", {
        "case": {"type": "drop", "energy": -18.420680743952367}}),
    "transmission-demo-hom": ("transmission-demo", {"potential": _HOM, "case": _HOM_DROP}),
    # cell 0 of the diagonal leaves this ball; the other cells stay inside
    "poincare-continuity-ball": ("poincare-continuity", {
        "case": {"type": "drop", "energy": 0.0, "ball_radius": 1.01002}}),
    "poincare-continuity-hom": ("poincare-continuity", {"potential": _HOM, "case": _HOM_DROP}),
    # just before 2 T0 the reference is back at rest: the run is skipped
    "poincare-continuity-rest": ("poincare-continuity", {"T_factor": 1.999999999}),
    "poincare-section-entry": ("poincare-section", {"case": _ENTRY, "samples": 6}),
    "apsidal-sweep-entry": ("apsidal-sweep", {"case": _ENTRY}),
    "bounds-audit-hom": ("bounds-audit", {"potential": _HOM, "energy": -1.0, "samples": 200}),
    # every collision cell reaches MAX_DEPTH
    "variational-probe-unsettled": ("variational-probe", {
        "potential": _HOM, "energy": -1.0, "n_cells": 4096}),
    # two grid nodes fall in the window below the abort radius
    "variational-probe-window": ("variational-probe", {"energy": -1.0, "n_cells": 262144}),
    # the samples' horizon T + 0.1 T lies beyond 2 T0 and every 2 t_p: each
    # orbit goes on past its first mirror, and the first bracket holds
    "poincare-section-late": ("poincare-section", {
        "T_factor": 1.85, "samples": 6, "deltas": [1e-2, 1e-3]}),
    # just past the fall the first bracket is too wide and halves
    "poincare-section-halving": ("poincare-section", {
        "potential": _HOM_QUARTER, "case": _HOM_DROP,
        "T_factor": 1.02, "samples": 6, "deltas": [1e-2, 1e-3]}),
    # samples 1-3 find no sign change of the section offset
    "poincare-section-no-crossing": ("poincare-section", {
        "potential": _HOM_QUARTER, "case": _HOM_DROP,
        "T_factor": 1.02, "samples": 4, "deltas": [0.1]}),
    # 10 of the 20 orbits fail in the stepper near the centre
    "oracle-crosscheck-failing": ("oracle-crosscheck", {
        "potential": {"family": "homogeneous", "alpha": 1.9}}),
    # at eps = 1 the orbit l = eps does not exist
    "bounds-audit-no-orbit": ("bounds-audit", {"eps": [1e-2, 1.0]}),
    # E + V_eps has no zero above 1e-14 at any eps of the schedule
    "bounds-audit-no-zero": ("bounds-audit", {"energy": -40.0, "samples": 20}),
    # the sup of |V(lam x)/V(lam) - 1| is constant, ~0.206: inconclusive
    "check-potential-inconclusive": ("check-potential", {
        "potential": {"family": "homogeneous", "alpha": 0.1}}),
    "check-potential-not-admissible": ("check-potential", {
        "potential": {"family": "homogeneous", "alpha": 2.5}}),
    # the rest radius e^-40 lies below 1e-14: no case, exit 2
    "apsidal-sweep-no-rest": ("apsidal-sweep", {"case": {"type": "drop", "energy": -40.0}}),
}


def run(argv: list[str]) -> int:
    """cli.main(argv) with its standard output and error discarded."""
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), \
            contextlib.redirect_stderr(null):
        return main(argv)


def write_outputs(out: Path) -> dict[str, int]:
    """Run every subcommand, workload experiment and extra config into
    `out`; the exit code of each run, keyed by its output directory relative
    to `out`."""
    codes = {}
    for sub in sorted(COMMANDS):
        target = out / "defaults" / sub
        codes[str(target.relative_to(out))] = run([sub, "--out", str(target)])
    for workload in workloads.WORKLOADS:
        for exp in workloads.experiments(workload):
            cfg = out / "inputs" / workload / f"{exp.name}.json"
            cfg.parent.mkdir(parents=True, exist_ok=True)
            cfg.write_text(json.dumps(exp.config, sort_keys=True))
            for seed in SEEDS:
                target = out / "workloads" / workload / f"seed{seed}" / exp.name
                codes[str(target.relative_to(out))] = run(exp.argv(seed, str(cfg), str(target)))
    for name, (sub, config) in EXTRA.items():
        cfg = out / "inputs" / "extra" / f"{name}.json"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(json.dumps(config, sort_keys=True))
        for seed in SEEDS:
            target = out / "extra" / f"seed{seed}" / name
            codes[str(target.relative_to(out))] = run(
                [sub, "--config", str(cfg), "--seed", str(seed), "--out", str(target)])
    return codes


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    dest = Path(sys.argv[1])
    dest.mkdir(parents=True, exist_ok=True)
    exit_codes = write_outputs(dest)
    (dest / "exit_codes.json").write_text(json.dumps(exit_codes, indent=1, sort_keys=True))
