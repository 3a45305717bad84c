"""Seeded input generator for the three benchmark workloads.

Every workload is a fixed list of CLI experiments.  The workload seed feeds
every ``--seed`` the program receives; the configurations themselves are
fixed by the workload definition, so a seed changes only the seeded samples
(section clouds, audit samples, oracle orbits).

The program seed is the workload seed modulo ``REFERENCE_SEEDS``, the number
of program seeds whose outputs were recorded as the correctness reference.
That way every run, whatever its seed, is checked row by row against
recorded values.  Two workload seeds that differ by a multiple of
``REFERENCE_SEEDS`` therefore give the same inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

#: number of program seeds that have recorded reference outputs (0, 1, ...)
REFERENCE_SEEDS = 4

#: apsidal-sweep exponents: 2 ... 10 in quarter decades (33 cells per path).
#: The schedule reaches 1e-10 on purpose: the known l_first and pericentre
#: failures near there must show up in the failure count.
SWEEP_EXPONENTS = [2 + 0.25 * i for i in range(33)]

#: poincare-section samples per delta.  Fewer than the CLI default of 50 keep
#: an ``orbits`` pass short enough that a run repeats every experiment
#: several times; the integrations per sample are the same.
SECTION_SAMPLES = 12

WORKLOADS = ("orbits", "sweeps", "action")

@dataclass(frozen=True)
class Experiment:
    """One CLI call: a unique name, the subcommand, its config and seed."""

    name: str
    subcommand: str
    config: dict
    seeded: bool   # whether the outputs depend on --seed

    def argv(self, seed: int, config_path: str, out: str) -> list[str]:
        return [self.subcommand, "--config", config_path, "--seed", str(seed),
                "--out", out]


_LOG = {"family": "logarithmic"}
_HOM = {"family": "homogeneous", "alpha": 0.5}
_DROP0 = {"type": "drop", "energy": 0.0}
_DELTAS = [1e-2, 1e-3, 1e-4]


def experiments(workload: str) -> list[Experiment]:
    """The experiments of one workload, in the order a pass runs them.

    Each config spells out every key the subcommand reads, at the values of
    the CLI defaults except ``SECTION_SAMPLES``, so a later change of a
    default does not change what the benchmark measures.
    """
    if workload == "orbits":
        return [
            Experiment("poincare-section", "poincare-section",
                       {"potential": _LOG, "case": _DROP0, "T_factor": 1.5,
                        "deltas": _DELTAS, "samples": SECTION_SAMPLES}, True),
            Experiment("poincare-continuity", "poincare-continuity",
                       {"potential": _LOG, "case": _DROP0, "T_factor": 1.5,
                        "exponents": [2, 3, 4, 5, 6]}, False),
            Experiment("transmission-demo", "transmission-demo",
                       {"potential": _LOG, "case": _DROP0}, False),
            Experiment("oracle-crosscheck", "oracle-crosscheck",
                       {"potential": _LOG, "orbits": 20, "period_tol": 1e-6,
                        "drift_budget": 1e-8}, True),
        ]
    if workload == "sweeps":
        return [
            Experiment("apsidal-sweep-log", "apsidal-sweep",
                       {"potential": _LOG, "case": _DROP0,
                        "exponents": SWEEP_EXPONENTS, "strong_tol": 1e-2}, False),
            Experiment("apsidal-sweep-hom", "apsidal-sweep",
                       {"potential": _HOM, "case": {"type": "drop", "energy": -1.0},
                        "exponents": SWEEP_EXPONENTS, "strong_tol": 1e-2}, False),
            Experiment("bounds-audit", "bounds-audit",
                       {"potential": _LOG, "eps": [1e-2, 1e-4], "samples": 1000,
                        "violation_tol": 1e-9, "energy": 0.0}, True),
            Experiment("pi-identity", "pi-identity",
                       {"xi": [1.0001, 1.5, 2.0, 10.0, 1e6], "tol": 1e-8}, False),
            Experiment("check-potential", "check-potential",
                       {"potential": _LOG}, False),
        ]
    if workload == "action":
        return [
            Experiment(f"variational-probe-{tag}", "variational-probe",
                       {"potential": pot, "energy": -1.0, "deltas": _DELTAS,
                        "T1_factor": 0.5, "n_cells": 2 ** 14}, False)
            for tag, pot in (("log", _LOG), ("hom", _HOM))
        ]
    raise ValueError(f"unknown workload {workload!r} (use one of {', '.join(WORKLOADS)})")


def program_seed(seed: int) -> int:
    """The --seed every experiment of a run receives."""
    return seed % REFERENCE_SEEDS


def inputs_hash(workload: str, seed: int) -> str:
    """sha256 of everything the program receives in one pass."""
    payload = [[e.name, e.subcommand, e.config, program_seed(seed)]
               for e in experiments(workload)]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
