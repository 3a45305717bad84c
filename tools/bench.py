"""Run the benchmark on every workload and record the results.

    python3 tools/bench.py

Run from anywhere; it runs this checkout's ``perfbench/run.py`` from the
checkout's root, once per workload of ``BENCHMARK.json``, as

    python3 perfbench/run.py --workload W --seed 0 --seconds S

with S the file's ``run_seconds``, and then once more with ``--trace 1``.
It fails when any run exits nonzero.  Otherwise it writes
``BENCH_<n>.json`` at the root, with the first n not yet taken: the last
line of each run's standard output (its JSON result) as the run printed
it, keyed by workload, the untraced lines under ``results`` and the
traced ones under ``traced``, with the commit (``-dirty`` when the tree
has uncommitted changes), the CPU model and the Python and numpy
versions.  It takes no timing of its own.

A traced run is slower than an untraced one, so its line gives the
counters and the split of time between layers, and seconds are compared
only between untraced lines.  ``stale`` names the traced metrics that do
not measure what their name says, with the reason.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import cpu_model  # noqa: E402


#: traced metrics that read a wrong value, with the reason
STALE = {
    "flow.transmission_calls": "counts calls of transmission_extend, a function "
                               "folded into extended_flow, so it reads 0",
    "simulator.dense_evals": "counts Trajectory.state_at calls only: the variational "
                             "probe reads its fall at every grid node through "
                             "Fall.positions, one pre.dense call on an array of times, "
                             "so `action` reads 2",
}


def run_workload(name: str, seconds: int, trace: int) -> dict:
    """The result line of one benchmark run; exits on a failed run."""
    argv = ["python3", "perfbench/run.py", "--workload", name, "--seed", "0",
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{' '.join(argv)} exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def next_path() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names, seconds = [w["name"] for w in bench["workloads"]], bench["run_seconds"]
    results = {name: run_workload(name, seconds, 0) for name in names}
    traced = {name: run_workload(name, seconds, 1) for name in names}
    commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                            cwd=ROOT, capture_output=True, text=True, check=True)
    record = {"commit": commit.stdout.strip(), "cpu": cpu_model(),
              "python": platform.python_version(), "numpy": np.__version__,
              "results": results, "traced": traced, "stale": STALE}
    path = next_path()
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
