"""Benchmark of the onecentre laboratory: one workload, one run.

    python3 perfbench/run.py --workload {orbits,sweeps,action} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
A run starts ``INTERPRETERS`` fresh interpreters one after the other (see
``worker.py``), all single-threaded (BLAS and OpenMP pools are pinned to one
thread).  Each one times its set-up, then runs a cold pass and warm passes,
closed loop, within its share of ``--seconds``, so the samples of every kind
are spread over the whole run.  With ``--trace 1`` a single interpreter runs
for all of ``--seconds``.  The outputs of every pass are then checked
against the recorded reference (``check.py``).

On a shared machine the process slows down and speeds up again with the
load of other tenants, over seconds to minutes, by up to 2x; wall and CPU
time stretch alike.  So every experiment of every pass is timed on its own
and divided by a calibration sample taken right next to it
(``calibrate.py``): the times are seconds at one fixed machine speed.
``wall_s`` and ``cpu_s`` sum, over the experiments of a pass, the median of
each experiment's warm times; ``cold_pass_s`` sums the lower quartile of
each experiment's cold times (one per interpreter: slow phases only ever
add time, and the few cold samples are better guarded against them by the
lower quartile than by the median).  ``setup_s`` is the median of the
set-up samples as measured: set-up is mostly file reading and memory
mapping, which the kernel does not track.  The report also gives the warm
pass times as measured, with their median and quartiles.

The report goes to standard output.  Its last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics of the traced passes
(``--trace 1``).  The exit status is 0 for a correct run, 3 when the check
found a problem (after the report), 1 or 2 when no result could be made.
Run artifacts, including the spans of the last traced pass, are left in
``perfbench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import check
import workloads
from tracer import METRICS as LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: fresh interpreters of an untraced run, one after the other; each gives a
#: set-up sample, a cold pass and warm passes
INTERPRETERS = 4
#: a run gives up (and kills its worker) after this many seconds
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "cells_per_s": "1/s", "setup_s": "s",
    "cold_pass_s": "s", "peak_rss_mb": "MiB", "ok_frac": "ratio",
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def at_reference_speed(p: dict, key: str) -> list[float]:
    """The per-experiment times `key` of pass `p`, each divided by the faster
    of the calibration samples on either side of it, in seconds at the
    speed ``calibrate.REFERENCE_S`` stands for."""
    k = p["kernel_s"]
    return [t * calibrate.REFERENCE_S / min(a, b)
            for t, a, b in zip(p[key], k, k[1:])]


def lower_quartile(values) -> float:
    return statistics.quantiles(values, n=4)[0]


def pass_time(passes: list[dict], key: str, pick) -> float:
    """Sum over the experiments of a pass of `pick` (median or lower
    quartile) of each one's times at reference speed among `passes`."""
    return sum(pick(times) for times in
               zip(*(at_reference_speed(p, key) for p in passes)))


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, out: Path, index: int, seconds: float, deadline: float) -> float:
    """Run one worker to its end; returns its set-up time in seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), "--index", str(index),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    with open(out / f"worker_{index}.stderr", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.DEVNULL,
                              stderr=err, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        tail = (out / f"worker_{index}.stderr").read_text()[-2000:]
        raise RuntimeError(f"worker {index} exited with {proc.returncode}:\n{tail}")
    return float((out / f"setup_{index}.txt").read_text()) - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="onecentre benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "onecentre" / "__init__.py").is_file():
        print(f"no onecentre sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    compileall.compile_dir(ROOT / "src", quiet=1)
    count = 1 if args.trace else INTERPRETERS
    try:
        setup = [start_worker(args, out, i, args.seconds / count, deadline)
                 for i in range(count)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    results = [json.loads((out / f"result_{i}.json").read_text()) for i in range(count)]
    result = results[0]
    passes = [p for r in results for p in r["passes"]]

    experiments = workloads.experiments(args.workload)
    reference = check.load_reference(HERE / "reference" / f"{args.workload}.json.gz")
    seed = workloads.program_seed(args.seed)
    outcomes = {p["dir"]: check.check_pass(experiments, reference, seed, out / p["dir"],
                                           p["exit_codes"]) for p in passes}
    total = check.Outcome()
    for o in outcomes.values():
        total.add(o)

    cold = [r["passes"][0] for r in results]
    warm = [p for r in results for p in r["passes"][1:] if not p["traced"]]
    walls = [p["wall_s"] for p in warm]
    q1, wall_med, q3 = statistics.quantiles(walls, n=4)

    print(f"workload {args.workload}  seed {args.seed} (program seed {seed})  "
          f"inputs {result['inputs_hash']}")
    print(f"python {result['python']}  numpy {result['numpy']}  scipy {result['scipy']}  "
          f"cpu {cpu_model()}  nproc {os.cpu_count()}")
    print(f"warm passes {len(walls)}: wall median {wall_med:.4f} s, quartiles "
          f"{q1:.4f} .. {q3:.4f} s, fastest {min(walls):.4f} s")
    print("pass walls " + " ".join(f"{p['wall_s']:.4f}{'t' if p['traced'] else ''}"
                                   for p in passes)
          + " s; set-up samples " + " ".join(f"{s:.4f}" for s in setup) + " s")
    print(f"operations attempted {total.attempted}, failed {total.failed} "
          f"(failed_frac {total.failed / total.attempted:.6f} ratio) over "
          f"{len(passes)} passes")
    for problem in dict.fromkeys(total.problems):
        print(f"INCORRECT {problem}")

    if args.trace:
        layers = result["layers"]
        traced = [p["wall_s"] for p in passes if p["traced"]]
        metrics = {name: (statistics.median(m[name] for m in layers), unit)
                   for name, unit in LAYER_METRICS.items()}
        metrics["trace.overhead_frac"] = (statistics.median(traced) / wall_med - 1.0,
                                          "ratio")
    else:
        wall_s = pass_time(warm, "exp_wall_s", statistics.median)
        metrics = {
            "wall_s": wall_s,
            "cpu_s": pass_time(warm, "exp_cpu_s", statistics.median),
            "cells_per_s": min(outcomes[p["dir"]].attempted - outcomes[p["dir"]].failed
                               for p in warm) / wall_s,
            "setup_s": statistics.median(setup),
            "cold_pass_s": pass_time(cold, "exp_wall_s", lower_quartile),
            "peak_rss_mb": max(r["peak_rss_kib"] for r in results) / 1024.0,
            "ok_frac": 1.0 - total.failed / total.attempted,
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": total.correct, "attempted": total.attempted,
                      "failed": total.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if total.correct else 3


if __name__ == "__main__":
    sys.exit(main())
