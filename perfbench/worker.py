"""One fresh interpreter of a benchmark run.

It imports ``onecentre.cli``, generates the workload inputs and writes the
monotonic clock reading at that moment to ``setup_<index>.txt``; ``run.py``
subtracts the reading it took before starting the interpreter, which gives
one sample of the set-up time.  Then it runs the cold pass, the first
pass of the workload in this process, and then warm passes while the next
one, judged by the last, still ends within ``--seconds`` of the start of
the cold pass (and at least ``MIN_PASSES``).  With ``--trace 1`` the warm
passes are split: untraced ones within the first half of ``--seconds``,
then traced ones.

A pass runs every experiment of the workload once through
``onecentre.cli.main``, in this process, each after the previous one has
returned; each experiment is timed on its own, between two calibration
samples (``calibrate.py``) taken outside the pass time.  Pass ``n`` writes
its outputs to ``i<index>_pass_<n>/<experiment>/`` and ``result_<index>.json``
records the timings, calibration samples, exit codes, peak memory and, for
traced passes, the per-layer metrics.  The outputs are checked by
``run.py`` afterwards, so the check adds neither time nor memory here.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from calibrate import kernel_s

#: fewest warm passes of an interpreter; with tracing, of each kind
#: (untraced, traced)
MIN_PASSES = {False: 1, True: 2}
#: kernel runs of one calibration sample (the fastest of them)
KERNEL_RUNS = 3


def write_inputs(experiments, inputs_dir: Path) -> dict[str, str]:
    """Write each experiment's config; name -> config path."""
    inputs_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for exp in experiments:
        path = inputs_dir / f"{exp.name}.json"
        path.write_text(json.dumps(exp.config, sort_keys=True))
        paths[exp.name] = str(path)
    return paths


def run_pass(cli, experiments, seed: int, configs: dict, pass_dir: Path,
             tracer=None) -> dict:
    """One pass: every experiment once, in order, each waiting for the last.

    Records the wall and CPU time of each experiment and of the whole pass,
    and, outside those times, a calibration sample before the first
    experiment and after each one.
    """
    gc.collect()
    codes, walls, cpus, kernels = [], [], [], [kernel_s(KERNEL_RUNS)]
    for j, exp in enumerate(experiments):
        if tracer is not None:
            tracer.experiment = j
        w, c = time.perf_counter(), time.process_time()
        codes.append(cli.main(exp.argv(seed, configs[exp.name], str(pass_dir / exp.name))))
        walls.append(time.perf_counter() - w)
        cpus.append(time.process_time() - c)
        kernels.append(kernel_s(KERNEL_RUNS))
    return {"dir": pass_dir.name, "wall_s": sum(walls), "cpu_s": sum(cpus),
            "exp_wall_s": walls, "exp_cpu_s": cpus, "kernel_s": kernels,
            "exit_codes": codes, "traced": tracer is not None}


def measure(cli, experiments, seed: int, configs: dict, out: Path, index: int,
            seconds: float, trace: bool) -> dict:
    """The cold pass, then warm passes, all within `seconds`."""
    passes = []
    start = time.perf_counter()

    def one(tracer=None):
        pass_dir = out / f"i{index}_pass_{len(passes)}"
        passes.append(run_pass(cli, experiments, seed, configs, pass_dir, tracer))

    def warm(until: float, tracer=None):
        n = 0
        while n < MIN_PASSES[trace] or time.perf_counter() + passes[-1]["wall_s"] <= until:
            if tracer is not None:
                tracer.reset()
            one(tracer)
            if tracer is not None:
                layers.append(tracer.metrics())
            n += 1

    layers: list[dict] = []
    one()
    warm(start + (seconds / 2 if trace else seconds))
    result = {"passes": passes,
              "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if trace:
        from tracer import Tracer
        with Tracer() as tracer:
            warm(start + seconds, tracer)
            tracer.write_spans(out / "spans.csv")
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--index", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import numpy
    import scipy
    import onecentre.cli as cli
    experiments = workloads.experiments(args.workload)
    seed = workloads.program_seed(args.seed)
    configs = write_inputs(experiments, args.out / "inputs")
    ready = time.monotonic()
    (args.out / f"setup_{args.index}.txt").write_text(repr(ready))

    result = measure(cli, experiments, seed, configs, args.out, args.index,
                     args.seconds, bool(args.trace))
    result.update(python=sys.version.split()[0], numpy=numpy.__version__,
                  scipy=scipy.__version__, inputs_hash=workloads.inputs_hash(
                      args.workload, args.seed))
    (args.out / f"result_{args.index}.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
