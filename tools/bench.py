"""Paired benchmark runs of a revision against this checkout, recorded in
the next ``BENCH_<n>.json``.

    python3 tools/bench.py REV

Run from anywhere.  It builds both sides in two temporary directories
and writes nothing under ``.git``: REV (the parent) from ``git archive``,
and the change from a copy of this checkout's files as they stand, the
ones ``git ls-files --cached --others --exclude-standard`` lists
(uncommitted edits and new files included, ignored files and deleted
ones left out).  So both sides run from fresh copies without the run
output (``perfbench/out/``) a working checkout collects.  On every
workload W of ``BENCHMARK.json`` it runs ``PAIRS`` pairs of

    python3 perfbench/run.py --workload W --seed k --seconds S

with S the file's ``run_seconds``: pair i runs both sides at seed
``FIRST_SEED + i``, and the side that runs first alternates from pair to
pair, so a drift in the machine's speed falls on both sides alike.  Then
each side runs once with ``--trace 1`` at seed ``TRACE_SEED``; a traced
run is slower, so its line gives the counters and the split of time
between layers, and seconds are compared only between untraced runs.  A
run that exits 3 (a result, but the check found a problem) is recorded as
``"correct": false``; any other failure, or no result line, ends the tool.
Both copies are removed at the end in every case.

Per workload it prints, for every end-to-end metric, each side's median and
quartiles and the change's wins: the pairs where the change is better in
the metric's direction, ties counting for neither side.  It then writes
``BENCH_<n>.json`` at the root, with the first n not yet taken: REV's hash,
this checkout's ``git describe``, the machine, the seeds, ``STALE`` (the
traced metrics that do not measure what their name says, with the reason)
and, per workload, the record `summarise` makes.  An A/A run, REV = HEAD on
a clean tree, measures the noise floor a claim has to clear.
"""

from __future__ import annotations

import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import cpu_model  # noqa: E402

#: alternating pairs of runs per workload
PAIRS = 10
#: pair i runs at seed FIRST_SEED + i
FIRST_SEED = 20
#: the seed of each side's traced run
TRACE_SEED = 0
SIDES = ("parent", "change")

#: traced metrics that read a wrong value, with the reason
STALE = {
    "flow.transmission_calls": "counts calls of transmission_extend, a function "
                               "folded into extended_flow, so it reads 0",
    "simulator.dense_evals": "counts Trajectory.state_at calls only: the variational "
                             "probe reads its fall at every grid node through "
                             "Fall.positions, one pre.dense call on an array of times, "
                             "so `action` reads 2",
}


def run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The JSON result line of one benchmark run in `checkout`."""
    argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode not in (0, 3):      # 3: a result, but the check found a problem
        sys.stderr.write(proc.stderr)
        sys.exit(f"{' '.join(argv)} in {checkout} exited with status {proc.returncode}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"{' '.join(argv)} in {checkout} printed no result line")


def git(*args: str, text: bool = True):
    """The output of one git command in this checkout; no optional lock is
    taken, so a status-like command does not rewrite the index."""
    out = subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT, check=True,
                         capture_output=True, text=text).stdout
    return out.strip() if text else out


def export(rev: str, dest: Path) -> None:
    """The files of commit `rev`, written under `dest` by ``git archive``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev, text=False))) as tar:
        tar.extractall(dest, filter="data")


def copy_files(root: Path, names: list[str], dest: Path) -> None:
    """The files `names` (relative to `root`) copied under `dest`, those
    missing from `root` left out."""
    for name in names:
        source = root / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs where the change is better in the direction `better`."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def summarise(end_to_end: list[dict], lines: dict, traced: dict) -> dict:
    """One workload's record: per side, the `correct` flags and, for every
    end-to-end metric, the values in pair order with their median and
    quartiles, and the traced line; the change's wins per metric."""
    record = {}
    for side in SIDES:
        record[side] = {"correct": [line["correct"] for line in lines[side]]}
        for metric in end_to_end:
            values = [line["metrics"][metric["name"]]["value"] for line in lines[side]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            record[side][metric["name"]] = {"values": values, "median": median,
                                            "q1": q1, "q3": q3}
        record[side]["traced"] = traced[side]
    record["wins"] = {m["name"]: wins(record["parent"][m["name"]]["values"],
                                      record["change"][m["name"]]["values"], m["better"])
                      for m in end_to_end}
    return record


def table(workload: str, end_to_end: list[dict], record: dict) -> str:
    """The printed comparison of one workload's record."""
    rows = [f"\n{workload}: parent against change, {PAIRS} pairs",
            f"{'metric':<12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
            f"  wins  median change"]
    for metric in end_to_end:
        name = metric["name"]
        p, c = record["parent"][name], record["change"][name]
        cells = [f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]" for s in (p, c)]
        delta = f"{c['median'] / p['median'] - 1.0:+.2%}" if p["median"] else "n/a"
        rows.append(f"{name:<12} {cells[0]:>34} {cells[1]:>34}"
                    f"  {record['wins'][name]:>2}/{PAIRS}  {delta}")
    rows += [f"{side}: every run correct: {all(record[side]['correct'])}" for side in SIDES]
    return "\n".join(rows)


def next_path(root: Path) -> Path:
    """The first ``BENCH_<n>.json`` in `root` not yet taken."""
    n = 1
    while (root / f"BENCH_{n}.json").exists():
        n += 1
    return root / f"BENCH_{n}.json"


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    rev = sys.argv[1]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, end_to_end = bench["run_seconds"], bench["end_to_end"]
    record = {"parent": git("rev-parse", "--verify", f"{rev}^{{commit}}"),
              "change": git("describe", "--always", "--dirty", "--abbrev=40"),
              "cpu": cpu_model(), "python": platform.python_version(),
              "numpy": np.__version__, "run_seconds": seconds,
              "seeds": {"pairs": [FIRST_SEED + i for i in range(PAIRS)],
                        "traced": TRACE_SEED},
              "stale": STALE, "workloads": {}}
    tmp = Path(tempfile.mkdtemp(prefix="bench-"))
    checkouts = {side: tmp / side for side in SIDES}
    try:
        export(record["parent"], checkouts["parent"])
        names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        copy_files(ROOT, names.split("\0"), checkouts["change"])
        for workload in (w["name"] for w in bench["workloads"]):
            lines = {side: [] for side in SIDES}
            for i in range(PAIRS):
                for side in SIDES[::-1] if i % 2 else SIDES:
                    line = run(checkouts[side], workload, FIRST_SEED + i, seconds, 0)
                    lines[side].append(line)
                    print(f"{workload} pair {i} {side}: wall_s "
                          f"{line['metrics']['wall_s']['value']:.4f}"
                          f" correct {line['correct']}", flush=True)
            traced = {side: run(checkouts[side], workload, TRACE_SEED, seconds, 1)
                      for side in SIDES}
            summary = summarise(end_to_end, lines, traced)
            record["workloads"][workload] = summary
            print(table(workload, end_to_end, summary), flush=True)
    finally:
        shutil.rmtree(tmp)
    path = next_path(ROOT)
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
