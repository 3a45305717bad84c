"""Paired benchmark runs of a revision against this checkout.

    python3 tools/pairs.py REV WORKLOAD

Run from anywhere.  It checks REV out into a temporary ``git worktree`` and
runs ``PAIRS`` pairs of

    python3 perfbench/run.py --workload WORKLOAD --seed k --seconds S

with S the ``run_seconds`` of ``BENCHMARK.json``: in each pair one run in the
worktree (REV, the parent) and one in this checkout as it stands, with its
uncommitted edits (the change).  Pair i runs both sides at seed
``FIRST_SEED + i``, and the side that runs first alternates from pair to
pair, so a drift in the machine's speed falls on both sides alike.  For
every end-to-end metric of ``BENCHMARK.json`` it prints each side's median
and quartiles, the change's wins (the pairs where the change is better in
the metric's direction; ties count for neither side), and whether every
run of each side was ``"correct": true``.  A run that gives no result line
ends the tool.  The worktree is removed at the end in every case.

An A/A run, REV = HEAD on a clean tree, measures the noise floor a claim
has to clear: its win counts and median gaps come from noise alone.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: alternating pairs of runs per call
PAIRS = 10
#: pair i runs at seed FIRST_SEED + i
FIRST_SEED = 20


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The JSON result line of one benchmark run in `checkout`."""
    argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode not in (0, 3):      # 3: a result, but the check found a problem
        sys.stderr.write(proc.stderr)
        sys.exit(f"{' '.join(argv)} in {checkout} exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    rev, workload = sys.argv[1:]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": [], "change": []}
    tmp = Path(tempfile.mkdtemp(prefix="pairs-")) / "rev"
    subprocess.run(["git", "worktree", "add", "--detach", str(tmp), rev], cwd=ROOT,
                   check=True, capture_output=True)
    try:
        for i in range(PAIRS):
            order = [("parent", tmp), ("change", ROOT)]
            for side, checkout in order[::-1] if i % 2 else order:
                line = run(checkout, workload, FIRST_SEED + i, bench["run_seconds"])
                sides[side].append(line)
                print(f"pair {i} {side}: wall_s {line['metrics']['wall_s']['value']:.4f}"
                      f" correct {line['correct']}", flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(tmp)], cwd=ROOT,
                       check=True)
        tmp.parent.rmdir()

    print(f"\n{workload}: {rev} (parent) against this checkout (change), {PAIRS} pairs")
    print(f"{'metric':<12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
          f"  wins  median change")
    for metric in bench["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [line["metrics"][name]["value"] for line in lines]
                  for side, lines in sides.items()}
        cells = []
        for side in ("parent", "change"):
            q1, med, q3 = statistics.quantiles(values[side], n=4)
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        base, new = statistics.median(values["parent"]), statistics.median(values["change"])
        delta = f"{new / base - 1.0:+.2%}" if base else "n/a"
        print(f"{name:<12} {cells[0]:>34} {cells[1]:>34}  {wins:>2}/{PAIRS}  {delta}")
    for side, lines in sides.items():
        print(f"{side}: every run correct: {all(line['correct'] for line in lines)}")


if __name__ == "__main__":
    main()
