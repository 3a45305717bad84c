"""Paired benchmark runs of a revision against this checkout.

    python3 tools/pairs.py REV WORKLOAD

Run from anywhere.  It snapshots this checkout as it stands, uncommitted
edits and new files included and ignored files left out, as a commit on
HEAD (through a temporary index, so the checkout's own index and branch do
not move), checks that snapshot (the change) and REV (the parent) out into
two temporary ``git worktree`` directories, and runs ``PAIRS`` pairs of

    python3 perfbench/run.py --workload WORKLOAD --seed k --seconds S

with S the ``run_seconds`` of ``BENCHMARK.json``, one run of each pair in
each worktree.  Both sides thus run from fresh checkouts, with none of the
ignored run output (``perfbench/out/``) a working checkout collects.  Pair
i runs both sides at seed
``FIRST_SEED + i``, and the side that runs first alternates from pair to
pair, so a drift in the machine's speed falls on both sides alike.  For
every end-to-end metric of ``BENCHMARK.json`` it prints each side's median
and quartiles, the change's wins (the pairs where the change is better in
the metric's direction; ties count for neither side), and whether every
run of each side was ``"correct": true``.  A run that gives no result line
ends the tool.  Both worktrees are removed at the end in every case.

An A/A run, REV = HEAD on a clean tree, measures the noise floor a claim
has to clear: its win counts and median gaps come from noise alone.
"""

from __future__ import annotations

import json
import os
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


def git(*args: str, env: dict | None = None) -> str:
    """The output of one git command in this checkout."""
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def snapshot(tmp: Path) -> str:
    """A commit on HEAD of this checkout's files as they stand: tracked and
    new files, not ignored ones.  It is staged in an index of its own
    under `tmp`, and no ref names it."""
    env = {**os.environ, "GIT_INDEX_FILE": str(tmp / "index")}
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    tree = git("write-tree", env=env)
    return git("-c", "user.name=pairs", "-c", "user.email=pairs@localhost",
               "commit-tree", "-p", "HEAD", "-m", "pairs.py snapshot", tree)


def main() -> None:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    rev, workload = sys.argv[1:]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": [], "change": []}
    tmp = Path(tempfile.mkdtemp(prefix="pairs-"))
    checkouts = {"parent": tmp / "parent", "change": tmp / "change"}
    try:
        revs = {"parent": rev, "change": snapshot(tmp)}
        for side in sides:
            git("worktree", "add", "--detach", str(checkouts[side]), revs[side])
        for i in range(PAIRS):
            order = ["parent", "change"]
            for side in order[::-1] if i % 2 else order:
                line = run(checkouts[side], workload, FIRST_SEED + i, bench["run_seconds"])
                sides[side].append(line)
                print(f"pair {i} {side}: wall_s {line['metrics']['wall_s']['value']:.4f}"
                      f" correct {line['correct']}", flush=True)
    finally:
        for checkout in checkouts.values():
            if checkout.exists():
                git("worktree", "remove", "--force", str(checkout))
        (tmp / "index").unlink(missing_ok=True)
        tmp.rmdir()

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
