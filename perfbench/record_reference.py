"""Record the correctness reference of the benchmark workloads.

    python3 perfbench/record_reference.py

Runs one pass of each workload per program seed (``workloads.REFERENCE_SEEDS``
of them; one pass when no experiment of the workload is seeded) through
``onecentre.cli.main`` and stores, per experiment, the exit code, the verdict,
the summary evidence and every CSV row as written into
``reference/<workload>.json.gz``.  Re-record only when a change is meant to
alter the program's outputs, and say why in the change.
"""

from __future__ import annotations

import argparse
import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import workloads  # noqa: E402
from worker import run_pass, write_inputs  # noqa: E402


def experiment_record(exp, exp_dir: Path, exit_code: int) -> dict:
    summary_path = exp_dir / check.summary_name(exp.subcommand)
    summary = json.loads(summary_path.read_text()) if summary_path.is_file() else None
    tables = {}
    for path in sorted(exp_dir.glob("*.csv")):
        columns, rows = check.read_csv(path)
        tables[path.name] = {"columns": columns, "rows": rows}
    return {"exit_code": exit_code,
            "verdict": None if summary is None else summary["verdict"],
            "evidence": None if summary is None else summary["evidence"],
            "tables": tables}


def record(workload: str, scratch: Path) -> dict:
    import onecentre.cli as cli
    experiments = workloads.experiments(workload)
    configs = write_inputs(experiments, scratch / "inputs")
    seeds = range(workloads.REFERENCE_SEEDS) if any(e.seeded for e in experiments) else [0]
    entries: dict = {e.name: ({"seeds": {}} if e.seeded else {}) for e in experiments}
    for seed in seeds:
        pass_dir = scratch / f"seed_{seed}"
        codes = run_pass(cli, experiments, seed, configs, pass_dir)["exit_codes"]
        for exp, code in zip(experiments, codes):
            rec = experiment_record(exp, pass_dir / exp.name, code)
            if exp.seeded:
                entries[exp.name]["seeds"][str(seed)] = rec
            elif "record" not in entries[exp.name]:
                entries[exp.name]["record"] = rec
            elif entries[exp.name]["record"] != rec:
                raise RuntimeError(f"{exp.name} is not seeded but its outputs "
                                   f"changed with the seed")
        print(f"{workload}: seed {seed} recorded", file=sys.stderr)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"workload": workload, "recorded_at_commit": commit,
            "reference_seeds": workloads.REFERENCE_SEEDS, "experiments": entries}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    (HERE / "reference").mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        scratch = HERE / "out" / "record" / workload
        shutil.rmtree(scratch, ignore_errors=True)
        data = record(workload, scratch)
        payload = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
        with open(HERE / "reference" / f"{workload}.json.gz", "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                fh.write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
