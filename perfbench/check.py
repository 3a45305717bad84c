"""Correctness check of one pass against the recorded reference.

The reference (``reference/<workload>.json.gz``, written by
``record_reference.py``) holds, per experiment, the exit code, the verdict,
the summary evidence and every CSV row as written at the recording commit.

An *operation* is one row of an experiment's result table (a sweep cell,
audit sample, section sample, continuity cell, orbit, action comparison or
xi); an experiment without such a table (``check-potential``,
``transmission-demo``) is one operation.  An operation *fails* when

* the program marks it failed (a NaN row: ``cell_errors``,
  ``failed_samples``, ``marked_cells``; a missing orbit: ``failing``; a bound
  violation of ``bounds-audit``),
* its experiment exits with a numerical failure (every row fails), or
* it disagrees with the reference or with a built-in oracle.

The pass is *incorrect* when an operation disagrees with the reference or
an oracle, when an operation that succeeded in the reference fails, when
a verdict that held in the reference fails, or when the summary evidence
(limit estimates, ratios, failure lists, ...) disagrees with the reference.
Failures the reference shares (the known failing sweep cells) count in
``failed`` but are not mismatches.  A row that failed in the reference has
no reference value: if it now succeeds it is checked against the oracles
only, so fixing a failure is never a mismatch.  Such a fix also changes the
aggregates of its experiment, so the evidence of an experiment with a fixed
row is not compared.

Column tolerances ``(rel, abs)`` accept ``|x - ref| <= abs + rel |ref|``.
They follow the program's fixed tolerances: singular quadratures run at
relative tolerance 1e-10; root refinement uses brentq with xtol 1e-15 and
rtol 8.9e-16; the ODE runs at rtol 1e-12 per step, which over the few hundred
steps of a trajectory allows a global error of about 1e-10.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

EXACT = "exact"          # compared as written: schedule values, seeded draws, ids
SKIP = "skip"            # error estimates and drifts: bounded by an oracle instead
QUAD = (1e-10, 1e-14)    # singular quadrature (rel_tol 1e-10)
ROOT = (1e-12, 4e-15)    # brentq refinement (xtol 1e-15, rtol 8.9e-16)
ODE = (1e-10, 1e-10)     # plane integration (rtol 1e-12 per step)
ACTION = (1e-10, 1e-10)  # action differences (per-cell refinement tolerance 1e-10)
FORMULA = (1e-10, 1e-12) # closed forms of smoothed potential values

#: column tolerances and the column whose NaN marks a failed row, per table
TABLES = {
    "apsidal_sweep.csv": ("delta_theta", {
        "path_id": EXACT, "k": EXACT, "epsilon": EXACT, "l": EXACT,
        "R_minus": ROOT, "beta": ROOT, "delta_theta": QUAD, "quad_err": SKIP,
        "I1": QUAD, "I2": QUAD}),
    "bounds_audit.csv": (None, {
        "kind": EXACT, "epsilon": EXACT, "p1": EXACT, "p2": ROOT, "p3": ROOT,
        "value": FORMULA, "margin": FORMULA}),
    "pi_identity.csv": (None, {"xi": EXACT, "value": QUAD, "abs_error": SKIP}),
    "poincare_section.csv": ("tau", {
        "sample_id": EXACT, "q0x": ROOT, "q0y": ROOT, "v0x": ROOT, "v0y": ROOT,
        "epsilon": EXACT, "l": EXACT, "tau": ODE, "Sx": ODE, "Sy": ODE,
        "Svx": ODE, "Svy": ODE, "bracket_xi": EXACT}),
    "poincare_continuity.csv": ("dist_total", {
        "k": EXACT, "epsilon": EXACT, "l": EXACT, "dq": EXACT, "dv1": EXACT,
        "dist_total": ODE, "dist_pos": ODE, "dist_vel": ODE,
        "theta_increment": ODE}),
    "transmission_path.csv": (None, {
        "t": ODE, "x": ODE, "y": ODE, "vx": ODE, "vy": ODE, "r": ODE}),
    "oracle_crosscheck.csv": (None, {
        "orbit": EXACT, "E": EXACT, "l": ROOT, "period_ode": ODE,
        "period_quad": QUAD, "mismatch": SKIP, "dE": SKIP, "dl": SKIP}),
    "variational_probe.csv": (None, {
        "delta": EXACT, "T1": ODE, "dK_closed": ODE, "dK_discrete": ACTION,
        "dV": ACTION, "dA": ACTION, "collision_cell_depth": EXACT}),
}

#: experiments whose result is one operation rather than one per table row
SINGLE_OPERATION = {"check-potential", "transmission-demo"}

IDS = "ids"  # failure lists: which cells failed, not the messages
#: tolerance classes of summary evidence by key; numbers not named here (and
#: not derived in `_evidence_tol`) use QUAD, anything else must be equal
EVIDENCE = {
    "seed": SKIP,  # the program seed, set by the pass
    "cell_errors": IDS, "marked_cells": IDS, "failing": IDS,
    # error measures, bounded by the oracles instead
    "worst_abs_error": SKIP, "worst_drift": SKIP, "worst_period_mismatch": SKIP,
    "kinetic_mismatch": SKIP, "max_radius_asymmetry": SKIP,
    "T": ODE, "collision_time": ODE, "max_tau_dev": ODE, "max_trace_dev": ODE,
    "dA": ACTION,
}


def table_spec(csv_name: str):
    """(failure column, column tolerances) of a CSV the program writes."""
    if csv_name.startswith("poincare_section_delta"):
        csv_name = "poincare_section.csv"
    return TABLES[csv_name]


@dataclass
class Outcome:
    """Operations attempted and failed in one pass, and what was wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    fixed: int = 0  # operations that failed in the reference and succeed now

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.fixed += other.fixed

    @property
    def correct(self) -> bool:
        return not self.problems


def load_reference(path: Path) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def reference_record(reference: dict, name: str, seed: int) -> dict:
    entry = reference["experiments"][name]
    return entry["seeds"][str(seed)] if "seeds" in entry else entry["record"]


def summary_name(subcommand: str) -> str:
    return subcommand.replace("-", "_") + "_summary.json"


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def number(text: str) -> float:
    """A CSV cell as a float; numpy scalars are written as ``np.float64(x)``."""
    if text.startswith("np.float64("):
        text = text[len("np.float64("):-1]
    return float(text)


def _allowed(ref: float, tol) -> float:
    """Absolute deviation a (rel, abs) tolerance allows around `ref`."""
    rel, abs_ = tol
    return abs_ + rel * abs(ref)


def _near(x: float, r: float, allowed: float) -> bool:
    if x == r:
        return True
    if math.isnan(r):
        return math.isnan(x)
    return abs(x - r) <= allowed


def _within(value: str, ref: str, tol) -> bool:
    if tol == EXACT:
        return value == ref
    return _near(number(value), number(ref), _allowed(number(ref), tol))


def _row_oracle(csv_name: str, row: dict, config: dict) -> str | None:
    """A built-in oracle a row must satisfy, whatever the reference says."""
    v = {k: number(x) for k, x in row.items() if k not in ("path_id", "kind")}
    if csv_name == "pi_identity.csv" and not abs(v["value"] - math.pi) <= config["tol"]:
        return f"calibration integral {row['value']} is not pi within {config['tol']}"
    if csv_name == "oracle_crosscheck.csv":
        if not v["mismatch"] <= config["period_tol"]:
            return f"orbit {row['orbit']}: period mismatch {row['mismatch']}"
        if not max(v["dE"], v["dl"]) <= config["drift_budget"]:
            return f"orbit {row['orbit']}: drift {row['dE']}, {row['dl']}"
    if csv_name == "apsidal_sweep.csv" and not math.isnan(v["delta_theta"]):
        if not (0.0 < v["delta_theta"] < math.pi and 0.0 < v["R_minus"] < v["beta"]):
            return f"{row['path_id']} cell {row['k']}: angle {row['delta_theta']} out of (0, pi)"
    if csv_name == "variational_probe.csv" and \
            not abs(v["dK_discrete"] - v["dK_closed"]) < 1e-10:
        return f"delta {row['delta']}: discrete kinetic cost misses the closed form"
    return None


def _differing(columns, row: dict, old_row: dict, tols: dict) -> list[str]:
    """Columns of a row that are out of tolerance of the reference row."""
    return [c for c in columns
            if tols[c] != SKIP and not _within(row[c], old_row[c], tols[c])]


def _column(record: dict, csv_name: str, column: str, path_id=None) -> list[float]:
    """The values of a reference column that did not fail, in row order
    (of one sweep path when `path_id` is given)."""
    table = record["tables"][csv_name]
    rows = [dict(zip(table["columns"], r)) for r in table["rows"]]
    values = [number(r[column]) for r in rows
              if path_id is None or r["path_id"] == path_id]
    return [v for v in values if not math.isnan(v)]


def _aitken_allowed(values: list[float], tol) -> float:
    """How far the Aitken extrapolant of the last three values may move when
    each value moves within `tol` (sum of its partial derivatives' sizes)."""
    x0, x1, x2 = values[-3:]
    denom = x2 - 2.0 * x1 + x0
    r = (x2 - x1) / denom if denom else 0.0
    return (abs(1.0 - r) + abs(r)) ** 2 * max(_allowed(x, tol) for x in (x0, x1, x2))


def _evidence_tol(path: tuple, ref, exp, record: dict):
    """Tolerance of one evidence value: a class, or an absolute deviation
    carried over from the tolerances of the rows the value is derived from."""
    key = path[0]
    if key == "path_limits" and path[-1] == "estimate":
        return _aitken_allowed(
            _column(record, "apsidal_sweep.csv", "delta_theta", path[1]), QUAD)
    if key == "theta_limit":
        return _aitken_allowed(
            _column(record, "poincare_continuity.csv", "theta_increment"), ODE)
    if key == "decay_ratio":  # last dist_total over the first
        dists = _column(record, "poincare_continuity.csv", "dist_total")
        return abs(ref) * sum(_allowed(d, ODE) / abs(d) for d in (dists[0], dists[-1]))
    if key == "dV_over_delta_sq":  # the rows' dV over delta^2
        delta = exp.config["deltas"][path[1]]
        return _allowed(ref * delta ** 2, ACTION) / delta ** 2
    return EVIDENCE.get(key, QUAD)


def _ids(value):
    """A failure list without its messages (the last item of each entry)."""
    if isinstance(value, list) and value and isinstance(value[-1], str):
        return value[:-1]
    return [_ids(v) for v in value] if isinstance(value, list) else value


def _leaves(value, path: tuple):
    """(path, value) of every scalar in nested dicts and lists."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, path + (i,))
    else:
        yield path, value


def _agrees(value, ref, tol) -> bool:
    if tol == SKIP:
        return True
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (value, ref))
    if tol in (EXACT, IDS) or not numbers:
        return value == ref
    return _near(value, ref, _allowed(ref, tol) if isinstance(tol, tuple) else tol)


def check_evidence(exp, evidence: dict, record: dict) -> list[str]:
    """Evidence values of a summary that disagree with the reference."""
    bad = []
    ref_evidence = record["evidence"]
    for key in sorted(set(evidence) | set(ref_evidence)):
        value, ref = evidence.get(key), ref_evidence.get(key)
        if EVIDENCE.get(key) == IDS:
            value, ref = _ids(value), _ids(ref)
        leaves, ref_leaves = dict(_leaves(value, (key,))), dict(_leaves(ref, (key,)))
        if leaves.keys() != ref_leaves.keys():
            bad.append(f"evidence {key} = {value!r}, reference {ref!r}")
            continue
        bad += [f"evidence {'.'.join(map(str, p))} = {v!r}, reference {ref_leaves[p]!r}"
                for p, v in leaves.items()
                if not _agrees(v, ref_leaves[p], _evidence_tol(p, ref_leaves[p], exp, record))]
    return bad


def _violates_bound(csv_name: str, row: dict, config: dict) -> bool:
    return csv_name == "bounds_audit.csv" and \
        number(row["margin"]) < -float(config["violation_tol"])


def check_table(csv_name: str, path: Path, ref: dict, config: dict,
                label: str) -> Outcome:
    """Row-by-row comparison of one CSV with its reference rows."""
    fail_col, tols = table_spec(csv_name)
    out = Outcome(attempted=len(ref["rows"]))
    if not path.is_file():
        out.failed = out.attempted
        out.problems.append(f"{label}: {csv_name} was not written")
        return out
    columns, rows = read_csv(path)
    if columns != ref["columns"] or len(rows) != len(ref["rows"]):
        out.failed = out.attempted
        out.problems.append(f"{label}: {csv_name} has columns {columns} and "
                            f"{len(rows)} rows, reference {ref['columns']} and "
                            f"{len(ref['rows'])} rows")
        return out
    for i, (cur, old) in enumerate(zip(rows, ref["rows"])):
        row, old_row = dict(zip(columns, cur)), dict(zip(columns, old))
        failed_now = fail_col is not None and math.isnan(number(row[fail_col]))
        failed_then = fail_col is not None and math.isnan(number(old_row[fail_col]))
        problem = None
        out.fixed += failed_then and not failed_now
        if failed_now and not failed_then:
            problem = f"row {i} failed, but succeeded in the reference"
        elif not failed_now:
            problem = _row_oracle(csv_name, row, config)
            if problem is None and not failed_then:
                bad = _differing(columns, row, old_row, tols)
                if bad:
                    problem = "row {}: {} differ from the reference ({})".format(
                        i, ", ".join(bad),
                        "; ".join(f"{c} {row[c]} vs {old_row[c]}" for c in bad[:3]))
        if failed_now or problem or _violates_bound(csv_name, row, config):
            out.failed += 1
        if problem:
            out.problems.append(f"{label}: {csv_name} {problem}")
    return out


def _check_orbits(exp, record: dict, exp_dir: Path, label: str) -> Outcome:
    """oracle-crosscheck leaves failing orbits out of its table: align by orbit."""
    csv_name = "oracle_crosscheck.csv"
    ref = record["tables"][csv_name]
    path = exp_dir / csv_name
    out = Outcome(attempted=int(exp.config["orbits"]))
    if not path.is_file():
        out.failed = out.attempted
        out.problems.append(f"{label}: {csv_name} was not written")
        return out
    columns, rows = read_csv(path)
    current = {r[0]: dict(zip(columns, r)) for r in rows}
    recorded = {r[0]: dict(zip(ref["columns"], r)) for r in ref["rows"]}
    _, tols = table_spec(csv_name)
    for orbit in map(str, range(out.attempted)):
        row, old_row = current.get(orbit), recorded.get(orbit)
        if row is None:
            out.failed += 1
            if old_row is not None:
                out.problems.append(f"{label}: orbit {orbit} failed, but succeeded "
                                    f"in the reference")
            continue
        out.fixed += old_row is None
        problem = _row_oracle(csv_name, row, exp.config)
        if problem is None and old_row is not None:
            bad = _differing(columns, row, old_row, tols)
            if bad:
                problem = f"orbit {orbit}: {', '.join(bad)} differ from the reference"
        if problem:
            out.failed += 1
            out.problems.append(f"{label}: {problem}")
    return out


def check_experiment(exp, record: dict, exp_dir: Path, exit_code: int) -> Outcome:
    """Operations and problems of one experiment's outputs in one pass."""
    label = exp.name
    summary_path = exp_dir / summary_name(exp.subcommand)
    if exp.subcommand in SINGLE_OPERATION:
        expected = 1
    elif exp.subcommand == "oracle-crosscheck":
        expected = int(exp.config["orbits"])
    else:
        expected = sum(len(t["rows"]) for t in record["tables"].values())
    if not summary_path.is_file():
        out = Outcome(expected, expected)
        if record["verdict"] is not None:
            out.problems.append(f"{label}: numerical failure (exit {exit_code}), "
                                f"no summary written")
        return out
    with open(summary_path) as fh:
        summary = json.load(fh)

    out = Outcome()
    if record["verdict"] and not summary["verdict"]:
        out.problems.append(f"{label}: verdict held in the reference and fails now")
    if exp.subcommand == "oracle-crosscheck":
        out.add(_check_orbits(exp, record, exp_dir, label))
    else:
        for csv_name, ref in record["tables"].items():
            out.add(check_table(csv_name, exp_dir / csv_name, ref, exp.config, label))
    ev = summary["evidence"]
    if not out.fixed:
        out.problems += [f"{label}: {p}" for p in check_evidence(exp, ev, record)]
    if exp.subcommand == "transmission-demo" and \
            not (ev["endpoint_reflected"] and ev["max_radius_asymmetry"] < 1e-9):
        out.problems.append(f"{label}: the path does not reflect the fall")
    if exp.subcommand in SINGLE_OPERATION:
        return Outcome(1, int(bool(out.problems)), out.problems)
    return out


def check_pass(experiments, reference: dict, seed: int, pass_dir: Path,
               exit_codes: list[int]) -> Outcome:
    """Outcome of one pass of a workload (experiments in pass order)."""
    out = Outcome()
    for exp, code in zip(experiments, exit_codes):
        record = reference_record(reference, exp.name, seed)
        out.add(check_experiment(exp, record, pass_dir / exp.name, code))
    return out
