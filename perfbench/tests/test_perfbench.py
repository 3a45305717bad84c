"""Tests of the benchmark itself: tracer, correctness check and metric names.

    python3 -m pytest perfbench/tests -q

Each workload is represented by its cheaper experiments, run once untraced
and once traced, seed 0.  Outputs go to ``perfbench/out/tests/``.
"""

from __future__ import annotations

import copy
import csv
import importlib
import inspect
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, METRICS, Tracer  # noqa: E402
from worker import run_pass, write_inputs  # noqa: E402

import onecentre.cli as cli  # noqa: E402

OUT = HERE / "out" / "tests"
SUBSETS = {
    "orbits": ("poincare-continuity", "transmission-demo", "oracle-crosscheck"),
    "sweeps": ("apsidal-sweep-log", "pi-identity", "check-potential"),
    "action": ("variational-probe-log",),
}


def _pass(workload: str, tag: str, tracer=None):
    exps = [e for e in workloads.experiments(workload) if e.name in SUBSETS[workload]]
    base = OUT / workload / tag
    shutil.rmtree(base, ignore_errors=True)
    configs = write_inputs(exps, base / "inputs")
    if tracer is None:
        return exps, run_pass(cli, exps, 0, configs, base / "pass")
    tracer.reset()
    return exps, run_pass(cli, exps, 0, configs, base / "pass", tracer)


def _namespace_snapshot() -> dict:
    names = [importlib.import_module("onecentre")] + \
        [importlib.import_module(f"onecentre.{layer}") for layer in LAYERS]
    snap = {(mod.__name__, k): v for mod in names for k, v in vars(mod).items()
            if callable(v)}
    for cls in (cli.ConvergenceTable,
                importlib.import_module("onecentre.simulator").Trajectory):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snap


@pytest.fixture(scope="module", params=sorted(SUBSETS))
def runs(request):
    workload = request.param
    exps, plain = _pass(workload, "plain")
    with Tracer() as tracer:
        _, traced = _pass(workload, "traced", tracer)
        metrics = tracer.metrics()
    return workload, exps, plain, traced, metrics


def test_tracing_leaves_outputs_byte_identical(runs):
    workload, exps, plain, traced, _ = runs
    base = OUT / workload
    files = sorted(p.relative_to(base / "plain" / "pass")
                   for p in (base / "plain" / "pass").rglob("*") if p.is_file())
    assert any(f.suffix == ".csv" for f in files)
    for rel in files:
        assert (base / "traced" / "pass" / rel).read_bytes() == \
            (base / "plain" / "pass" / rel).read_bytes(), rel
    assert plain["exit_codes"] == traced["exit_codes"]


def test_every_per_layer_metric_is_reported(runs):
    workload, _, _, _, metrics = runs
    assert set(metrics) == set(METRICS)
    assert all(isinstance(v, (int, float)) for v in metrics.values())
    if workload == "sweeps":
        assert metrics["simulator.integrate_calls"] == 0
        assert metrics["apsidal.cells"] == 99
    else:
        assert metrics["simulator.integrate_calls"] > 0


def test_outputs_match_the_reference(runs):
    workload, exps, plain, traced, _ = runs
    reference = check.load_reference(HERE / "reference" / f"{workload}.json.gz")
    for tag, result in (("plain", plain), ("traced", traced)):
        outcome = check.check_pass(exps, reference, 0, OUT / workload / tag / "pass",
                                   result["exit_codes"])
        assert outcome.correct, outcome.problems
        assert outcome.attempted > 0


def test_every_wrapper_is_restored():
    before = _namespace_snapshot()
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert _namespace_snapshot() != before
            1 / 0
    assert _namespace_snapshot() == before
    with tracer:
        _pass("sweeps", "restore", tracer)
    assert _namespace_snapshot() == before
    funcs = [fn for layer in LAYERS
             for fn in importlib.import_module(f"onecentre.{layer}").__dict__.values()
             if inspect.isfunction(fn)]
    assert not any(hasattr(fn, "__wrapped__") for fn in funcs)


def _sweep_log_outcome(rows_edit=None, evidence_edit=None):
    """Check the seed-0 log sweep, optionally after editing its CSV rows or
    its summary evidence."""
    exps = [e for e in workloads.experiments("sweeps") if e.name == "apsidal-sweep-log"]
    reference = check.load_reference(HERE / "reference" / "sweeps.json.gz")
    ref = check.reference_record(reference, "apsidal-sweep-log", 0)
    base = OUT / "sweeps" / "edited"
    shutil.rmtree(base, ignore_errors=True)
    exp_dir = base / "apsidal-sweep-log"
    exp_dir.mkdir(parents=True)
    table = ref["tables"]["apsidal_sweep.csv"]
    rows = [list(r) for r in table["rows"]]
    if rows_edit is not None:
        rows_edit(table["columns"], rows)
    with open(exp_dir / "apsidal_sweep.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([table["columns"], *rows])
    evidence = copy.deepcopy(ref["evidence"])
    if evidence_edit is not None:
        evidence_edit(evidence)
    (exp_dir / check.summary_name("apsidal-sweep")).write_text(
        json.dumps({"verdict": ref["verdict"], "evidence": evidence}))
    return check.check_pass(exps, reference, 0, base, [ref["exit_code"]]), table, rows


def _known_failure_index(columns, rows) -> int:
    key = [columns.index(c) for c in ("path_id", "epsilon", "l")]
    matches = [i for i, r in enumerate(rows)
               if [r[j] for j in key] == ["l_first", "0.01", "1e-10"]]
    assert len(matches) == 1
    return matches[0]


def test_failed_frac_counts_the_known_l_first_failure():
    outcome, table, rows = _sweep_log_outcome()
    i = _known_failure_index(table["columns"], rows)
    assert rows[i][table["columns"].index("delta_theta")] == "nan"
    nan_rows = sum(r[table["columns"].index("delta_theta")] == "nan" for r in rows)
    assert outcome.correct
    assert outcome.attempted == 99
    assert outcome.failed == nan_rows >= 1


def test_a_fixed_failure_is_no_mismatch_but_a_wrong_value_is():
    def fix(columns, rows):
        row = rows[_known_failure_index(columns, rows)]
        for c, v in (("R_minus", "1e-10"), ("beta", "1.0"), ("delta_theta", "1.5"),
                     ("quad_err", "1e-12"), ("I1", "1.0"), ("I2", "0.5")):
            row[columns.index(c)] = v

    base, _, _ = _sweep_log_outcome()
    fixed, _, _ = _sweep_log_outcome(fix)
    assert fixed.correct and fixed.failed == base.failed - 1

    def spoil(columns, rows):
        j = columns.index("delta_theta")
        good = next(r for r in rows if r[j] != "nan")
        good[j] = repr(float(good[j]) * (1 + 1e-8))

    spoiled, _, _ = _sweep_log_outcome(spoil)
    assert not spoiled.correct and spoiled.failed == base.failed + 1


def test_times_are_divided_by_the_faster_adjacent_calibration_sample():
    ref = calibrate.REFERENCE_S
    slow = {"exp_wall_s": [1.0, 2.0], "kernel_s": [ref, 2 * ref, 4 * ref]}
    fast = {"exp_wall_s": [3.0, 0.5], "kernel_s": [ref, ref, ref]}
    assert run.at_reference_speed(slow, "exp_wall_s") == pytest.approx([1.0, 1.0])
    assert run.pass_time([slow, fast], "exp_wall_s", min) == pytest.approx(1.5)


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {**METRICS, "trace.overhead_frac": "ratio"}


def _scale_estimate(evidence):
    evidence["path_limits"]["l_first"]["estimate"] *= 1 + 1e-8


def _flip_uniform(evidence):
    evidence["uniform"] = not evidence["uniform"]


def _drop_cell_error(evidence):
    evidence["cell_errors"].pop()


def _reword_cell_error(evidence):
    evidence["cell_errors"][0][-1] = "another message"


@pytest.mark.parametrize("edit, correct", [
    (_scale_estimate, False), (_flip_uniform, False), (_drop_cell_error, False),
    (_reword_cell_error, True)])
def test_summary_evidence_is_compared(edit, correct):
    base, _, _ = _sweep_log_outcome()
    edited, _, _ = _sweep_log_outcome(evidence_edit=edit)
    assert base.correct
    assert edited.correct == correct
    assert edited.failed == base.failed
