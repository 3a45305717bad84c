import ast
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import onecentre
from onecentre import apsidal, cli, flow, radial, simulator, variational
from onecentre.cli import main
from onecentre.potentials import logarithmic
from onecentre.radial import DropFromRest, case_anchor
from onecentre.variational import MAX_DEPTH, delta_action


def run_cli(args):
    return main(args)


def read_summary(out, name):
    with open(out / f"{name}_summary.json") as fh:
        return json.load(fh)


def test_check_potential_logarithmic(tmp_path):
    rc = run_cli(["check-potential", "--out", str(tmp_path)])
    assert rc == 0
    s = read_summary(tmp_path, "check_potential")
    ev = s["evidence"]
    assert ev["admissible"] is True
    assert ev["slowly_varying"] is True
    assert ev["weak_singularity"] is True
    assert ev["safe_radius"] == "inf"
    assert s["config_hash"]
    assert s["version"]


def test_check_potential_writes_an_inconclusive_slow_variation_as_null(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": {"family": "homogeneous", "alpha": 0.1}}))
    assert run_cli(["check-potential", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    ev = read_summary(tmp_path, "check_potential")["evidence"]
    assert ev["admissible"] is True
    assert ev["slowly_varying"] is None
    assert '"slowly_varying": null' in (tmp_path / "check_potential_summary.json").read_text()


def test_check_potential_with_expectations(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "potential": {"family": "homogeneous", "alpha": 1.0},
        "expect": {"admissible": False},
    }))
    rc = run_cli(["check-potential", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    cfg.write_text(json.dumps({
        "potential": {"family": "homogeneous", "alpha": 1.0},
        "expect": {"admissible": True},
    }))
    assert run_cli(["check-potential", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_check_potential_expects_values_as_the_summary_writes_them(tmp_path):
    # the evidence holds tuples, which JSON writes and reads as lists
    for potential, expect in (({"family": "logarithmic"}, {"notes": []}),
                              ({"family": "homogeneous", "alpha": 2.0},
                               {"witness": ["slope", 1e-08]})):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"potential": potential, "expect": expect}))
        assert run_cli(["check-potential", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        summary = read_summary(tmp_path, "check_potential")
        assert summary["verdict"] is True
        assert all(summary["evidence"][k] == v for k, v in expect.items())


def test_pi_identity_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"xi": [2.0]}))
    rc = run_cli(["pi-identity", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    s = read_summary(tmp_path, "pi_identity")
    assert s["verdict"] is True
    assert s["evidence"]["worst_abs_error"] < 1e-8
    csv_lines = (tmp_path / "pi_identity.csv").read_text().splitlines()
    assert csv_lines[0] == "xi,value,abs_error"


def test_tolerances_are_not_options(tmp_path):
    for flag, value in (("--tol-ode", "1e-6"), ("--tol-quad", "1"), ("--xi", "2.0")):
        with pytest.raises(SystemExit) as exc:
            run_cli(["pi-identity", "--out", str(tmp_path), flag, value])
        assert exc.value.code == 2
    # xi comes from the config, which the summary echoes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"xi": [2.0]}))
    assert run_cli(["pi-identity", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "pi_identity.csv").read_text().splitlines()) == 1 + 1
    assert read_summary(tmp_path, "pi_identity")["config"]["xi"] == [2.0]
    # the numerical tolerances are module constants, not parameters
    knobs = {"rtol", "atol", "rel_tol", "tol", "split", "limit"}
    for name in onecentre.__all__:
        obj = getattr(onecentre, name)
        if callable(obj):
            assert not knobs & set(inspect.signature(obj).parameters), name


def test_every_export_is_used_inside_the_package():
    # an export, or a public function or class of any module, that no module
    # uses serves only tests: delete it instead
    public, used = set(onecentre.__all__), set()
    for path in Path(onecentre.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        public.update(node.name for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update([node.module, *(alias.name for alias in node.names)])
    assert sorted(public - used) == []


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = run_cli(["pi-identity", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2


def _config_error(tmp_path, capsys, subcommand, cfg):
    """Run a subcommand on a bad config: exit code and the stderr line."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = run_cli([subcommand, "--config", str(path), "--out", str(tmp_path)])
    return rc, capsys.readouterr().err.strip()


def test_config_error_missing_case_energy(tmp_path, capsys):
    rc, err = _config_error(tmp_path, capsys, "transmission-demo",
                            {"case": {"type": "drop"}})
    assert rc == 2
    assert err == "config error: missing key 'case.energy'"


def test_config_error_non_numeric_tol(tmp_path, capsys):
    rc, err = _config_error(tmp_path, capsys, "pi-identity", {"tol": "abc"})
    assert rc == 2
    assert err == "config error: 'tol' must be a number, got 'abc'"


def test_config_error_unknown_potential_family(tmp_path, capsys):
    rc, err = _config_error(tmp_path, capsys, "check-potential",
                            {"potential": {"family": "nope"}})
    assert rc == 2
    assert err.startswith("config error: 'potential' {'family': 'nope'}")
    assert "unknown potential family" in err


@pytest.mark.parametrize("subcommand, cfg, message", [
    ("pi-identity", {"xi": []}, "'xi' must be a non-empty list of numbers, got []"),
    ("poincare-section", {"deltas": []},
     "'deltas' must be a non-empty list of numbers, got []"),
    ("bounds-audit", {"eps": []}, "'eps' must be a non-empty list of numbers, got []"),
    ("bounds-audit", {"samples": 0}, "'samples' must be a positive integer, got 0"),
    ("apsidal-sweep", {"exponents": []},
     "'exponents' must be a non-empty list of numbers, got []"),
    ("variational-probe", {"deltas": []},
     "'deltas' must be a non-empty list of numbers, got []"),
    ("variational-probe", {"n_cells": 4096.5},
     "'n_cells' must be a positive integer, got 4096.5"),
    ("oracle-crosscheck", {"orbits": 0}, "'orbits' must be a positive integer, got 0"),
    ("oracle-crosscheck", {"orbits": 2.7}, "'orbits' must be a positive integer, got 2.7"),
], ids=["xi-empty", "deltas-empty", "eps-empty", "samples-zero", "exponents-empty",
        "probe-deltas-empty", "n_cells-fractional", "orbits-zero", "orbits-fractional"])
def test_config_error_empty_or_nonintegral(tmp_path, capsys, subcommand, cfg, message):
    # an empty schedule or a fractional count gives no evidence for a verdict
    rc, err = _config_error(tmp_path, capsys, subcommand, cfg)
    assert rc == 2
    assert err == f"config error: {message}"


_HOM = {"family": "homogeneous", "alpha": 0.5}
_NO_REST = "drop case needs the rest radius inf inside the ball inf"
_NO_ZERO = "no orbit: E + V_eps has no zero above 1e-14 (E = %r, eps = 0.0)"
_INSIDE = "the collision datum at radius %r lies inside the collision threshold 1e-08"
# the rest radius of the logarithmic drop at E = -25: e^-25 to first_zero's
# absolute tolerance
_E25 = 1.3887948585624163e-11


@pytest.mark.parametrize("subcommand, cfg, message", [
    ("variational-probe", {"n_cells": 4098}, "'n_cells' must be divisible by 4, got 4098"),
    ("variational-probe", {"potential": _HOM, "energy": 0.0}, f"'energy' 0.0: {_NO_REST}"),
    ("poincare-continuity", {"potential": _HOM, "case": {"type": "drop", "energy": 0.0}},
     f"'case' {{'type': 'drop', 'energy': 0.0}}: {_NO_REST}"),
    ("transmission-demo", {"potential": _HOM, "case": {"type": "drop", "energy": 0.0}},
     f"'case' {{'type': 'drop', 'energy': 0.0}}: {_NO_REST}"),
    ("apsidal-sweep", {"potential": _HOM, "case": {"type": "drop", "energy": 0.0}},
     f"'case' {{'type': 'drop', 'energy': 0.0}}: {_NO_REST}"),
    ("poincare-section", {"case": {"type": "drop", "energy": 0, "ball_radius": 0.5}},
     "'case' {'type': 'drop', 'energy': 0, 'ball_radius': 0.5}: drop case needs the "
     "rest radius 1.0 inside the ball 0.5"),
    ("transmission-demo", {"case": {"type": "entry", "energy": 0, "ball_radius": 2}},
     "'case' {'type': 'entry', 'energy': 0, 'ball_radius': 2}: crossing case needs the "
     "rest radius 1.0 at or beyond the ball 2.0"),
    ("oracle-crosscheck", {"potential": {"family": "homogeneous", "alpha": 0.1}},
     "'potential' {'family': 'homogeneous', 'alpha': 0.1}: homogeneous(alpha=0.1) leaves "
     "the oracle no energy to draw: -V(50) = -0.6762433378062414 <= -0.5"),
    ("poincare-section", {"deltas": [-0.01], "samples": 2},
     "'deltas' must hold only positive numbers, got [-0.01]"),
    ("bounds-audit", {"eps": [-0.01]}, "'eps' must hold only positive numbers, got [-0.01]"),
    ("bounds-audit", {"eps": [0.0]}, "'eps' must hold only positive numbers, got [0.0]"),
    ("pi-identity", {"xi": [0.5]}, "'xi' must hold only numbers above 1, got [0.5]"),
    ("variational-probe", {"deltas": [-0.01]},
     "'deltas' must hold only positive numbers, got [-0.01]"),
    ("variational-probe", {"T1_factor": 1.5}, "'T1_factor' must be a number in (0, 1), got 1.5"),
    ("poincare-continuity", {"T_factor": 2.5}, "'T_factor' must be a number in (0, 2), got 2.5"),
    ("poincare-section", {"T_factor": 0.5}, "'T_factor' must be a number in (1, 2), got 0.5"),
    ("bounds-audit", {"samples": True}, "'samples' must be a positive integer, got True"),
    ("pi-identity", {"xi": ["2.0"]}, "'xi' must be a non-empty list of numbers, got ['2.0']"),
    ("pi-identity", {"tol": "1e-8"}, "'tol' must be a number, got '1e-8'"),
    ("check-potential", {"expected": {"admissible": True}}, "unknown key 'expected'"),
    ("check-potential", {"expect": [1]}, "'expect' must be an object, got [1]"),
    ("check-potential", {"expect": {"admissible": True, "bogus": 1}},
     "unknown key 'expect.bogus'"),
    ("pi-identity", {"xis": [2.0]}, "unknown key 'xis'"),
    ("apsidal-sweep", {"exponent": [2, 3]}, "unknown key 'exponent'"),
    ("bounds-audit", {"samples": 10, "seed": 3}, "unknown key 'seed'"),
    ("poincare-continuity", {"exponents": [2, 3], "T": 2.0}, "unknown key 'T'"),
    ("poincare-section", {"samples": 4, "sample": 99}, "unknown key 'sample'"),
    ("transmission-demo", {"energy": 1.0}, "unknown key 'energy'"),
    ("variational-probe", {"n_cells": 4096, "case": {"type": "drop", "energy": 0.0}},
     "unknown key 'case'"),
    ("oracle-crosscheck", {"orbits": 2, "orbit": 4}, "unknown key 'orbit'"),
    ("poincare-continuity", {"case": {"type": "drop", "energy": 0.0, "ball_raduis": 1.01}},
     "unknown key 'case.ball_raduis'"),
    ("check-potential", {"potential": {"family": "logarithmic", "alpha": 0.5}},
     "unknown key 'potential.alpha'"),
    ("apsidal-sweep", {"case": {"type": "drop", "energy": math.nan}},
     "'case.energy' must be a number, got nan"),
    ("apsidal-sweep", {"exponents": [2, 3, math.nan]},
     "'exponents' must be a non-empty list of numbers, got [2, 3, nan]"),
    ("apsidal-sweep", {"strong_tol": math.nan}, "'strong_tol' must be a number, got nan"),
    ("bounds-audit", {"energy": math.nan}, "'energy' must be a number, got nan"),
    ("bounds-audit", {"samples": 10 ** 400},
     f"'samples' must be a positive integer, got {10 ** 400}"),
    ("transmission-demo", {"case": {"type": "drop", "energy": 0.0, "ball_radius": math.inf}},
     "'case.ball_radius' must be a number, got inf"),
    ("variational-probe", {"deltas": [1e-2, -math.inf]},
     "'deltas' must be a non-empty list of numbers, got [0.01, -inf]"),
    ("check-potential", {"potential": {"family": "homogeneous", "alpha": math.nan}},
     "'potential.alpha' must be a number, got nan"),
    ("check-potential", {"potential": {"family": "homogeneous", "alpha": 10 ** 400}},
     f"'potential.alpha' must be a number, got {10 ** 400}"),
    ("check-potential", {"potential": {"family": "homogeneous", "alpha": True}},
     "'potential.alpha' must be a number, got True"),
    ("apsidal-sweep", {"potential": {"family": "homogeneous", "alpha": "0.5"}},
     "'potential.alpha' must be a number, got '0.5'"),
    # -log r = E + V has its zero below 1e-14, where first_zero stops looking
    ("apsidal-sweep", {"case": {"type": "drop", "energy": -33.0}},
     f"'case' {{'type': 'drop', 'energy': -33.0}}: {_NO_ZERO % -33.0}"),
    ("transmission-demo", {"case": {"type": "drop", "energy": -40.0}},
     f"'case' {{'type': 'drop', 'energy': -40.0}}: {_NO_ZERO % -40.0}"),
    ("poincare-continuity", {"case": {"type": "drop", "energy": -40.0}},
     f"'case' {{'type': 'drop', 'energy': -40.0}}: {_NO_ZERO % -40.0}"),
    ("variational-probe", {"energy": -40.0}, f"'energy' -40.0: {_NO_ZERO % -40.0}"),
    # the rest radius e^-25 lies inside COLLISION_RADIUS, where the integrator
    # refuses to start; the sweep, which does not integrate, takes it
    ("transmission-demo", {"case": {"type": "drop", "energy": -25.0}},
     f"'case' {{'type': 'drop', 'energy': -25.0}}: {_INSIDE % _E25}"),
    ("poincare-continuity", {"case": {"type": "drop", "energy": -25.0}},
     f"'case' {{'type': 'drop', 'energy': -25.0}}: {_INSIDE % _E25}"),
    ("poincare-section", {"case": {"type": "drop", "energy": -25.0}},
     f"'case' {{'type': 'drop', 'energy': -25.0}}: {_INSIDE % _E25}"),
    ("variational-probe", {"energy": -25.0}, f"'energy' -25.0: {_INSIDE % _E25}"),
    ("transmission-demo", {"case": {"type": "entry", "energy": 0.0, "ball_radius": 1e-9}},
     f"'case' {{'type': 'entry', 'energy': 0.0, 'ball_radius': 1e-09}}: {_INSIDE % 1e-9}"),
], ids=["n_cells-not-divisible-by-4", "probe-no-rest-radius", "continuity-no-rest-radius",
        "demo-no-rest-radius", "sweep-no-rest-radius", "section-rest-outside-ball",
        "demo-entry-inside-rest-radius", "oracle-no-bound-energy",
        "section-negative-delta", "audit-negative-eps", "audit-zero-eps", "xi-below-1",
        "probe-negative-delta", "T1_factor-above-1", "continuity-T_factor-above-2",
        "section-T_factor-below-1", "samples-bool", "xi-string", "tol-string",
        "check-potential-unknown-key", "expect-not-object", "expect-unknown-key",
        "pi-identity-unknown-key", "apsidal-sweep-unknown-key",
        "bounds-audit-unknown-key", "poincare-continuity-unknown-key",
        "poincare-section-unknown-key", "transmission-demo-unknown-key",
        "variational-probe-unknown-key", "oracle-crosscheck-unknown-key",
        "case-unknown-key", "potential-unknown-key",
        "sweep-nan-energy", "sweep-nan-exponent", "strong_tol-nan", "audit-nan-energy",
        "samples-beyond-float", "drop-infinite-ball", "probe-infinite-delta", "alpha-nan",
        "alpha-beyond-float", "alpha-bool", "alpha-string", "sweep-rest-radius-below-floor",
        "demo-rest-radius-below-floor", "continuity-rest-radius-below-floor",
        "probe-rest-radius-below-floor", "demo-datum-inside-collision-radius",
        "continuity-datum-inside-collision-radius", "section-datum-inside-collision-radius",
        "probe-datum-inside-collision-radius", "demo-entry-inside-collision-radius"])
def test_config_error_impossible_config(tmp_path, capsys, subcommand, cfg, message):
    # a key the subcommand does not read, a value the library would reject (a
    # bool or string posing as a number among them, and NaN, the infinities
    # and integers beyond the float range, which Python's json reads), a case
    # the potential cannot realise, or a grid without the nodes the probe
    # needs, is caught before any computation
    rc, err = _config_error(tmp_path, capsys, subcommand, cfg)
    assert rc == 2
    assert err == f"config error: {message}"
    assert not (tmp_path / f"{subcommand.replace('-', '_')}_summary.json").exists()


@pytest.mark.parametrize("subcommand", ["bounds-audit", "apsidal-sweep"])
def test_seed_must_be_a_non_negative_integer(tmp_path, capsys, subcommand):
    # a usage error, caught before any computation
    with pytest.raises(SystemExit) as exc:
        run_cli([subcommand, "--out", str(tmp_path), "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_apsidal_sweep_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"exponents": [2, 3, 4]}))
    rc = run_cli(["apsidal-sweep", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    s = read_summary(tmp_path, "apsidal_sweep")
    assert set(s["evidence"]["path_limits"]) == {"diagonal", "eps_first", "l_first"}
    lines = (tmp_path / "apsidal_sweep.csv").read_text().splitlines()
    assert lines[0] == "path_id,k,epsilon,l,R_minus,beta,delta_theta,quad_err,I1,I2"
    assert len(lines) == 1 + 9


def test_bounds_audit_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 50}))
    rc = run_cli(["bounds-audit", "--config", str(cfg), "--out", str(tmp_path),
                  "--seed", "7"])
    assert rc == 0
    s = read_summary(tmp_path, "bounds_audit")
    assert s["verdict"] is True
    assert s["evidence"]["violations"] == []


def test_bounds_audit_without_orbit_says_so(tmp_path, capsys):
    # at E = -40 + eps^2/2 the zero of E + V_eps lies below first_zero's 1e-14
    # floor, so the orbit l = eps does not exist: each eps keeps its envelope
    # rows, gets one nan factor row, and is named in failed_cells
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"energy": -40.0, "samples": 5}))
    rc = run_cli(["bounds-audit", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == ""
    s = read_summary(tmp_path, "bounds_audit")
    assert s["verdict"] is False
    assert s["evidence"]["failed_cells"] == [
        [0.01, "no orbit: E + V_eps has no zero above 1e-14 (E = -39.99995, eps = 0.01)"],
        [0.0001, "no orbit: E + V_eps has no zero above 1e-14 (E = -39.999999995, eps = 0.0001)"]]
    rows = (tmp_path / "bounds_audit.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == (["envelope"] * 5 + ["factor"]) * 2
    assert rows[5] == "factor,0.01,nan,nan,nan,nan,nan"


def test_variational_probe_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"deltas": [1e-2, 1e-3], "n_cells": 4096}))
    rc = run_cli(["variational-probe", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    s = read_summary(tmp_path, "variational_probe")
    assert all(d > 0 for d in s["evidence"]["dA"])
    assert s["evidence"]["kinetic_mismatch"] < 1e-10
    # the evidence is the meta of the library call, not a second computation
    meta = delta_action(case_anchor(DropFromRest(0.0), logarithmic()), [1e-2, 1e-3], 0.5,
                        4096).meta
    assert s["evidence"] == {k: meta[k] for k in ("dA", "kinetic_mismatch", "dV_over_delta_sq")}


def test_variational_probe_fails_on_unsettled_collision_cell(tmp_path):
    # homogeneous(0.5) at 2^12 cells: the collision cell reaches MAX_DEPTH
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": {"family": "homogeneous", "alpha": 0.5},
                               "energy": -1.0, "n_cells": 4096}))
    rc = run_cli(["variational-probe", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    s = read_summary(tmp_path, "variational_probe")
    assert s["verdict"] is False
    # the other evidence passes its own tests; "unsettled" names the cause
    depths = (tmp_path / "variational_probe.csv").read_text().splitlines()[1:]
    unsettled = [float(row.split(",")[0]) for row in depths
                 if int(row.split(",")[-1]) >= MAX_DEPTH]
    assert unsettled == [1e-2, 1e-3, 1e-4]
    assert s["evidence"]["unsettled"] == unsettled


def test_transmission_demo_command(tmp_path):
    rc = run_cli(["transmission-demo", "--out", str(tmp_path)])
    assert rc == 0
    s = read_summary(tmp_path, "transmission_demo")
    assert s["verdict"] is True
    assert abs(float(s["evidence"]["collision_time"]) - math.sqrt(math.pi / 2)) < 1e-8


def test_transmission_demo_long_fall(tmp_path):
    # the drop from rest at E = 5 falls from r = e^5 for e^5 sqrt(pi/2) ~ 186:
    # the path must cover the whole fall, whatever its length
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": {"type": "drop", "energy": 5.0}}))
    rc = run_cli(["transmission-demo", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    s = read_summary(tmp_path, "transmission_demo")
    assert s["verdict"] is True
    T0 = float(s["evidence"]["collision_time"])
    assert T0 == pytest.approx(math.exp(5.0) * math.sqrt(math.pi / 2), rel=1e-9)


def test_transmission_demo_deep_fall_writes_every_sample(tmp_path):
    # rest radius 1e-8, T0 ~ 1.25e-8: only the middle of the 201 samples is
    # the collision instant, however close the others lie to it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": {"type": "drop", "energy": -18.420680743952367}}))
    assert run_cli(["transmission-demo", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "transmission_path.csv").read_text().splitlines()[1:]
    assert len(rows) == 200
    T0 = float(read_summary(tmp_path, "transmission_demo")["evidence"]["collision_time"])
    assert T0 == pytest.approx(1e-8 * math.sqrt(math.pi / 2), rel=1e-6)


def test_oracle_crosscheck_command(tmp_path):
    # a positive potential has bounded orbits only below -V: the draws stay there
    for potential, seed in [({"family": "logarithmic"}, 3), *((_HOM, s) for s in range(4))]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"potential": potential, "orbits": 4}))
        rc = run_cli(["oracle-crosscheck", "--config", str(cfg), "--out", str(tmp_path),
                      "--seed", str(seed)])
        assert rc == 0, (potential, seed)
        s = read_summary(tmp_path, "oracle_crosscheck")
        assert s["evidence"]["worst_period_mismatch"] < 1e-6, (potential, seed)


_STEP_FAILED = "integration failed: required step size is less than spacing between numbers"
_NO_PERICENTRE = "pericentre is not positive"


@pytest.mark.parametrize("alpha, failing, finite_rows", [
    (1.9, {0: _STEP_FAILED, 1: _NO_PERICENTRE, 5: _NO_PERICENTRE, 6: _NO_PERICENTRE,
           7: _STEP_FAILED, 10: _STEP_FAILED, 12: _STEP_FAILED, 15: _STEP_FAILED,
           17: _STEP_FAILED, 19: _STEP_FAILED}, 10),
    (2.5, dict.fromkeys(range(20), _NO_PERICENTRE), 0),
], ids=["alpha-1.9", "alpha-2.5"])
def test_oracle_crosscheck_names_every_failed_orbit(tmp_path, capsys, alpha, failing,
                                                    finite_rows):
    # a failed orbit is a nan row and an entry of failing, and the run goes on;
    # an orbit whose pericentre the turning-point scan does not resolve (every
    # orbit at alpha > 2 reads 0.0) is refused before it integrates
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": {"family": "homogeneous", "alpha": alpha}}))
    rc = run_cli(["oracle-crosscheck", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == ""
    s = read_summary(tmp_path, "oracle_crosscheck")
    assert s["verdict"] is False
    assert [orbit for orbit, _ in s["evidence"]["failing"]] == list(failing)
    assert all(m.startswith(failing[orbit]) for orbit, m in s["evidence"]["failing"])
    rows = [row.split(",") for row in
            (tmp_path / "oracle_crosscheck.csv").read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(20))
    assert sum(row[3] != "nan" for row in rows) == finite_rows
    assert all(row[3:] == ["nan"] * 5 for row in rows if int(row[0]) in failing)


def test_poincare_continuity_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"exponents": [2, 3, 4]}))
    rc = run_cli(["poincare-continuity", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    s = read_summary(tmp_path, "poincare_continuity")
    assert s["evidence"]["nonincreasing"] is True
    header = (tmp_path / "poincare_continuity.csv").read_text().splitlines()[0]
    assert header == "k,epsilon,l,dq,dv1,dist_total,dist_pos,dist_vel,theta_increment"


def test_poincare_continuity_at_rest_says_why(tmp_path):
    # just before 2 T0 the unit drop is back at rest at its start, where
    # continuity is not claimed: the failed verdict names that cause
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T_factor": 1.999999999}))
    rc = run_cli(["poincare-continuity", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    s = read_summary(tmp_path, "poincare_continuity")
    assert s["verdict"] is False
    assert s["evidence"]["skipped"].startswith("|velocity(T)| = ")
    assert s["evidence"]["skipped"].endswith(" below 1e-8")
    assert s["evidence"]["marked_cells"] == []


#: the subcommands that take a case, each at a small config
_CASE_RUNS = {
    "apsidal-sweep": {"exponents": [2, 3, 4]},
    "poincare-continuity": {"exponents": [2, 3, 4]},
    "poincare-section": {"deltas": [1e-2], "samples": 6},
    "transmission-demo": {},
    "variational-probe": {"deltas": [1e-2], "n_cells": 64},
}


@pytest.mark.parametrize("subcommand", sorted(_CASE_RUNS))
def test_each_run_solves_its_case_once(tmp_path, monkeypatch, subcommand):
    # case_anchor is the one solve of a case, made once per run at config
    # time; the flight times take their turning points from their callers,
    # so the bare l = 0 rest radius is never found again, and turning_points
    # never sees l = 0
    counts = {"case_anchor": lambda case: True,
              "first_zero": lambda rp: rp.potential.epsilon == 0.0 and rp.ang_momentum == 0.0,
              "turning_points": lambda rp: rp.ang_momentum == 0.0}
    calls = dict.fromkeys(counts, 0)

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += counts[name](args[0])
            return fn(*args)
        return wrapper

    for name in counts:
        original = getattr(radial, name)
        wrapped = counting(name, original)
        for module in (onecentre, radial, simulator, apsidal, flow, variational, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapped)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_CASE_RUNS[subcommand]))
    assert run_cli([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert calls == {"case_anchor": 1, "first_zero": 1, "turning_points": 0}


def test_poincare_section_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"deltas": [1e-2, 1e-3], "samples": 8}))
    rc = run_cli(["poincare-section", "--config", str(cfg), "--out", str(tmp_path),
                  "--seed", "5"])
    assert rc == 0
    s = read_summary(tmp_path, "poincare_section")
    assert s["evidence"]["crossings"][0][0] == 8
    assert "failed_samples" not in s["evidence"]
    assert (tmp_path / "poincare_section_delta0.csv").exists()


def test_poincare_section_names_its_failed_samples(tmp_path):
    # just past the fall of the homogeneous(0.25) drop, the nearby samples of
    # delta 0.1 never change the sign of the section offset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "potential": {"family": "homogeneous", "alpha": 0.25},
        "case": {"type": "drop", "energy": -1.0},
        "T_factor": 1.02, "samples": 4, "deltas": [0.1]}))
    assert run_cli(["poincare-section", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    ev = read_summary(tmp_path, "poincare_section")["evidence"]
    assert ev["crossings"] == [[1, 4]]
    assert [entry[:2] for entry in ev["failed_samples"]] == [[0, 1], [0, 2], [0, 3]]
    for _, _, message in ev["failed_samples"]:
        assert message.startswith("no sign change of the section offset")


def test_poincare_section_brackets_late_sections_inside_the_domain(tmp_path):
    # at T_factor 1.85 the first bracket T + 0.1 T lies beyond 2 T0 of the
    # collision samples; they halve it and cross like the others
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T_factor": 1.85, "samples": 6, "deltas": [1e-2, 1e-3]}))
    assert run_cli(["poincare-section", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    ev = read_summary(tmp_path, "poincare_section")["evidence"]
    assert ev["crossings"] == [[6, 6], [6, 6]]
    assert "failed_samples" not in ev


def test_a_run_that_raises_writes_no_file(tmp_path, monkeypatch, capsys):
    # main writes the tables and the summary only after the whole run: a
    # failure outside every cell, here the second delta's section, leaves
    # --out empty, although the first delta's table was complete
    section = cli.poincare_section
    calls = []

    def failing_second(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == 2:
            raise RuntimeError("no section at this delta")
        return section(*args, **kwargs)

    monkeypatch.setattr(cli, "poincare_section", failing_second)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"deltas": [1e-2, 1e-3], "samples": 4}))
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(["poincare-section", "--config", str(cfg), "--out", str(out)]) == 1
    assert calls == [1e-2, 1e-3]
    assert capsys.readouterr().err == "numerical failure: no section at this delta\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("subcommand, cfg, csv_names", [
    ("apsidal-sweep", {"exponents": [2, 3, 4]}, ["apsidal_sweep.csv"]),
    ("bounds-audit", None, ["bounds_audit.csv"]),
    ("oracle-crosscheck", {"orbits": 4}, ["oracle_crosscheck.csv"]),
    ("poincare-section", {"deltas": [1e-2, 1e-3], "samples": 8},
     ["poincare_section_delta0.csv", "poincare_section_delta1.csv"]),
    ("transmission-demo", None, ["transmission_path.csv"]),
    ("variational-probe", {"n_cells": 4096}, ["variational_probe.csv"]),
], ids=["apsidal-sweep", "bounds-audit", "oracle-crosscheck", "poincare-section",
        "transmission-demo", "variational-probe"])
def test_deterministic_outputs(tmp_path, subcommand, cfg, csv_names):
    args = [subcommand, "--seed", "9"]
    if cfg is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        args += ["--config", str(cfg_path)]
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(args + ["--out", str(out)]) == 0
    summary = subcommand.replace("-", "_") + "_summary.json"
    for name in csv_names + [summary]:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cli_import_loads_no_scipy():
    # the runtime's quadrature and root finders are in-house; scipy is only a
    # test oracle
    src = str(Path(onecentre.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, onecentre.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        check=True)
    assert out.stdout.strip() == "[]"


# sha256 of the CSVs of small seeded runs, recorded before the reduced weight
# was inlined into the quadrature legs: a change meant to leave the numbers
# alone must leave every byte of these files alone.  The two sweeps of the
# benchmark's sweeps workload (33 quarter-decade exponents down to 1e-10,
# where the turning points' brackets lie deepest) were recorded before the
# turning-point scan read its grid sparsely; they exit 1 on their known
# failing cells
_WORKLOAD_EXPONENTS = [2 + 0.25 * i for i in range(33)]
_CSV_DIGESTS = {
    "apsidal-sweep-log": ("apsidal-sweep", {
        "potential": {"family": "logarithmic"},
        "case": {"type": "drop", "energy": 0.0}, "exponents": [2, 3, 4, 6]},
        "apsidal_sweep.csv", 0,
        "38b0a42897aab861a904284ecd645d96db5f8bab86e10f7995bd21a50748795e"),
    "apsidal-sweep-hom": ("apsidal-sweep", {
        "potential": {"family": "homogeneous", "alpha": 0.5},
        "case": {"type": "drop", "energy": -1.0}, "exponents": [2, 3, 4, 6]},
        "apsidal_sweep.csv", 0,
        "89ca4b2d89e66094cfddc5d96a736f566db37f55ef2523656ff65d470a3b7a82"),
    "apsidal-sweep-log-workload": ("apsidal-sweep", {
        "potential": {"family": "logarithmic"},
        "case": {"type": "drop", "energy": 0.0}, "exponents": _WORKLOAD_EXPONENTS},
        "apsidal_sweep.csv", 1,
        "5f42e6f59971923a8a1e112aaf47df8e130269f2805c113ae3641c8cba54a04c"),
    "apsidal-sweep-hom-workload": ("apsidal-sweep", {
        "potential": {"family": "homogeneous", "alpha": 0.5},
        "case": {"type": "drop", "energy": -1.0}, "exponents": _WORKLOAD_EXPONENTS},
        "apsidal_sweep.csv", 1,
        "6d290bedfcfae32fb3d26473bfa8ca77edede1864b63ddea8183f2d222c88c41"),
    "bounds-audit": ("bounds-audit", {"samples": 50}, "bounds_audit.csv", 0,
                     "260209592a1b75a31f56baf9675090b1ab1cc7f2e044f5f272fba12a634d5b94"),
}


@pytest.mark.parametrize("name", sorted(_CSV_DIGESTS))
def test_csv_bytes_pinned(tmp_path, name):
    subcommand, config, csv_name, rc, digest = _CSV_DIGESTS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == rc
    assert hashlib.sha256((tmp_path / csv_name).read_bytes()).hexdigest() == digest


# sha256 of the variational-probe CSV and summary at 2^12 cells, recorded
# before the probe's general-path layer was folded into delta_action: the
# homogeneous run's collision cell reaches MAX_DEPTH, so it exits 1 (its
# summary digest re-recorded when the evidence gained "unsettled"); all four
# re-recorded when the step-size control turned predictive after a run's
# first rejection (dV_over_delta_sq moved by at most 0.03 of check.py's ODE
# class)
_PROBE_DIGESTS = {
    "log": ({"n_cells": 4096}, 0,
            "8ab6d5867f9519a71b0ed3c6fb88a5023ccaf9ee09f7e5c9ac6144b99324b1d6",
            "ce9e98e734ccb689daced06a099bc642813237f6550c1c2423f0b58531e06360"),
    "hom": ({"potential": _HOM, "energy": -1.0, "n_cells": 4096}, 1,
            "aee7b197370fa5d9e039b524dc691ba97801e18342fc70ad9f69069e5f63ae37",
            "7cdfae86ead1d881b015544567a938f124937cdb6faa708f4af5d404becfb8a1"),
}


@pytest.mark.parametrize("name", sorted(_PROBE_DIGESTS))
def test_variational_probe_bytes_pinned(tmp_path, name):
    config, rc, csv_digest, summary_digest = _PROBE_DIGESTS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["variational-probe", "--config", str(cfg), "--out", str(tmp_path)]) == rc
    digests = [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
               for f in ("variational_probe.csv", "variational_probe_summary.json")]
    assert digests == [csv_digest, summary_digest]


# sha256 of the outputs of small orbit-side runs at seed 0, recorded before
# the section reference was computed once per run (the continuity and
# section digests again once the extended flow read smoothed orbits past
# their apse by the mirror, and the section and transmission CSVs once the
# transmission became the mirror R = -I, whose matrix product writes y = 0.0
# past the collision where the negation wrote -0.0), the oracle's once it
# measured its period apocentre to apocentre over one period, with a
# relative mismatch (period_ode moved by at most 0.24% of check.py's ODE
# class, 1e-10 + 1e-10 |period|), and again once it took the period as twice
# its run from the apocentre to the APSE stop, and the continuity summary
# once its collision_time became `radial.fall_time`; all of them again when
# the step-size control turned predictive after a run's first rejection
# (every number within 0.025 of the ODE class): CSVs first, then the summary
_ORBIT_DIGESTS = {
    "poincare-continuity": (None, [
        ("poincare_continuity.csv",
         "72963cf0170c44796eaf162d10ba0adce26d7ce92cce2f7f82400758f0e51dfd"),
        ("poincare_continuity_summary.json",
         "39990f4887f61d6462bc27e9dde8ff7bf0f9770c859c5f238746f0a3156437d5")]),
    "transmission-demo": (None, [
        ("transmission_path.csv",
         "c8bf01609df29449f00c4edf47b9bf89bfcf8e77c263f2b7a852240ca19e76ca"),
        ("transmission_demo_summary.json",
         "6c80e99663d2235dfb90c9d00fea9dd4f0099216079c3d3f48da767a17b69a12")]),
    "oracle-crosscheck": ({"orbits": 5}, [
        ("oracle_crosscheck.csv",
         "54805df10231bd91baf93319e8f2f4fbebc392f018cd8f18980dc0a60c835a76"),
        ("oracle_crosscheck_summary.json",
         "fa88fcae2f81b52859c1655c45c61db43473f82e77867d8768000795a0a2925a")]),
    "poincare-section": ({"samples": 4}, [
        ("poincare_section_delta0.csv",
         "d8a57d85eed85996b2e7f52b74a6ada7bbea433b7e71a7d7d185d36df6b76531"),
        ("poincare_section_delta1.csv",
         "8ba44deee75d62a54ad950c423461c6591f2f1e15279218a99954934455cb765"),
        ("poincare_section_delta2.csv",
         "1ed2fd3b48b6367c2eb310be77997ce6cb703847f4343a2e1c9e2d37f1875889"),
        ("poincare_section_summary.json",
         "84ceb5e9ac2b3a305c77535b08f03b6be69574d491a6cab5b4d97f7381f619fc")]),
}


def _seed0_digests(tmp_path, subcommand, config, rc, files):
    """(name, sha256) of `files` after a seed-0 run of `subcommand`, which
    must exit with rc."""
    args = [subcommand, "--seed", "0", "--out", str(tmp_path)]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", str(cfg)]
    assert run_cli(args) == rc
    return [(name, hashlib.sha256((tmp_path / name).read_bytes()).hexdigest())
            for name, _ in files]


@pytest.mark.parametrize("subcommand", sorted(_ORBIT_DIGESTS))
def test_orbit_output_bytes_pinned(tmp_path, subcommand):
    config, files = _ORBIT_DIGESTS[subcommand]
    assert _seed0_digests(tmp_path, subcommand, config, 0, files) == files


# sha256 of seed-0 outputs that the radial problem's integrals feed and no
# digest above covers, recorded before `RadialProblem` became the engine's one
# orbit value: the pi-identity files, whose Kepler orbit is a `RadialProblem`,
# and the summaries of the two workload sweeps, whose cell_errors carry the
# pericentre checks' messages.  The summary of the homogeneous(1.9) oracle,
# three of whose first eight orbits have a pericentre below the turning-point
# scan, was recorded once the oracle refused such orbits before integrating,
# and again when the step-size control turned predictive after a run's first
# rejection (its periods moved by at most 0.0044 of the ODE class; its
# worst_drift, an orbit far outside the drift budget either way, 44.3 -> 25.6).
# name -> (subcommand, config, exit code, files)
_RADIAL_DIGESTS = {
    "pi-identity": ("pi-identity", None, 0, [
        ("pi_identity.csv",
         "184c1b5a1199435c25d488cd7e238182e37c94fb74523b0b77aa58d5867397c3"),
        ("pi_identity_summary.json",
         "cdf8a656a59f7d94f65b8c9fa88bd533cc1f8ddec0c4937524477792bf5dbc1d")]),
    "apsidal-sweep-log-workload": (*_CSV_DIGESTS["apsidal-sweep-log-workload"][:2], 1, [
        ("apsidal_sweep_summary.json",
         "c91fe3d530ffb7ad83a17d3eb312a27faa3f82d42da483e7e365671e80b8cd0b")]),
    "apsidal-sweep-hom-workload": (*_CSV_DIGESTS["apsidal-sweep-hom-workload"][:2], 1, [
        ("apsidal_sweep_summary.json",
         "953faad9f5d79986ad572435d2257c51b1738c132028fe15ffb0b264851e2096")]),
    "oracle-crosscheck-hom-1.9": ("oracle-crosscheck", {
        "potential": {"family": "homogeneous", "alpha": 1.9}}, 1, [
        ("oracle_crosscheck_summary.json",
         "287dc7cdad60e2244a3f0c8f8910e8767552a6f1bc7d6b58f254abeed8b04d98")]),
}


@pytest.mark.parametrize("name", sorted(_RADIAL_DIGESTS))
def test_radial_output_bytes_pinned(tmp_path, name):
    subcommand, config, rc, files = _RADIAL_DIGESTS[name]
    assert _seed0_digests(tmp_path, subcommand, config, rc, files) == files
