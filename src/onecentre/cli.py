"""Experiment runner: dispatches the package's sweeps from a declarative
configuration and writes CSV tables plus JSON verdict summaries.

Each subcommand is a function of its configuration and seed that returns its
verdict, evidence and tables; `main` alone writes the tables and the summary
``{claim, verdict, evidence, config, config_hash, version}``.  The process
exits 0 iff the verdict passes, 1 on a failed verdict or numerical failure
(with the failing cell identified), and 2 on configuration errors; a run that
raises writes no file.  Outputs are deterministic for a fixed configuration:
sampling is seeded, rows are written in schedule order, and floats are
formatted to round-trip.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .apsidal import (bounds_audit, calibration_integral, convergence_sweep,
                      default_paths)
from .flow import (continuity_experiment, diagonal_cells, extended_flow,
                   poincare_section, section_at)
from .potentials import classify, from_config
from .radial import Anchor, DropFromRest, InwardCrossing, case_anchor, fall_time
from .simulator import COLLISION_RADIUS, make_initial_data, oracle_crosscheck, oracle_energy_cap
from .tables import ConvergenceTable, format_value, is_decreasing
from .variational import delta_action


class ConfigError(Exception):
    pass


def _load_config(path: str | None, defaults: dict, optional: tuple) -> dict:
    """The defaults updated by the JSON object at `path`.  A key that is
    neither a default nor `optional` is a ConfigError naming it."""
    cfg = dict(defaults)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be an object")
        _known_keys(user, (*defaults, *optional))
        cfg.update(user)
    return cfg


def _known_keys(obj: dict, allowed, prefix: str = "") -> None:
    """A key of `obj` not in `allowed` is a ConfigError naming it, after
    `prefix` ("case.", "potential.", "expect.") for a nested object."""
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {prefix + key!r}")


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _is_number(value) -> bool:
    """A finite JSON number: bools, strings, NaN, the infinities and integers
    beyond the float range are not numbers."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(cfg: dict, key: str, ok=None, domain: str = "a number") -> float:
    """The number at `key` of cfg, as a float; a dotted key like "case.energy"
    reads cfg["case"]["energy"].  A missing value, or one that is not a
    number for which `ok` holds, is a ConfigError naming the key."""
    value = cfg
    for part in key.split("."):
        if not isinstance(value, dict) or part not in value:
            raise ConfigError(f"missing key {key!r}")
        value = value[part]
    if not (_is_number(value) and (ok is None or ok(float(value)))):
        raise ConfigError(f"{key!r} must be {domain}, got {value!r}")
    return float(value)


def _count(cfg: dict, key: str) -> int:
    """The positive integral number at `key` of cfg, as an int, or a
    ConfigError naming the key."""
    return int(_number(cfg, key, lambda v: v >= 1 and v.is_integer(),
                       "a positive integer"))


def _numbers(cfg: dict, key: str, ok=None, domain: str = "") -> list[float]:
    """The non-empty list of numbers cfg[key], as floats, or a ConfigError
    naming the key; with `ok`, every number must be one of `domain`."""
    values = cfg.get(key)
    if not (isinstance(values, list) and values and all(map(_is_number, values))):
        raise ConfigError(f"{key!r} must be a non-empty list of numbers, got {values!r}")
    if ok is not None and not all(ok(float(v)) for v in values):
        raise ConfigError(f"{key!r} must hold only {domain}, got {values!r}")
    return [float(v) for v in values]


def _positive(v: float) -> bool:
    return v > 0


def _potential(cfg: dict):
    """The potential of cfg["potential"]; an unknown family or a missing or
    bad parameter is a ConfigError."""
    spec = cfg["potential"]
    if isinstance(spec, dict):
        homogeneous = spec.get("family") == "homogeneous"
        _known_keys(spec, ("family", "alpha") if homogeneous else ("family",), "potential.")
        if homogeneous:
            _number(cfg, "potential.alpha")
    try:
        return from_config(spec)
    except KeyError as exc:
        raise ConfigError(f"missing key 'potential.{exc.args[0]}'") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"'potential' {spec!r}: {exc}") from None


def _case_from(cfg: dict, potential, key: str = "case") -> Anchor:
    """The collision case of cfg[key] solved in `potential`: the case object
    at "case", the drop from rest at the energy at "energy".  A case the
    potential cannot realise is a ConfigError naming `key`."""
    c = cfg[key]
    if key == "case" and isinstance(c, dict):
        _known_keys(c, ("type", "energy", "ball_radius"), "case.")
    if key == "energy":
        case = DropFromRest(_number(cfg, key))
    elif not isinstance(c, dict):
        raise ConfigError(f"'case' must be an object, got {c!r}")
    elif c.get("type", "drop") == "drop":
        case = DropFromRest(_number(cfg, "case.energy"),
                            _number(cfg, "case.ball_radius") if "ball_radius" in c
                            else math.inf)
    elif c["type"] == "entry":
        case = InwardCrossing(_number(cfg, "case.energy"), _number(cfg, "case.ball_radius"))
    else:
        raise ConfigError(f"unknown case type {c['type']!r} (use 'drop' or 'entry')")
    try:
        return case_anchor(case, potential)
    except ValueError as exc:
        raise ConfigError(f"{key!r} {c!r}: {exc}") from None


def _flow_case(cfg: dict, potential, key: str = "case") -> Anchor:
    """`_case_from` for a subcommand that integrates from the collision datum:
    one inside `COLLISION_RADIUS`, where no integration starts, is rejected."""
    anchor = _case_from(cfg, potential, key)
    if anchor.radius <= COLLISION_RADIUS:
        raise ConfigError(f"{key!r} {cfg[key]!r}: the collision datum at radius {anchor.radius!r} "
                          f"lies inside the collision threshold {COLLISION_RADIUS!r}")
    return anchor


# --- subcommands: each maps (config, seed) to (verdict, evidence, tables) ---

def cmd_check_potential(cfg: dict, seed: int) -> tuple:
    report = classify(_potential(cfg))
    evidence = {
        "admissible": report.admissible,
        "slowly_varying": report.slowly_varying,
        "weak_singularity": report.weak_singularity,
        "safe_radius": format_value(report.safe_radius),
        "monotone_radius": format_value(report.monotone_radius),
        "ratio_radius": format_value(report.ratio_radius),
        "slope_at_origin": report.slope_at_origin,
        "witness": report.witness,
        "notes": report.notes,
    }
    verdict = True
    expect = cfg.get("expect", {})
    if not isinstance(expect, dict):
        raise ConfigError(f"'expect' must be an object, got {expect!r}")
    _known_keys(expect, evidence, "expect.")
    if expect:
        # compared as the summary writes them: JSON holds lists, not tuples
        verdict = all(json.loads(json.dumps(evidence[k])) == v for k, v in expect.items())
        evidence["expect"] = expect
    return verdict, evidence, {}


def cmd_pi_identity(cfg: dict, seed: int) -> tuple:
    xis = _numbers(cfg, "xi", lambda v: v > 1, "numbers above 1")
    tol = _number(cfg, "tol")
    table = ConvergenceTable(("xi", "value", "abs_error"))
    worst = 0.0
    for xi in xis:
        val = calibration_integral(xi)
        err = abs(val - math.pi)
        worst = max(worst, err)
        table.add(xi, val, err)
    return worst <= tol, {"worst_abs_error": worst, "tol": tol, "cells": len(xis)}, \
        {"pi_identity.csv": table}


def cmd_apsidal_sweep(cfg: dict, seed: int) -> tuple:
    anchor = _case_from(cfg, _potential(cfg))
    paths = default_paths(_numbers(cfg, "exponents"))
    strong_tol = _number(cfg, "strong_tol")
    table = convergence_sweep(anchor, paths)
    limits = table.meta.get("path_limits", {})
    est = {pid: v["estimate"] for pid, v in limits.items()}
    converged = all(v["converged"] for v in limits.values()) and bool(limits)
    strong = bool(est) and all(abs(e - math.pi / 2) <= strong_tol for e in est.values()) \
        and table.meta.get("uniform", False)
    evidence = {"path_limits": limits, "uniform": table.meta.get("uniform"),
                "strong_regularizable": strong,
                "cell_errors": table.meta.get("cell_errors", [])}
    return converged and not table.meta.get("cell_errors"), evidence, \
        {"apsidal_sweep.csv": table}


def cmd_bounds_audit(cfg: dict, seed: int) -> tuple:
    table = bounds_audit(_potential(cfg),
                         _numbers(cfg, "eps", _positive, "positive numbers"),
                         _count(cfg, "samples"), seed,
                         _number(cfg, "energy"), _number(cfg, "violation_tol"))
    return not table.meta["violations"] and "failed_cells" not in table.meta, \
        {**table.meta, "samples_per_audit": cfg["samples"], "seed": seed}, \
        {"bounds_audit.csv": table}


def cmd_poincare_continuity(cfg: dict, seed: int) -> tuple:
    anchor = _flow_case(cfg, _potential(cfg))
    T = _number(cfg, "T_factor", lambda v: 0 < v < 2,
                "a number in (0, 2)") * fall_time(anchor)
    cells = diagonal_cells(_numbers(cfg, "exponents"))
    table = continuity_experiment(anchor, T, cells)
    meta = table.meta
    verdict = not meta.get("cell_failed") and bool(meta.get("nonincreasing")) \
        and bool(meta.get("theta_converged")) and meta.get("decay_ratio", math.inf) < 1.0
    evidence = {k: meta[k] for k in
                ("T", "collision_time", "nonincreasing", "decay_ratio",
                 "theta_limit", "theta_converged", "skipped") if k in meta}
    evidence["marked_cells"] = meta.get("marked_cells", [])
    return verdict, evidence, {"poincare_continuity.csv": table}


def cmd_poincare_section(cfg: dict, seed: int) -> tuple:
    anchor = _flow_case(cfg, _potential(cfg))
    T = _number(cfg, "T_factor", lambda v: 1 < v < 2,
                "a number in (1, 2)") * fall_time(anchor)
    tau_devs, trace_devs, found, failed, tables = [], [], [], [], {}
    samples = _count(cfg, "samples")
    deltas = _numbers(cfg, "deltas", _positive, "positive numbers")
    section = section_at(anchor, T)
    for j, delta in enumerate(deltas):
        table = poincare_section(section, delta, sample_count=samples, seed=seed)
        tables[f"poincare_section_delta{j}.csv"] = table
        tau_devs.append(table.meta["max_tau_dev"])
        trace_devs.append(table.meta["max_trace_dev"])
        found.append((table.meta["crossings_found"], table.meta["samples"]))
        failed += [(j, i, msg) for i, msg in table.meta.get("failed_samples", [])]
    all_found = all(f == s for f, s in found)
    verdict = all_found and is_decreasing(tau_devs) and is_decreasing(trace_devs)
    evidence = {"deltas": cfg["deltas"], "max_tau_dev": tau_devs,
                "max_trace_dev": trace_devs, "crossings": found, "seed": seed}
    if failed:
        evidence["failed_samples"] = failed
    return verdict, evidence, tables


def cmd_transmission_demo(cfg: dict, seed: int) -> tuple:
    anchor = _flow_case(cfg, _potential(cfg))
    y0 = make_initial_data(anchor)
    path = extended_flow(y0, 0.0, anchor.potential, fall_time(anchor),
                         anchor.case.ball_radius)
    T0 = path.half.t_end
    end = path.state_at(path.t_end)
    table = ConvergenceTable(("t", "x", "y", "vx", "vy", "r"))
    # the middle one of the 201 samples is the collision instant
    for t in np.delete(np.linspace(0.0, path.t_end, 201), 100):
        st = path.state_at(t)
        table.add(t, *st.as_vector().tolist(), st.r)
    end_ok = float(np.linalg.norm(end.position + y0.position)) < 1e-6 and \
        float(np.linalg.norm(end.velocity + y0.velocity)) < 1e-6 \
        if isinstance(anchor.case, DropFromRest) else True
    sym = []
    for s in np.linspace(0.1 * T0, 0.9 * T0, 7):
        sym.append(abs(path.state_at(T0 + s).r - path.state_at(T0 - s).r))
    verdict = end_ok and max(sym) < 1e-9
    return verdict, {"collision_time": T0, "endpoint_reflected": end_ok,
                     "max_radius_asymmetry": max(sym)}, {"transmission_path.csv": table}


def cmd_variational_probe(cfg: dict, seed: int) -> tuple:
    potential = _potential(cfg)
    deltas = _numbers(cfg, "deltas", _positive, "positive numbers")
    T1_factor = _number(cfg, "T1_factor", lambda v: 0 < v < 1, "a number in (0, 1)")
    anchor = _flow_case(cfg, potential, "energy")
    n_cells = _count(cfg, "n_cells")
    if n_cells % 4:
        raise ConfigError(f"'n_cells' must be divisible by 4, got {cfg['n_cells']!r}")
    table = delta_action(anchor, deltas, T1_factor, n_cells)
    meta = table.meta
    ratios = meta["dV_over_delta_sq"]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    verdict = all(dA > 0 for dA in meta["dA"]) and meta["kinetic_mismatch"] < 1e-10 \
        and increasing and not meta["unsettled"]
    evidence = {k: meta[k] for k in ("dA", "kinetic_mismatch", "dV_over_delta_sq")}
    # a cell still unsettled at MAX_DEPTH adds its coarse value: not converged
    if meta["unsettled"]:
        evidence["unsettled"] = meta["unsettled"]
    return verdict, evidence, {"variational_probe.csv": table}


def cmd_oracle_crosscheck(cfg: dict, seed: int) -> tuple:
    period_tol, drift_budget = _number(cfg, "period_tol"), _number(cfg, "drift_budget")
    potential = _potential(cfg)
    try:
        oracle_energy_cap(potential)
    except ValueError as exc:
        raise ConfigError(f"'potential' {cfg['potential']!r}: {exc}") from None
    table = oracle_crosscheck(potential, _count(cfg, "orbits"), seed)
    meta = table.meta
    verdict = meta["failing"] is None and meta["worst_period_mismatch"] <= period_tol \
        and meta["worst_drift"] <= drift_budget
    return verdict, {**meta, "seed": seed}, {"oracle_crosscheck.csv": table}


_LOG = {"family": "logarithmic"}
_DROP0 = {"type": "drop", "energy": 0.0}

#: subcommand -> (its function, claim, default config, optional config keys)
COMMANDS = {
    "check-potential": (cmd_check_potential, "potential class certification",
                        {"potential": _LOG}, ("expect",)),
    "pi-identity": (cmd_pi_identity, "the calibration integral equals pi for every xi > 1",
                    {"xi": [1.0001, 1.5, 2.0, 10.0, 1e6], "tol": 1e-8}, ()),
    "apsidal-sweep": (cmd_apsidal_sweep,
                      "the apsidal angle converges along every (eps, l) path",
                      {"potential": _LOG, "case": _DROP0, "exponents": [2, 3, 4, 5, 6],
                       "strong_tol": 1e-2}, ()),
    "bounds-audit": (cmd_bounds_audit,
                     "envelope >= r_outer and factor <= beta on seeded samples",
                     {"potential": _LOG, "eps": [1e-2, 1e-4], "samples": 1000,
                      "violation_tol": 1e-9, "energy": 0.0}, ()),
    "poincare-continuity": (cmd_poincare_continuity,
                            "the extended time-T map is continuous at the collision datum",
                            {"potential": _LOG, "case": _DROP0, "T_factor": 1.5,
                             "exponents": [2, 3, 4, 5, 6]}, ()),
    "poincare-section": (cmd_poincare_section,
                         "every nearby datum crosses the section, with hitting data "
                         "shrinking toward the anchor as the neighbourhood shrinks",
                         {"potential": _LOG, "case": _DROP0, "T_factor": 1.5,
                          "deltas": [1e-2, 1e-3, 1e-4], "samples": 50}, ()),
    "transmission-demo": (cmd_transmission_demo,
                          "the transmission path reflects the fall through the centre",
                          {"potential": _LOG, "case": _DROP0}, ()),
    "variational-probe": (cmd_variational_probe,
                          "the transmission path is not a local action minimizer",
                          {"potential": _LOG, "energy": 0.0, "deltas": [1e-2, 1e-3, 1e-4],
                           "T1_factor": 0.5, "n_cells": 2 ** 14}, ()),
    "oracle-crosscheck": (cmd_oracle_crosscheck,
                          "radial quadrature and plane integration agree on orbit periods "
                          "to the relative period_tol",
                          {"potential": _LOG, "orbits": 20, "period_tol": 1e-6,
                           "drift_budget": 1e-8}, ()),
}


def _seed(text: str) -> int:
    """The --seed argument: a non-negative integer, or a usage error."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="onecentre",
        description="experiment runner for the one-centre smoothing laboratory")
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=_seed, default=0)
    args = parser.parse_args(argv)

    run, claim, defaults, optional = COMMANDS[args.subcommand]
    try:
        cfg = _load_config(args.config, defaults, optional)
        verdict, evidence, tables = run(cfg, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        table.write_csv(out / name)
    summary = json.dumps({"claim": claim, "verdict": bool(verdict), "evidence": evidence,
                          "config": cfg, "config_hash": _config_hash(cfg),
                          "version": __version__}, indent=2, sort_keys=True)
    (out / f"{args.subcommand.replace('-', '_')}_summary.json").write_text(summary)
    print(summary)
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
