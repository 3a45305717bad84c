"""Outside-in tracer: spans and counters around the public functions of each
``onecentre`` layer, installed by patching module namespaces from outside.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces every
public function of each layer module by a wrapper in every ``onecentre``
module that bound it by name (``integrate`` lives in ``simulator`` but is
also bound in ``flow``, ``variational`` and ``cli``), wraps
``Trajectory.state_at`` and ``ConvergenceTable.write_csv`` on their classes,
and gives ``cli.from_config`` a wrapper whose potentials count their own
evaluations.  ``Tracer.restore`` puts every original back.

A span is ``[name, layer, start, end, parent, experiment, child_time,
failed]``; spans stay in memory until ``write_spans``.  A layer's self time
is the sum over its spans of duration minus the time covered by child spans.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import importlib
import inspect
import os
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("potentials", "radial", "quadrature", "apsidal", "simulator", "flow",
          "variational", "tables", "cli")

#: the per-layer metrics a traced pass reports, with their units
METRICS = {
    "simulator.self_s": "s",
    "simulator.integrate_calls": "count",
    "simulator.steps": "count",
    "simulator.rhs_evals": "count",
    "simulator.dense_evals": "count",
    "simulator.dense_s": "s",
    "flow.self_s": "s",
    "flow.samples": "count",
    "flow.crossings": "count",
    "flow.crossing_ratio": "ratio",
    "flow.transmission_calls": "count",
    "radial.self_s": "s",
    "radial.turning_points_calls": "count",
    "radial.turning_points_s": "s",
    "radial.collision_time_calls": "count",
    "radial.failed": "count",
    "quadrature.self_s": "s",
    "quadrature.calls": "count",
    "quadrature.integrand_evals": "count",
    "quadrature.failed": "count",
    "apsidal.self_s": "s",
    "apsidal.cells": "count",
    "apsidal.failed_cells": "count",
    "variational.self_s": "s",
    "variational.potential_evals": "count",
    "variational.max_depth": "count",
    "potentials.value_calls": "count",
    "potentials.deriv_calls": "count",
    "potentials.array_calls": "count",
    "potentials.classify_s": "s",
    "tables.write_csv_s": "s",
    "tables.csv_bytes": "bytes",
    "tables.limit_verdict_calls": "count",
    "cli.self_s": "s",
    "cli.calls": "count",
}

_NAME, _LAYER, _START, _END, _PARENT, _EXP, _CHILD, _FAILED = range(8)


def public_functions(module) -> dict:
    """name -> function for the functions a layer module defines publicly."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self):
        self.experiment = -1
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop the spans and counters of the previous pass."""
        self.spans: list[list] = []
        self._stack: list[int] = []
        # potential evaluations keyed by (kind, innermost span name)
        self.evals: Counter = Counter()
        self.array_calls = 0
        self.steps = 0
        self.samples = 0
        self.crossings = 0
        self.sweep_cells = 0
        self.sweep_failed = 0
        self.max_depth = 0
        self.csv_bytes = 0
        self._last_exc = None

    # --- wrapping -------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            parent = stack[-1] if stack else -1
            rec = [name, layer, perf_counter(), 0.0, parent, self.experiment, 0.0, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count a failure once, in the innermost span it left
                if exc is not self._last_exc:
                    rec[_FAILED] = True
                    self._last_exc = exc
                raise
            finally:
                rec[_END] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][_CHILD] += end - rec[_START]
            if on_return is not None:
                on_return(result, args)
            return result

        return wrapper

    def _counting(self, fn, kind: str):
        def counted(x):
            stack = self._stack
            top = self.spans[stack[-1]][_NAME] if stack else ""
            self.evals[kind, top] += 1
            if isinstance(x, np.ndarray):
                self.array_calls += 1
            return fn(x)

        return counted

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Patch every layer; raises if already installed."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"onecentre.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("onecentre"), *modules.values()]
        hooks = {
            "integrate": self._on_integrate,
            "poincare_section": self._on_section,
            "convergence_sweep": self._on_sweep,
            "potential_action": self._on_potential_action,
        }
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = self._wrap(fn, layer, name, hooks.get(name))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(ns, attr, wrappers[id(obj)])

        trajectory = modules["simulator"].Trajectory
        self._patch(trajectory, "state_at",
                    self._wrap(trajectory.state_at, "simulator", "state_at"))
        table = modules["tables"].ConvergenceTable
        self._patch(table, "write_csv",
                    self._wrap(table.write_csv, "tables", "write_csv", self._on_write_csv))

        cli = modules["cli"]
        spanned_from_config = cli.from_config

        def from_config(cfg):
            spec = spanned_from_config(cfg)
            return dataclasses.replace(
                spec, value=self._counting(spec.value, "value"),
                deriv=self._counting(spec.deriv, "deriv"),
                deriv2=self._counting(spec.deriv2, "deriv2"))

        self._patch(cli, "from_config", from_config)

    def restore(self) -> None:
        """Put back every original, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # --- counters taken from returned values ---------------------------------

    def _on_integrate(self, traj, args) -> None:
        self.steps += len(traj.times) - 1

    def _on_section(self, table, args) -> None:
        self.samples += table.meta["samples"]
        self.crossings += table.meta["crossings_found"]

    def _on_sweep(self, table, args) -> None:
        self.sweep_cells += len(table.rows)
        self.sweep_failed += len(table.meta.get("cell_errors", []))

    def _on_potential_action(self, result, args) -> None:
        self.max_depth = max(self.max_depth, result[1])

    def _on_write_csv(self, result, args) -> None:
        self.csv_bytes += os.path.getsize(args[1])

    # --- reporting ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The METRICS of the spans and counters recorded since reset()."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        failed = dict.fromkeys(LAYERS, 0)
        calls: Counter = Counter()
        incl: Counter = Counter()
        layer_of = {}
        for rec in self.spans:
            name, layer = rec[_NAME], rec[_LAYER]
            dur = rec[_END] - rec[_START]
            self_s[layer] += dur - rec[_CHILD]
            failed[layer] += rec[_FAILED]
            calls[name] += 1
            incl[name] += dur
            layer_of[name] = layer
        evals_by_layer: Counter = Counter()
        kinds: Counter = Counter()
        for (kind, top), n in self.evals.items():
            evals_by_layer[kind, layer_of.get(top, "")] += n
            kinds[kind] += n
        return {
            "simulator.self_s": self_s["simulator"],
            "simulator.integrate_calls": calls["integrate"],
            "simulator.steps": self.steps,
            "simulator.rhs_evals": self.evals["deriv", "integrate"],
            "simulator.dense_evals": calls["state_at"],
            "simulator.dense_s": incl["state_at"],
            "flow.self_s": self_s["flow"],
            "flow.samples": self.samples,
            "flow.crossings": self.crossings,
            "flow.crossing_ratio": self.crossings / self.samples if self.samples else 0.0,
            "flow.transmission_calls": calls["transmission_extend"],
            "radial.self_s": self_s["radial"],
            "radial.turning_points_calls": calls["turning_points"],
            "radial.turning_points_s": incl["turning_points"],
            "radial.collision_time_calls": calls["collision_time"],
            "radial.failed": failed["radial"],
            "quadrature.self_s": self_s["quadrature"],
            "quadrature.calls": calls["sqrt_endpoint_quad"] + calls["regularized_lower_quad"],
            "quadrature.integrand_evals": evals_by_layer["value", "quadrature"],
            "quadrature.failed": failed["quadrature"],
            "apsidal.self_s": self_s["apsidal"],
            "apsidal.cells": self.sweep_cells,
            "apsidal.failed_cells": self.sweep_failed,
            "variational.self_s": self_s["variational"],
            "variational.potential_evals": evals_by_layer["value", "variational"],
            "variational.max_depth": self.max_depth,
            "potentials.value_calls": kinds["value"],
            "potentials.deriv_calls": kinds["deriv"],
            "potentials.array_calls": self.array_calls,
            "potentials.classify_s": incl["classify"],
            "tables.write_csv_s": incl["write_csv"],
            "tables.csv_bytes": self.csv_bytes,
            "tables.limit_verdict_calls": calls["limit_verdict"],
            "cli.self_s": self_s["cli"],
            "cli.calls": calls["main"],
        }

    def write_spans(self, path) -> None:
        """One CSV line per span: name, layer, start, end, parent, experiment, failed."""
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["index", "name", "layer", "start_s", "end_s", "parent",
                         "experiment", "failed"])
            t0 = self.spans[0][_START] if self.spans else 0.0
            for i, rec in enumerate(self.spans):
                wr.writerow([i, rec[_NAME], rec[_LAYER], f"{rec[_START] - t0:.9f}",
                             f"{rec[_END] - t0:.9f}", rec[_PARENT], rec[_EXP],
                             int(rec[_FAILED])])
