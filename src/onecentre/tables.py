"""Result tables for convergence studies, with CSV export and limit extrapolation.

Every sweep in this package reports its cells through a :class:`ConvergenceTable`
so that CSV output is deterministic (fixed column order, round-trip float
formatting), and limit verdicts and failed cells each have one shared rule.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence


def format_value(v) -> str:
    """Round-trip decimal formatting: repr for floats (numpy float64 included,
    written as a plain number), str otherwise."""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


@dataclass
class ConvergenceTable:
    """A grid of schedule cells mapped to scalar observables.

    columns: ordered column names (first columns are schedule parameters).
    rows: one tuple per cell, in schedule order (never completion order).
    meta: free-form metadata (schedule description, tolerances, verdicts).
    """

    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(tuple(values))

    def attempt(self, record: str, key: tuple, prefix: tuple, compute: Callable):
        """Run compute(), which adds one schedule cell's rows.  If it raises
        ValueError or RuntimeError, add instead the row `prefix` padded with
        nan and append (*key, message) to meta[record]; the schedule goes on."""
        try:
            return compute()
        except (ValueError, RuntimeError) as exc:
            self.add(*prefix, *(math.nan,) * (len(self.columns) - len(prefix)))
            self.meta.setdefault(record, []).append((*key, str(exc)))

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([format_value(v) for v in row])


def aitken_limit(values: Sequence[float]) -> float:
    """Aitken delta-squared extrapolant from the last three values.

    Exact for sequences x_k = L + C*q^k (any fixed ratio q != 1, including
    |q| > 1, where it recovers the repelling fixed point).
    """
    if len(values) < 3:
        raise ValueError("need at least three values")
    x0, x1, x2 = values[-3], values[-2], values[-1]
    d1 = x1 - x0
    d2 = x2 - x1
    denom = d2 - d1
    if denom == 0.0:
        return x2
    return x2 - d2 * d2 / denom


@dataclass(frozen=True)
class LimitVerdict:
    estimate: float
    converged: bool


def limit_verdict(values: Sequence[float], target: float) -> LimitVerdict:
    """Certify a finite schedule as evidence for a limit.

    The extrapolant comes from Aitken on the last three points; "converged"
    requires it to lie within 10 |last increment| of the target.
    """
    vals = [float(v) for v in values]
    if len(vals) < 3:
        raise ValueError("need at least three schedule points")
    est = aitken_limit(vals)
    inc = abs(vals[-1] - vals[-2])
    return LimitVerdict(est, abs(est - target) <= 10.0 * max(inc, 1e-300))


def is_decreasing(values: Iterable[float], slack: float = 0.0) -> bool:
    vals = list(values)
    return all(b <= a + slack for a, b in zip(vals, vals[1:]))
