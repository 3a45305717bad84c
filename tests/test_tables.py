import math

import numpy as np
import pytest

from onecentre import apsidal, flow, simulator
from onecentre.apsidal import bounds_audit, convergence_sweep, default_paths
from onecentre.flow import continuity_experiment, diagonal_cells, poincare_section, section_at
from onecentre.potentials import logarithmic
from onecentre.radial import DropFromRest, case_anchor, fall_time
from onecentre.simulator import oracle_crosscheck
from onecentre.tables import (ConvergenceTable, aitken_limit, format_value,
                              is_decreasing, limit_verdict)


def test_aitken_exact_on_geometric_sequences():
    for q in (0.5, 0.1, -0.3, 3.0):
        seq = [2.0 + 0.7 * q ** k for k in range(5)]
        assert aitken_limit(seq) == pytest.approx(2.0, abs=1e-12)


def test_aitken_needs_three_points():
    with pytest.raises(ValueError):
        aitken_limit([1.0, 2.0])


def test_limit_verdict_with_target():
    seq = [1.0 + 0.5 ** k for k in range(1, 7)]
    v = limit_verdict(seq, target=1.0)
    assert v.converged
    assert v.estimate == pytest.approx(1.0, abs=1e-10)
    # a sequence heading elsewhere is rejected against the target
    v = limit_verdict([2.0 + 0.5 ** k for k in range(1, 7)], target=1.0)
    assert not v.converged


def test_is_decreasing():
    assert is_decreasing([3.0, 2.0, 2.0, 1.0])
    assert not is_decreasing([1.0, 2.0])
    assert is_decreasing([1.0, 1.0 + 1e-12], slack=1e-9)


def test_table_roundtrip_csv(tmp_path):
    t = ConvergenceTable(("a", "b"))
    t.add(1, 0.1)
    t.add(2, float("inf"))
    with pytest.raises(ValueError):
        t.add(1)
    path = tmp_path / "t.csv"
    t.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.1"
    assert lines[2] == "2,inf"
    # float formatting round-trips
    assert float(lines[1].split(",")[1]) == 0.1
    assert t.column("b")[0] == 0.1


def test_table_deterministic_output(tmp_path):
    def build():
        t = ConvergenceTable(("x", "y"))
        for k in range(5):
            t.add(k, math.sqrt(2.0) / (k + 1))
        return t
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    build().write_csv(p1)
    build().write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("value, text", [
    (0.1, "0.1"),
    (-0.0, "-0.0"),
    (1e-300, "1e-300"),
    (np.float64(0.011006158657879572), "0.011006158657879572"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (np.float64(np.inf), "inf"),
    (np.float64(-np.inf), "-inf"),
    (math.nan, "nan"),
    (np.float64(np.nan), "nan"),
    (3, "3"),
    (np.int64(3), "3"),
    ("diagonal", "diagonal"),
])
def test_format_value_exact_strings(value, text):
    assert format_value(value) == text


def test_numpy_floats_written_as_plain_numbers(tmp_path):
    assert format_value(np.float64(0.011006158657879572)) == "0.011006158657879572"
    assert format_value(np.float64(-np.inf)) == "-inf"
    t = ConvergenceTable(("a", "b"))
    t.add(np.int64(3), np.float64(0.1))
    path = tmp_path / "t.csv"
    t.write_csv(path)
    assert path.read_text().splitlines()[1] == "3,0.1"


# --- one failure rule for every experiment cell ------------------------------

_ANCHOR = case_anchor(DropFromRest(0.0), logarithmic())
_T = 1.5 * fall_time(_ANCHOR)
_MESSAGE = "injected failure"

#: experiment -> (run, module, primitive, the call that raises, record,
#: (first, end) of the cell's rows in the unpatched table, prefix length,
#: the record's entry)
_CELL_FAILURES = {
    # call 1 of the sweep is diagonal cell k = 1
    "convergence_sweep": (
        lambda: convergence_sweep(_ANCHOR, default_paths([2, 3, 4])),
        apsidal, "_sweep_cell", 1, "cell_errors", (1, 2), 4, ("diagonal", 1, _MESSAGE)),
    # call 0 is the reference path, call 2 cell k = 1
    "continuity_experiment": (
        lambda: continuity_experiment(_ANCHOR, _T, diagonal_cells([2, 3, 4])),
        flow, "extended_flow", 2, "marked_cells", (1, 2), 5,
        (1, f"eps=0.001, l=0.001: {_MESSAGE}")),
    # call 0 is section_at's path; sample 0 reuses it, so call 2 is sample 2
    "poincare_section": (
        lambda: poincare_section(section_at(_ANCHOR, _T), 1e-2, 4, 0),
        flow, "extended_flow", 2, "failed_samples", (2, 3), 7, (2, _MESSAGE)),
    "oracle_crosscheck": (
        lambda: oracle_crosscheck(logarithmic(), 4, 0),
        simulator, "integrate", 1, "failing", (1, 2), 3, (1, _MESSAGE)),
    # the second eps's 5 factor rows follow its 5 envelope rows
    "bounds_audit": (
        lambda: bounds_audit(logarithmic(), [1e-2, 1e-4], 5, 0, 0.0, 1e-9),
        apsidal, "turning_points", 1, "failed_cells", (15, 20), 2, (1e-4, _MESSAGE)),
}


@pytest.mark.parametrize("experiment", sorted(_CELL_FAILURES))
def test_a_failed_cell_is_one_nan_row_and_one_record(monkeypatch, experiment):
    run, module, name, call, record, (first, end), width, entry = _CELL_FAILURES[experiment]
    base = run()
    original, calls = getattr(module, name), []

    def failing(*args, **kwargs):
        calls.append(name)
        if len(calls) == call + 1:
            raise RuntimeError(_MESSAGE)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)
    table = run()

    def text(rows):
        return [[format_value(v) for v in row] for row in rows]

    nan_row = (*base.rows[first][:width], *[math.nan] * (len(base.columns) - width))
    assert text(table.rows) == text(base.rows[:first] + [nan_row] + base.rows[end:])
    assert table.meta[record] == [entry]
    assert record not in base.meta or base.meta[record] is None
