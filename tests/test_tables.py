import math

import numpy as np
import pytest

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
