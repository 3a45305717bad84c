"""The pure parts of the benchmark driver ``tools/bench.py``, on synthetic
result lines: no benchmark run and no git command."""

import importlib.util
import statistics
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parents[1] / "tools" / "bench.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

END_TO_END = [{"name": "wall_s", "better": "lower"},
              {"name": "cells_per_s", "better": "higher"}]


def line(correct, wall_s, cells_per_s):
    """A result line of ``perfbench/run.py`` with two end-to-end metrics."""
    return {"correct": correct, "attempted": 10, "failed": 0,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "cells_per_s": {"value": cells_per_s, "unit": "1/s"}}}


def test_wins_follow_the_metric_direction_and_ties_count_for_neither_side():
    parent, change = [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0]
    assert bench.wins(parent, change, "lower") == 2
    assert bench.wins(parent, change, "higher") == 1
    assert bench.wins(parent, parent, "lower") == bench.wins(parent, parent, "higher") == 0


def test_summary_holds_values_in_pair_order_with_their_quartiles():
    walls = {"parent": [0.30, 0.10, 0.25, 0.20, 0.40], "change": [0.20, 0.10, 0.30, 0.15, 0.35]}
    cells = {"parent": [5.0, 7.0, 6.0, 8.0, 9.0], "change": [6.0, 7.0, 5.0, 9.0, 9.0]}
    correct = {"parent": [True] * 5, "change": [True, True, False, True, True]}
    lines = {side: [line(*run) for run in zip(correct[side], walls[side], cells[side])]
             for side in bench.SIDES}
    traced = {"parent": {"correct": True, "metrics": {}},
              "change": {"correct": False, "metrics": {}}}
    record = bench.summarise(END_TO_END, lines, traced)
    for side in bench.SIDES:
        assert record[side]["correct"] == correct[side]
        assert record[side]["traced"] is traced[side]
        for name, values in (("wall_s", walls[side]), ("cells_per_s", cells[side])):
            q1, median, q3 = statistics.quantiles(values, n=4)
            assert record[side][name] == {"values": values, "median": median,
                                          "q1": q1, "q3": q3}
            assert median == statistics.median(values)
    # wall_s: lower in pairs 0, 3 and 4, a tie in pair 1; cells_per_s:
    # higher in pairs 0 and 3, ties in pairs 1 and 4
    assert record["wins"] == {"wall_s": 3, "cells_per_s": 2}


def test_next_path_takes_the_first_free_number(tmp_path):
    assert bench.next_path(tmp_path) == tmp_path / "BENCH_1.json"
    for n in (1, 2, 4):
        (tmp_path / f"BENCH_{n}.json").write_text("{}\n")
    assert bench.next_path(tmp_path) == tmp_path / "BENCH_3.json"


def test_copy_files_copies_the_listed_files_and_skips_missing_ones(tmp_path):
    root, dest = tmp_path / "root", tmp_path / "dest"
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "a.py").write_text("a\n")
    (root / "new.txt").write_text("new\n")
    (root / "ignored.txt").write_text("ignored\n")
    # a tracked file deleted from the checkout, and the empty name that
    # follows the last NUL of `git ls-files -z`
    bench.copy_files(root, ["src/pkg/a.py", "new.txt", "deleted.py", ""], dest)
    assert sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file()) == [
        "new.txt", "src/pkg/a.py"]
    assert (dest / "src" / "pkg" / "a.py").read_text() == "a\n"
