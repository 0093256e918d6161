"""Self-test of ``tools/layers.py``: one round on equal trees has the
expected shape.  Timings are not asserted."""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import layers  # noqa: E402


def test_one_round_of_equal_trees():
    result = layers.rounds(ROOT, ROOT, 1, number=10, repeat=2)
    assert list(result) == [name for _, name in layers.INPUTS]
    assert {row["layer"] for row in result.values()} == {"validation", "dispatch", "sweeps", "krawtchouk", "front end"}
    for row in result.values():
        for side in ("parent", "change"):
            assert 0 < row[side]["fastest_ns"] <= row[side]["median_ns"]
            rounds = row[side]["round_fastest_ns"]
            assert len(rounds) == 1 and min(rounds) == row[side]["fastest_ns"]
        assert row["ratio_fastest"] > 0 and row["ratio_median"] > 0
        # one round: the parent's largest fastest is its smallest
        assert row["round_spread"] == 1.0
    lines = layers.table(result).splitlines()
    assert len(lines) == 1 + len(layers.INPUTS)
    json.dumps(result)


def test_round_spread_is_the_base_rounds_largest_fastest_over_smallest(monkeypatch):
    base, change = Path("base"), Path("change")
    # each tree's times of every input, one list per call of _sample, in call order
    times = {base: [[120, 100], [160, 150]], change: [[90, 99], [95]]}

    def sample(tree, number, repeat):
        got = times[tree].pop(0)
        return {name: list(got) for _, name in layers.INPUTS}

    monkeypatch.setattr(layers, "_sample", sample)
    for row in layers.rounds(base, change, 2).values():
        assert row["parent"]["round_fastest_ns"] == [100, 150]
        assert row["change"]["round_fastest_ns"] == [90, 95]
        assert row["parent"]["fastest_ns"] == 100 and row["change"]["fastest_ns"] == 90
        assert row["round_spread"] == 1.5
