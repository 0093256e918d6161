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
        assert row["ratio_fastest"] > 0 and row["ratio_median"] > 0
    lines = layers.table(result).splitlines()
    assert len(lines) == 1 + len(layers.INPUTS)
    json.dumps(result)
