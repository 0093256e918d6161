"""Self-tests of ``tools/ab.py``: the verdict against BENCHMARK.json's
bounds, and one pair of runs of equal trees."""
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import ab  # noqa: E402

BASE = {"ops_per_s": 1000.0, "latency_p50_ms": 1.0, "latency_tail_ms": 2.0,
        "setup_s": 0.05, "peak_rss_mb": 25.0}


def _run(metrics, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}


def _section(change, pairs=3, **run_kw):
    return {"runs": {"parent": [_run(BASE)] * pairs,
                     "change": [_run({**BASE, **change}, **run_kw)] * pairs}}


@pytest.mark.parametrize("metric, factor", [
    ("ops_per_s", 1 - 0.25),  # bound 0.2, higher is better
    ("latency_p50_ms", 1 + 0.2),  # bound 0.15, lower is better
    ("peak_rss_mb", 1 + 0.12),  # bound 0.1
])
def test_past_the_bound_fails_only_in_the_worse_direction(metric, factor):
    worse = ab.summarize(_section({metric: BASE[metric] * factor}))
    assert worse[metric]["within_bound"] is False
    assert worse["verdict"] == "fail" and worse["worse"] == [metric]
    assert worse[metric]["change_better_pairs"] == 0
    better = ab.summarize(_section({metric: BASE[metric] / factor}))
    assert better[metric]["within_bound"] is True
    assert better["verdict"] == "pass" and better["worse"] == []
    assert better[metric]["change_better_pairs"] == 3


def test_a_move_inside_the_bound_passes():
    summary = ab.summarize(_section({"ops_per_s": 900.0, "latency_tail_ms": 2.4}))
    assert summary["verdict"] == "pass"
    assert summary["ops_per_s"]["change_pct"] == pytest.approx(-10.0)


@pytest.mark.parametrize("pairs, holds", [(5, False), (9, False), (10, True)])
def test_a_gain_holds_only_on_ten_pairs(pairs, holds):
    summary = ab.summarize(_section({"ops_per_s": 1100.0}, pairs=pairs))
    assert summary["ops_per_s"]["change_better_pairs"] == pairs
    assert summary["ops_per_s"]["gain_holds"] is holds


def test_a_gain_inside_the_parent_iqr_or_won_in_8_of_10_does_not_hold():
    parent = [1000.0 + 20 * k for k in range(10)]  # IQR 90
    section = {"runs": {"parent": [_run({**BASE, "ops_per_s": v}) for v in parent],
                        "change": [_run({**BASE, "ops_per_s": v + 50}) for v in parent]}}
    row = ab.summarize(section)["ops_per_s"]
    assert row["change_better_pairs"] == 10 and row["gain_holds"] is False
    change = [v + 200 for v in parent[:8]] + [v - 1 for v in parent[8:]]
    section["runs"]["change"] = [_run({**BASE, "ops_per_s": v}) for v in change]
    row = ab.summarize(section)["ops_per_s"]
    assert row["change_better_pairs"] == 8 and row["gain_holds"] is False


def test_a_wrong_value_or_a_larger_failed_share_fails():
    assert ab.summarize(_section({}, correct=False))["worse"] == ["correct"]
    assert ab.summarize(_section({}, failed=1))["worse"] == ["failed share"]


def test_one_pair_of_equal_trees(tmp_path):
    args = ab.bench_args("refined", 1, 1, 0)
    section = ab.pairs(ROOT, ROOT, args, 1)
    assert section["command"] == "python3 bench/run.py --workload refined --seed 1 --seconds 1"
    assert section["first_in_pair"] == ["parent"]
    (p,), (c,) = section["runs"]["parent"], section["runs"]["change"]
    assert p["correct"] and c["correct"] and p["failed"] == c["failed"] == 0
    assert p["metrics"].keys() == c["metrics"].keys() == ab.BOUNDS.keys()
    summary = ab.update(tmp_path / "BENCH.json", "refined", section)
    assert summary["all_correct"] and "failed share" not in summary["worse"]
    assert all(summary[m]["change_better_pairs"] in (0, 1) for m in ab.BOUNDS)
