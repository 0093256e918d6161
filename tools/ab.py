"""Measure another revision against this tree with alternating benchmark runs.

    python3 tools/ab.py --base REV --workload W --pairs N --out BENCH_<n>.json
                        [--seed S] [--seconds S] [--trace 0|1]

REV is checked out in a temporary ``git worktree``; the change side is this
working tree, uncommitted edits included.  Each pair runs ``python3
bench/run.py --workload W --seed S --seconds S`` once in each tree, each
tree's own harness on its own sources: pair k runs the base first when k is
odd and the change first when k is even.  The last JSON line of every run
is kept, and each run's first metrics are logged to stderr.

The runs go into one section of the JSON file ``--out``, named for the
workload, with ``_seed<S>`` past seed 1 and ``_trace`` when traced.  The
file is created or updated in place (other sections and keys are kept), in the
format of the repository's ``BENCH_*.json``: the command, the order of each
pair and every run under ``runs.parent`` and ``runs.change``.  ``summary``
gets, for each metric of the runs, both medians, the change in percent, the
quartiles and the parent's interquartile range, the pairs the change won
and, for an end-to-end metric, whether its median stays within the bound
that BENCHMARK.json gives it and whether a gain holds (``gain_holds``): at
least ten pairs, the change better in at least nine tenths of them, and
its median better than the parent's by more than the parent's
interquartile range.  ``verdict`` of the section is "fail" when a
metric is past its bound, a run is not correct, or the change fails a
larger share of operations; otherwise "pass".  The exit status is 1 on
"fail", else 0.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from differential import checkout

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: (m["better"], m["bound"]) for m in SPEC["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
PROTOCOL = (
    "alternating pairs: pair k runs the parent first when k is odd and the change first "
    "when k is even; each entry is the last JSON line of one run; quartiles by "
    "statistics.quantiles(n=4, method='inclusive'); every run made is listed"
)


def bench_args(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    args = ["bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}"]
    return args + (["--trace", "1"] if trace else [])


def run(tree: Path, args: list[str]) -> dict:
    """The last JSON line of one benchmark run in ``tree``."""
    proc = subprocess.run(["python3", *args], cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(args)} in {tree} exited with {proc.returncode}")
    return json.loads(lines[-1])


def pairs(base: Path, change: Path, args: list[str], n: int) -> dict:
    """``n`` alternating pairs of runs of ``args``, base first in odd pairs."""
    section = {"command": "python3 " + " ".join(args), "pairs": n, "first_in_pair": [],
               "runs": {"parent": [], "change": []}}
    for k in range(1, n + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        section["first_in_pair"].append(order[0])
        for side in order:
            result = run(base if side == "parent" else change, args)
            section["runs"][side].append(result)
            shown = list(result["metrics"].items())[:3]
            print(f"pair {k}/{n} {side}: " + ", ".join(f"{m} {v['value']:.6g}" for m, v in shown),
                  file=sys.stderr, flush=True)
    return section


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(section: dict) -> dict:
    """Medians, quartiles, pair wins and the bound check of every metric."""
    parent, change = section["runs"]["parent"], section["runs"]["change"]
    out = {}
    for name in parent[0]["metrics"]:
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pm, cm = statistics.median(p), statistics.median(c)
        pq = _quartiles(p)
        better = BETTER.get(name, "lower")
        won = sum(b > a if better == "higher" else b < a for a, b in zip(p, c))
        row = {
            "parent_median": pm,
            "change_median": cm,
            "change_pct": (cm - pm) / pm * 100 if pm else None,
            "parent_quartiles": pq,
            "change_quartiles": _quartiles(c),
            "parent_iqr": pq[1] - pq[0],
            "change_better_pairs": won,
        }
        if name in BOUNDS:
            direction, bound = BOUNDS[name]
            if direction == "higher":
                row["within_bound"] = cm >= pm * (1 - bound)
            else:
                row["within_bound"] = cm <= pm * (1 + bound)
            gain = cm - pm if direction == "higher" else pm - cm
            row["gain_holds"] = (len(p) >= 10 and won * 10 >= 9 * len(p)
                                 and gain > row["parent_iqr"])
        out[name] = row
    out["all_correct"] = all(r["correct"] for r in parent + change)
    out["failed"] = sorted({r["failed"] for r in parent + change})
    share = [max(r["failed"] / r["attempted"] for r in runs) for runs in (parent, change)]
    worse = [name for name, row in out.items()
             if isinstance(row, dict) and row.get("within_bound") is False]
    if not out["all_correct"]:
        worse.append("correct")
    if share[1] > share[0]:
        worse.append("failed share")
    out["verdict"] = "fail" if worse else "pass"
    out["worse"] = worse
    return out


def update(path: Path, name: str, section: dict) -> dict:
    """Write ``section`` and its summary under ``name`` into the JSON file."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault("host", f"{os.cpu_count()}-core {platform.machine()}, "
                           f"Python {platform.python_version()}")
    doc.setdefault("protocol", PROTOCOL)
    doc[name] = section
    doc.setdefault("summary", {})[name] = summarize(section)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return doc["summary"][name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the revision to compare with this tree")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    name = (args.workload + (f"_seed{args.seed}" if args.seed != 1 else "")
            + ("_trace" if args.trace else ""))
    bargs = bench_args(args.workload, args.seed, args.seconds, args.trace)
    with checkout(args.base) as base:
        section = pairs(base, ROOT, bargs, args.pairs)
    summary = update(args.out, name, section)
    print(json.dumps({"section": name, **summary}))
    return 1 if summary["verdict"] == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
