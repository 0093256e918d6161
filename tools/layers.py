"""Time fixed inputs of the engine's layers in another revision and in this tree.

    python3 tools/layers.py --base REV [--rounds N]

REV is checked out in a temporary ``git worktree``, as ``tools/ab.py`` does;
the change side is this working tree, uncommitted edits included.  Each
round runs one worker process per tree, the base first in odd rounds and
the change first in even ones.  A worker imports its tree's ``clifford3``
(through PYTHONPATH, with PYTHONHASHSEED=0) and ``timeit``s every input of
INPUTS: ``REPEAT`` repeats of ``NUMBER`` calls each.  The rounds default to
8: on a shared 2-core host, 3 rounds read the same code on both sides at
fastest-ns ratios as far apart as 0.92, and 8 rounds at 0.95-1.03.  The
layers are:

* validation: ``BundleInvariants`` and ``Rank3Query`` at g = 25,
  s = (10, 20), d = 70 (a middle point) and d = -2 (a tail point);
* dispatch: ``h0_rank3_semistable_bound`` at that middle point, that tail
  point and the middle point sharpened on a hyperelliptic curve, and
  ``bound()`` at the middle point and at the Serre-dual point g = 10,
  d = 19, s = (4, -1), s1f = 3;
* sweeps: ``cli.main``, stdout in a fresh ``StringIO``, on two ``elmtrans``
  commands of the session workload's seed 1 (its slowest, a rank-3 walk of
  29 steps with given choices at genus 22, and a rank-2 all-miss walk of 26
  steps at genus 27), on ``table --genus 30 --s1 0 --s2 0`` (59 rows) and
  on ``examples --suite --max-genus 30``, whose repeats after the first
  read the suite text of the worker's process;
* krawtchouk: ``krawtchouk`` on K_300(500, 1000), an N = 2n input (one
  binomial), and on K_100(512, 1000), a general input from the refined
  workload's range (g = 512, s1 = 24; the full alternating sum).  The cap
  case K_4096(4096, 4096), about 1 s a call, is left out;
* front end: ``parse_args``, and ``cli.main`` with stdout in a fresh
  ``StringIO``, on ``bound --genus 25 --rank 3 --degree 70 --s1 10 --s2
  20`` (the middle point), ``bound --rank 1 --genus 26 --degree 3``,
  ``examples --family a --genus 16 --n 2 --k 0`` and the unstable
  Serre-dual point ``bound --genus 10 --rank 3 --degree 19 --s1 4 --s2 -1
  --s1f 3 --f-semistable``, which reads an int, a choice and a switch and
  runs the unstable reads check: the fixed cost of one command around the
  engine.

An input of the sweeps or krawtchouk layer runs NUMBER // SHARE[layer]
calls per repeat, every other input NUMBER.  It prints, per input and
tree, the fastest and the median ns per call over every repeat of every
round, and their ratio change / base, and per input the base's
``round_spread``: its largest fastest ns of one round over its smallest.
The base runs the same code in every round, so a ratio inside that spread
reads as noise.  Then one JSON line gives the same figures and each
round's fastest ns per tree.  Nothing under ``src`` or ``bench`` is
changed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

from differential import _git, checkout

ROOT = Path(__file__).resolve().parents[1]
NUMBER = 20000  # calls per repeat
REPEAT = 5  # repeats per round and tree
# the dispatch inputs a call of each costly layer's inputs costs, about
SHARE = {"sweeps": 50, "krawtchouk": 1000}
SETUP = """\
from contextlib import redirect_stdout
from io import StringIO
from clifford3 import BundleInvariants, Curve, Rank3Query, bound, h0_rank3_semistable_bound
from clifford3.cli import main, parse_args
from clifford3.krawtchouk import KrawtchoukQuery, krawtchouk
c, hc, dual = Curve(25), Curve(25, True), Curve(10)
mid, tail = BundleInvariants(3, 70, (10, 20)), BundleInvariants(3, -2, (10, 20))
dual_inv = BundleInvariants(3, 19, (4, -1))
q_mid, q_tail = Rank3Query(c, mid), Rank3Query(c, tail)
q_sharp = Rank3Query(hc, mid, use_hyperelliptic_sharpening=True)
elm3 = ("elmtrans --rank 3 --genus 22 --steps 29 --choices "
        "1000001011110011100001110010110100110110101000101000011011").split()
elm2 = "elmtrans --rank 2 --genus 27 --steps 26".split()
table30 = "table --genus 30 --s1 0 --s2 0".split()
suite30 = "examples --suite --max-genus 30".split()
bound3 = "bound --genus 25 --rank 3 --degree 70 --s1 10 --s2 20".split()
bound1 = "bound --rank 1 --genus 26 --degree 3".split()
family_a = "examples --family a --genus 16 --n 2 --k 0".split()
bound_dual = "bound --genus 10 --rank 3 --degree 19 --s1 4 --s2 -1 --s1f 3 --f-semistable".split()
k_half, k_general = KrawtchoukQuery(300, 500, 1000), KrawtchoukQuery(100, 512, 1000)
"""
# (layer, input): the statement timed
INPUTS = {
    ("validation", "BundleInvariants d=70"): "BundleInvariants(3, 70, (10, 20))",
    ("validation", "BundleInvariants d=-2"): "BundleInvariants(3, -2, (10, 20))",
    ("validation", "Rank3Query d=70"): "Rank3Query(c, mid)",
    ("validation", "Rank3Query d=-2"): "Rank3Query(c, tail)",
    ("dispatch", "semistable middle"): "h0_rank3_semistable_bound(q_mid)",
    ("dispatch", "semistable tail"): "h0_rank3_semistable_bound(q_tail)",
    ("dispatch", "semistable sharpened"): "h0_rank3_semistable_bound(q_sharp)",
    ("dispatch", "bound() middle"): "bound(c, mid)",
    ("dispatch", "bound() Serre dual"): "bound(dual, dual_inv, s1f=3)",
    ("sweeps", "elmtrans rank 3 g=22"): "with redirect_stdout(StringIO()): main(elm3)",
    ("sweeps", "elmtrans rank 2 g=27"): "with redirect_stdout(StringIO()): main(elm2)",
    ("sweeps", "table g=30"): "with redirect_stdout(StringIO()): main(table30)",
    ("sweeps", "suite max genus 30"): "with redirect_stdout(StringIO()): main(suite30)",
    ("krawtchouk", "K_300(500, 1000) N=2n"): "krawtchouk(k_half)",
    ("krawtchouk", "K_100(512, 1000)"): "krawtchouk(k_general)",
    ("front end", "parse_args bound rank 3"): "parse_args(bound3)",
    ("front end", "parse_args bound rank 1"): "parse_args(bound1)",
    ("front end", "parse_args family a"): "parse_args(family_a)",
    ("front end", "parse_args bound dual"): "parse_args(bound_dual)",
    ("front end", "main bound rank 3"): "with redirect_stdout(StringIO()): main(bound3)",
    ("front end", "main bound rank 1"): "with redirect_stdout(StringIO()): main(bound1)",
    ("front end", "main family a"): "with redirect_stdout(StringIO()): main(family_a)",
    ("front end", "main bound dual"): "with redirect_stdout(StringIO()): main(bound_dual)",
}


def worker(number: int, repeat: int) -> None:
    """Print one JSON object: each input's ns per call, one per repeat."""
    ns = {}
    exec(SETUP, ns)
    out = {}
    for (layer, name), stmt in INPUTS.items():
        calls = max(1, number // SHARE.get(layer, 1))
        times = timeit.repeat(stmt, globals=ns, number=calls, repeat=repeat)
        out[name] = [t / calls * 1e9 for t in times]
    print(json.dumps(out))


def _sample(tree: Path, number: int, repeat: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--number", str(number), "--repeat", str(repeat)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"the worker for {tree} exited with {proc.returncode}")
    return json.loads(proc.stdout)


def rounds(base: Path, change: Path, n: int, number: int = NUMBER, repeat: int = REPEAT) -> dict:
    """``n`` interleaved rounds, base first in odd rounds: per input, its
    layer, each tree's fastest and median ns per call and fastest of each
    round, change / base, and the base's round spread."""
    samples = {"parent": {}, "change": {}}  # each input's times, one list a round
    for k in range(1, n + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            got = _sample(base if side == "parent" else change, number, repeat)
            for name, times in got.items():
                samples[side].setdefault(name, []).append(times)
    out = {}
    for layer, name in INPUTS:
        row = {"layer": layer}
        for side in ("parent", "change"):
            per_round = samples[side][name]
            times = [t for r in per_round for t in r]
            row[side] = {"fastest_ns": min(times), "median_ns": statistics.median(times),
                         "round_fastest_ns": [min(r) for r in per_round]}
        for stat in ("fastest_ns", "median_ns"):
            row["ratio_" + stat[:-3]] = row["change"][stat] / row["parent"][stat]
        fastest = row["parent"]["round_fastest_ns"]
        row["round_spread"] = max(fastest) / min(fastest)
        out[name] = row
    return out


def table(result: dict) -> str:
    """The figures of :func:`rounds`, one line per input."""
    lines = [f"{'layer':<11}{'input':<24}{'parent fastest/median ns':>26}"
             f"{'change fastest/median ns':>26}{'ratio':>14}{'spread':>8}"]
    for name, row in result.items():
        p, c = row["parent"], row["change"]
        lines.append(
            f"{row['layer']:<11}{name:<24}{p['fastest_ns']:>14.0f}{p['median_ns']:>12.0f}"
            f"{c['fastest_ns']:>14.0f}{c['median_ns']:>12.0f}"
            f"{row['ratio_fastest']:>7.3f}{row['ratio_median']:>7.3f}{row['round_spread']:>8.3f}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="the revision to compare with this tree")
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--number", type=int, default=NUMBER, help=argparse.SUPPRESS)
    parser.add_argument("--repeat", type=int, default=REPEAT, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.number, args.repeat)
        return 0
    if not args.base:
        parser.error("--base is required")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    with checkout(args.base) as base:
        result = rounds(base, ROOT, args.rounds)
    print(table(result))
    print(json.dumps({"base": args.base, "base_commit": _git("rev-parse", args.base),
                      "rounds": args.rounds, "number": NUMBER, "repeat": REPEAT,
                      "host": f"{os.cpu_count()}-core {platform.machine()}, "
                              f"Python {platform.python_version()}",
                      "inputs": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
