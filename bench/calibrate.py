"""Fixed kernels whose run times measure the host's current speed.

On a shared host the same pure-Python work can run twice as slowly for
seconds at a time, and how much a piece of code slows down depends on what
it does: in one measurement a dataclass kernel slowed by 1.9x, the grid
rows by 1.7x to 1.8x, and big-integer Krawtchouk sums and argparse-bound CLI
commands by 1.5x to 1.6x.  So each workload has a kernel that does the same kind of work as the
program does for it, and the benchmark runs that kernel between its
operations and rescales each time it reports by the kernel's reference time
over its time measured around that operation.

The kernels are frozen copies of the shape of the program's hot paths, in
benchmark code: no change to the program can make them faster or slower,
except through the host.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from math import comb


@dataclass(frozen=True)
class _Curve:
    genus: int
    hyperelliptic: bool = False

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError("genus")


@dataclass(frozen=True)
class _Inv:
    rank: int
    degree: int
    s: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "s", tuple(self.s))


@dataclass(frozen=True)
class _Query:
    curve: _Curve
    inv: _Inv
    sharpen: bool = False

    def __post_init__(self):
        for r, sr in enumerate(self.inv.s, start=1):
            if (sr - r * self.inv.degree) % self.inv.rank:
                raise ValueError("congruence")


@dataclass(frozen=True)
class _Result:
    value: int
    case: str
    exact: bool = False
    assumptions: tuple = ()

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("value")
        object.__setattr__(self, "assumptions", tuple(self.assumptions))


def _bound(q: _Query) -> _Result:
    d, (s1, s2), g = q.inv.degree, q.inv.s, q.curve.genus
    if d < s1:
        return _Result(0, "V", exact=True)
    if d > 6 * g - 6 - s2:
        return _Result(max(0, d + 3 - 3 * g), "R", exact=True)
    base = (3 * d - max(2 * s2 - s1, 2 * s1 - s2)) // 6 + 3
    if q.sharpen and q.curve.hyperelliptic and (s1 or s2):
        return _Result(base - 1, "S", assumptions=("h",))
    return _Result(base, "M")


def _grid_kernel() -> int:
    g, s1, s2 = 25, 10, 8
    acc = 0
    for _ in range(3):
        curve = _Curve(g, hyperelliptic=True)
        for d in range(s1 - 6, 6 * g - s2 + 1, 3):
            acc += _bound(_Query(curve, _Inv(3, d, (s1, s2)), sharpen=True)).value
    return acc


def _refined_kernel() -> int:
    n, N, r = 250, 490, 160
    return sum((-1) ** j * comb(n, j) * comb(N - n, r - j) for j in range(min(n, r) + 1))


def _session_kernel() -> int:
    parser = argparse.ArgumentParser(prog="kernel", description="calibration")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("a", "b", "c", "d", "e"):
        p = sub.add_parser(name, help="command")
        for flag in ("--genus", "--rank", "--degree", "--s1", "--s2", "--s1f"):
            p.add_argument(flag, type=int)
        p.add_argument("--flag", action="store_true", help="switch")
        p.add_argument("--choice", choices=("x", "y"), default="x")
    args = parser.parse_args(["b", "--genus", "7", "--rank", "1", "--degree", "5", "--flag"])
    with redirect_stdout(io.StringIO()):
        print(json.dumps({"value": args.genus, "case": "C", "exact": False, "assumptions": []}))
    return args.genus


# workload -> (kernel, its time in the fast phase of a shared 2-core x86-64
# host with CPython 3.11); reported times read as if measured there
KERNELS = {
    "grid": (_grid_kernel, 0.00046),
    "refined": (_refined_kernel, 0.00058),
    "session": (_session_kernel, 0.00098),
}


def kernel_seconds(workload: str) -> float:
    """One timed run of the workload's kernel, with the garbage collector
    paused so that the size of the program's heap does not enter it."""
    kernel = KERNELS[workload][0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
