"""Compare the engine of another revision with this tree's, outcome by outcome.

    python3 tools/differential.py --base REV [--python PATH]

REV's ``src/clifford3`` is checked out in a temporary ``git worktree``.  One
worker process per tree imports that tree's ``clifford3`` (through
PYTHONPATH, with PYTHONHASHSEED=0) and prints one line per call:

* ``cli.main`` on every session argv of the benchmark's seeds 1-10, and on
  the named argv grid at the library grid's genera (see ``argv_grid``):
  exit status, stdout, stderr and any escaping exception;
* ``BundleInvariants``, ``Rank3Query``, ``bound`` and each ``h0_*`` function
  over the library grid named "full" (see GRIDS, DEEP and ``s1f_sweep``):
  the ``repr`` of the record or result, or the exception's type, ``r`` and
  message.

Which calls are made, and so each line's label, depends only on the grid:
a call that needs a record that could not be built is still listed, with
the outcome SKIPPED.  So the two streams are compared line by line.  The
summary is one JSON line on stdout, with the number of differing outcomes of
each call name (``by_call``, the label before its ``(``) and the first
differences; the exit status is 0 when every outcome is the same, 1 otherwise.
``--python`` runs both workers under another interpreter, which needs only
the standard library.  Nothing under ``src`` or ``bench`` is changed.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SESSION_SEEDS = range(1, 11)
# genera of each library grid; each genus takes both curve types.  The
# self-tests run "smoke".
GRIDS = {"smoke": range(2, 4), "full": range(2, 9)}
# genera of each grid's deep unstable band (see ``deep_band``)
DEEP = {"smoke": range(0), "full": range(2, 5)}
# the outcome of a call whose record could not be built
SKIPPED = "(not called)"
SHOWN = 10  # differences printed in the summary


def _made(call, *args, **kwargs) -> tuple:
    """(what the call returns or None, its outcome): the ``repr`` of what it
    returns, or the exception's type, ``r`` and message."""
    try:
        made = call(*args, **kwargs)
    except Exception as exc:
        return None, f"{type(exc).__name__} r={getattr(exc, 'r', None)!r}: {exc}"
    return made, repr(made)


def _outcome(call, *args, **kwargs) -> str:
    return _made(call, *args, **kwargs)[1]


def library(c3, genera, deep=()):
    """(label, outcome) for every call of the library grid at ``genera``,
    then of the deep unstable band at ``deep``."""
    B = c3.BundleInvariants
    for rank, s in [(0, ()), (0, (0,)), (4, (0, 0, 0)), (1, (0,)), (2, ()), (3, (0,)), (3, [2])]:
        yield f"BundleInvariants({rank}, 0, {s!r})", _outcome(B, rank, 0, s)
    for g in (0, 1):
        yield f"Curve({g})", _outcome(c3.Curve, g)
    for g, hyp in itertools.product(genera, (False, True)):
        c = c3.Curve(g, hyp)
        yield f"Rank3Query({c!r}, rank 2)", _outcome(c3.Rank3Query, c, B(2, 4, (0,)))
        for a, extra in itertools.product(range(-1, 2 * g + 2), (False, True)):
            yield (f"h0_hyperelliptic_power({c!r}, {a}, {extra})",
                   _outcome(c3.h0_hyperelliptic_power, c, a, extra))
        for d in range(-3, 2 * g + 2):
            yield f"h0_line_bound({c!r}, {d})", _outcome(c3.h0_line_bound, c, d)
            yield f"bound({c!r}, rank 1, {d})", _outcome(c3.bound, c, B(1, d))
        for d, s1, delta in itertools.product(
            range(-3, 4 * g + 2), range(-2, 2 * g + 2), (False, True)
        ):
            yield (f"h0_rank2_bound({c!r}, {d}, {s1}, use_delta={delta})",
                   _outcome(c3.h0_rank2_bound, c, d, s1, use_delta=delta))
            if (s1 - d) % 2 == 0:
                yield (f"bound({c!r}, rank 2, {d}, {s1}, delta={delta})",
                       _outcome(c3.bound, c, B(2, d, (s1,)), delta=delta))
        for d, s in rank3_grid(g):
            yield from _rank3(c3, c, d, s)
    for g, hyp in itertools.product(deep, (False, True)):
        c = c3.Curve(g, hyp)
        for d, s in deep_band(g):
            yield from _rank3(c3, c, d, s)


def rank3_grid(g):
    """(d, s) of the library grid's rank-3 points at genus g: d in
    [-3, 6g] and s1, s2 in [-g-1, 2g+1]."""
    window = range(-g - 1, 2 * g + 2)
    for d, s1, s2 in itertools.product(range(-3, 6 * g + 1), window, window):
        yield d, (s1, s2)


def s1f_sweep(g, d, s):
    """The s1f of the calls at the congruence-valid rank-3 point (d, s) at
    genus g: None and every value in [-g-2, g+2], then, where s2 < 0 <= s1,
    the least s1f of the twisted dual (6g-6-d, s2, s1), which is what s1f
    describes there, and the next two of its parity, each one only if it lies
    above that window.  The values come from the grid's arithmetic alone,
    never from the tree under test, so that labels do not depend on outcomes."""
    sweep = (None, *range(-g - 2, g + 3))
    s1, s2 = s
    if not s2 < 0 <= s1:
        return sweep
    least = (2 * s1 - s2) // 3  # the dual's (2*s2 - s1)/3, at least 1
    deg_f = (2 * (6 * g - 6 - d) + s2) // 3  # the dual's quotient degree
    least += (least - deg_f) % 2
    return sweep + tuple(v for v in range(least, least + 5, 2) if v > g + 2)


def deep_band(g):
    """(d, s) of the deep unstable band at genus g, which the library grid's
    window misses: s1 or s2 in [-8g, -g-2] and the other in [-8g, 2g+1],
    congruence-valid, at every congruent degree of the special range
    [s1, 6g-6-s2] and the nearest one outside each end."""
    for s1, s2 in itertools.product(range(-8 * g, 2 * g + 2), repeat=2):
        if min(s1, s2) < -g - 1 and (s2 - 2 * s1) % 3 == 0:
            for d in range(s1 - 3, 6 * g - 6 - s2 + 4, 3):
                yield d, (s1, s2)


def _rank3(c3, c, d, s):
    """Every call at the rank-3 point (c, d, s).  Which calls are listed
    depends on the congruences of (d, s) alone; a call whose record could
    not be built is listed with the outcome SKIPPED."""
    where = f"{c!r}, {d}, {s}"
    inv, made = _made(c3.BundleInvariants, 3, d, s)
    yield f"BundleInvariants(3, {d}, {s})", made
    s1, s2 = s
    if (s1 - d) % 3 or (s2 - 2 * d) % 3:
        return
    hyp = c.hyperelliptic
    for s1f, delta in itertools.product(s1f_sweep(c.genus, d, s), (False, True)):
        at = f"{where}, s1f={s1f}, delta={delta}"
        if inv is None:
            result, q, query = SKIPPED, None, SKIPPED
        else:
            result = _outcome(c3.bound, c, inv, s1f=s1f, delta=delta)
            q, query = _made(c3.Rank3Query, c, inv, s1f, delta, hyp)
        yield f"bound({at})", result
        yield f"Rank3Query({at})", query
        for f in (c3.h0_rank3_semistable_bound, c3.h0_prop21_bound, c3.h0_rank3_unstable_bound):
            yield f"{f.__name__}({at})", SKIPPED if q is None else _outcome(f, q)


def argv_grid(genera):
    """``bound`` at ranks 1-3 and ``table`` at each genus: every congruent
    degree of each special range and the nearest degree of each tail, over
    semistable s1, s2 <= 2g at rank 3 and s1 in [-2g, 2g] at rank 2;
    ``bound`` with and without ``--hyperelliptic`` (ranks 2 and 3) and
    ``--delta`` (rank 2), ``table`` with and without ``--hyperelliptic`` and
    ``--d-min``/``--d-max``."""
    for g in genera:
        gen = ["--genus", str(g)]
        for d in range(-1, 2 * g):
            yield ["bound", *gen, "--rank", "1", "--degree", str(d)]
        for s1, flags in itertools.product(
            range(-2 * g, 2 * g + 1), ([], ["--hyperelliptic"], ["--delta"])
        ):
            for d in range(s1 - 2, 4 * g - 4 - s1 + 3, 2):
                yield ["bound", *gen, "--rank", "2", "--degree", str(d), "--s1", str(s1), *flags]
        for s1, s2 in itertools.product(range(2 * g + 1), repeat=2):
            if (s2 - 2 * s1) % 3:
                continue
            s = ["--s1", str(s1), "--s2", str(s2)]
            for d, flags in itertools.product(
                range(s1 - 3, 6 * g - 6 - s2 + 4, 3), ([], ["--hyperelliptic"])
            ):
                yield ["bound", *gen, "--rank", "3", "--degree", str(d), *s, *flags]
            window = ["--d-min", str(s1 - 4), "--d-max", str(6 * g - 6 - s2 + 4)]
            for flags in ([], ["--hyperelliptic"], window, [*window, "--hyperelliptic"]):
                yield ["table", *gen, *s, *flags]


def session(argvs):
    """(label, outcome) of ``cli.main`` on each argv, run in-process."""
    from clifford3 import cli

    for argv in argvs:
        out, err = StringIO(), StringIO()
        escaped = None
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                code, escaped = None, f"{type(exc).__name__}: {exc}"
        yield f"cli.main({argv!r})", repr((code, out.getvalue(), err.getvalue(), escaped))


def worker(job_file: str) -> None:
    """Print ``label<TAB>outcome`` for every call of the job, with the
    ``clifford3`` found on sys.path."""
    import clifford3 as c3

    job = json.loads(Path(job_file).read_text())
    genera = GRIDS[job["grid"]]
    calls = itertools.chain(
        session(job["argvs"]), session(argv_grid(genera)),
        library(c3, genera, DEEP[job["grid"]]),
    )
    write = sys.stdout.write
    for label, outcome in calls:
        write(f"{label}\t{outcome}\n")


def session_argvs(seeds=SESSION_SEEDS) -> list:
    """Every argv of the session workload at ``seeds``, in script order."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    try:
        from workloads import Session
    finally:
        del sys.path[:2]
    return [argv for seed in seeds for _, argv in Session(seed).ops_list]


def compare(python: str, base_src, change_src, grid: str, argvs: list) -> dict:
    """Run one worker per tree and compare their lines."""
    with tempfile.TemporaryDirectory() as tmp:
        job_file = Path(tmp, "job.json")
        job_file.write_text(json.dumps({"argvs": argvs, "grid": grid}))
        procs = []
        for src in (base_src, change_src):
            env = dict(
                os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", PYTHONIOENCODING="utf-8"
            )
            cmd = [python, str(Path(__file__).resolve()), "--worker", str(job_file)]
            procs.append(subprocess.Popen(
                cmd, env=env, cwd=tmp, stdout=subprocess.PIPE, text=True, encoding="utf-8"
            ))
        count, by_call, diffs = 0, {}, []  # diffs: the first SHOWN
        for a, b in itertools.zip_longest(procs[0].stdout, procs[1].stdout):
            count += 1
            if a != b:
                name = (a or b).partition("(")[0]
                by_call[name] = by_call.get(name, 0) + 1
                if len(diffs) < SHOWN:
                    diffs.append((a, b))
        codes = [p.wait() for p in procs]
    if codes != [0, 0]:
        raise SystemExit(f"a worker failed: exit statuses {codes}")
    shown = []
    for a, b in diffs:
        label, _, base = (a or "\t(missing)").rstrip("\n").partition("\t")
        other, _, change = (b or "\t(missing)").rstrip("\n").partition("\t")
        shown.append({"call": label or other, "base": base, "change": change})
    return {"outcomes": count, "session_argvs": len(argvs),
            "grid_argvs": sum(1 for _ in argv_grid(GRIDS[grid])),
            "differences": sum(by_call.values()), "by_call": by_call, "first": shown}


def _git(*args) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


@contextmanager
def checkout(rev: str):
    """REV checked out in a temporary ``git worktree``, removed on exit."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "base")
        _git("worktree", "add", "--detach", str(path), rev)
        try:
            yield path
        finally:
            _git("worktree", "remove", "--force", str(path))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="the revision to compare with this tree")
    parser.add_argument("--python", default=sys.executable, help="interpreter of both workers")
    parser.add_argument("--worker", metavar="JOB_FILE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    if not args.base:
        parser.error("--base is required")
    with checkout(args.base) as base:
        summary = compare(args.python, base / "src", ROOT / "src", "full", session_argvs())
    summary = {"base": args.base, "base_commit": _git("rev-parse", args.base),
               "python": args.python, **summary}
    print(json.dumps(summary))
    return 1 if summary["differences"] else 0


if __name__ == "__main__":
    sys.exit(main())
