"""Command-line surface: bounds, coefficient evaluation, transformation
trajectories, sweep tables and the example suites.

Each command has one output format on stdout: JSON for ``bound`` and
``examples --family``, JSON lines for ``elmtrans``, CSV for ``table`` and
``examples --suite``, and a bare integer for ``krawtchouk``.  Validation and
usage errors go to stderr as a JSON object with a stable ``code`` field and
exit status 2.  ``bound`` rejects a flag its rank does not read (``--s1``
and ``--delta`` at rank 1; ``--s2``, ``--s1f`` and ``--f-semistable`` at
ranks 1 and 2) and ``--f-semistable`` on semistable input, before any bound
is computed.  Each ``elmtrans`` line writes the state's dimension bounds as
an object keyed "r,i" in (r, i) order.

``main`` may be called any number of times in one process: the parser is
built on the first call and reused after it.  Six inputs are capped,
because their cost grows without bound: ``krawtchouk`` N at
MAX_KRAWTCHOUK_N, ``bound --delta --genus`` at MAX_DELTA_GENUS,
``elmtrans --steps`` at MAX_ELMTRANS_STEPS, ``elmtrans --genus`` at
MAX_ELMTRANS_GENUS, the number of degrees ``table`` sweeps at
MAX_TABLE_ROWS and ``examples --suite --max-genus`` at MAX_SUITE_GENUS.
A value above its cap is the JSON ``UsageError``, reported before any
work is done.  The CSV text of each (family, genus) block of the suite is
built once per process and cached; the --max-genus cap bounds that cache at
3 * (MAX_SUITE_GENUS - 1) blocks, about 2.5 MB.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .bounds import Rank3Query, bound, h0_rank3_semistable_bound
from .elmtrans import ElmState, seed_state_lemma36, step
from .errors import Clifford3Error, HypothesisFailed, UsageError
from .families import (
    family_a,
    family_b,
    family_c,
    genus_reports,
    suite,  # noqa: F401  (bench/test_bench.py traces it as clifford3.cli.suite)
    suite_blocks,
    unstable_sharpness,
)
from .invariants import BundleInvariants, Curve
from .krawtchouk import KrawtchoukQuery, krawtchouk

# Largest accepted inputs, with the slowest command each allows on a
# 2-core Xeon host: a coefficient at N = 4096 in 0.9 s (r = n = N), a
# 10,000-step trajectory in 0.15 s (1.5 s and 7.7 MB of output at genus
# 1,000), a 100,000-row table in 1.0 s, the suite to genus 100 in 2.4 s.
# The refinement of ``bound --delta`` evaluates coefficients with
# N <= 4g - 2, so its genus cap keeps N within MAX_KRAWTCHOUK_N.
MAX_KRAWTCHOUK_N = 4096
MAX_DELTA_GENUS = MAX_KRAWTCHOUK_N // 4
MAX_ELMTRANS_STEPS = 10_000
MAX_ELMTRANS_GENUS = 1_000
MAX_TABLE_ROWS = 100_000
MAX_SUITE_GENUS = 100

_parser = None  # built by the first build_parser() call


def _emit_error(exc: Exception) -> int:
    code = exc.code if isinstance(exc, Clifford3Error) else type(exc).__name__
    print(json.dumps({"code": code, "message": str(exc)}), file=sys.stderr)
    return 2


def _check_cap(name: str, value: int, cap: int) -> None:
    if value > cap:
        raise UsageError(f"{name} must be <= {cap}, got {value}")


def cmd_bound(args) -> int:
    # each flag, whether it was given, and the least rank that reads it
    for flag, given, least in (
        ("--s1", args.s1 is not None, 2),
        ("--s2", args.s2 is not None, 3),
        ("--s1f", args.s1f is not None, 3),
        ("--delta", args.delta, 2),
        ("--f-semistable", args.f_semistable, 3),
    ):
        if given and args.rank < least:
            raise UsageError(f"{flag} is not read at rank {args.rank}")
    if args.delta:
        _check_cap("--genus with --delta", args.genus, MAX_DELTA_GENUS)
    curve = Curve(args.genus, hyperelliptic=args.hyperelliptic)
    s = (args.s1, args.s2)[: args.rank - 1]
    if None in s:
        flags = " and ".join(f"--s{r}" for r in range(1, args.rank))
        raise Clifford3Error(f"rank {args.rank} needs {flags}")
    inv = BundleInvariants(args.rank, args.degree, s)
    if args.f_semistable and inv.semistable():
        raise UsageError("--f-semistable is not read on semistable input")
    result = bound(curve, inv, s1f=args.s1f, delta=args.delta)
    if not inv.semistable():
        if args.f_semistable and args.s1f < 0:
            raise HypothesisFailed("a semistable quotient has s1f >= 0")
        if not args.f_semistable and args.s1f >= 0:
            raise HypothesisFailed("an unstable quotient has s1f < 0")
    print(json.dumps(result.to_dict()))
    return 0


def cmd_krawtchouk(args) -> int:
    _check_cap("N", args.N, MAX_KRAWTCHOUK_N)
    print(krawtchouk(KrawtchoukQuery(args.r, args.n, args.N)))
    return 0


def _state_row(st: ElmState) -> dict:
    return {
        "step": st.step_count,
        "rank": st.inv.rank,
        "d": st.inv.degree,
        "s": list(st.inv.s),
        "sb_dim_upper": {
            f"{r},{i}": v for r, b in enumerate(st.sb_dim_upper, 1) for i, v in enumerate(b)
        },
    }


def cmd_elmtrans(args) -> int:
    _check_cap("--steps", args.steps, MAX_ELMTRANS_STEPS)
    _check_cap("--genus", args.genus, MAX_ELMTRANS_GENUS)
    state = seed_state_lemma36(Curve(args.genus), args.rank)
    n_choices = args.rank - 1
    bits = args.choices or "0" * (args.steps * n_choices)
    if len(bits) != args.steps * n_choices or set(bits) - {"0", "1"}:
        raise Clifford3Error(
            f"--choices must be a 0/1 string of length steps*(rank-1) = "
            f"{args.steps * n_choices}"
        )
    trajectory = [state]
    for k in range(args.steps):
        chunk = bits[k * n_choices : (k + 1) * n_choices]
        state = step(state, tuple(c == "1" for c in chunk))
        trajectory.append(state)
    for st in trajectory:
        print(json.dumps(_state_row(st)))
    return 0


def cmd_table(args) -> int:
    g, s1, s2 = args.genus, args.s1, args.s2
    d_min = args.d_min if args.d_min is not None else s1
    d_max = args.d_max if args.d_max is not None else 6 * g - 6 - s2
    # only degrees matching the rank-3 congruence of s1 are swept
    degrees = range(d_min + ((s1 - d_min) % 3), d_max + 1, 3)
    _check_cap("the number of swept degrees", len(degrees), MAX_TABLE_ROWS)
    curve = Curve(g, hyperelliptic=args.hyperelliptic)
    # every row is computed before any is printed, so an error leaves stdout empty
    rows = []
    for d in degrees:
        q = Rank3Query(curve, BundleInvariants(3, d, (s1, s2)))
        r = h0_rank3_semistable_bound(q)
        rows.append((d, r))
    print("d,value,case,exact")
    for d, r in rows:
        print(f"{d},{r.value},{r.case},{str(r.exact).lower()}")
    return 0


_SUITE_COLUMNS = "family,genus,n,k,m,variant,d,s1,s2,exact_h0,bound,sharp"


@lru_cache(maxsize=None)
def _suite_block(family: str, g: int) -> str:
    """The suite's CSV rows of one family at one genus, one line each.  The
    text is cached, not the reports: the --max-genus cap bounds the keys."""
    rows = []
    for r in genus_reports(family, g):
        p = dict(r.params)
        s1, s2 = r.inv.s
        rows.append(
            f"{r.family},{g},{p.get('n', '')},{p.get('k', '')},"
            f"{p.get('m', '')},{p.get('variant', '')},{r.inv.degree},{s1},{s2},"
            f"{r.exact_h0},{r.bound.value},{str(r.sharp).lower()}\n"
        )
    return "".join(rows)


def cmd_examples(args) -> int:
    if args.suite:
        _check_cap("--max-genus", args.max_genus, MAX_SUITE_GENUS)
        blocks = [_suite_block(f, g) for f, g in suite_blocks(args.max_genus)]
        sys.stdout.write(_SUITE_COLUMNS + "\n" + "".join(blocks))
        return 0
    if args.family is None:
        raise Clifford3Error("need --family or --suite")
    if args.family == "unstable" and None in (args.dl, args.df, args.s1f):
        raise Clifford3Error("family unstable needs --dl, --df and --s1f")
    if args.family == "a":
        report = family_a(args.genus, args.n, args.k)
    elif args.family == "b":
        report = family_b(args.genus, args.m)
    elif args.family == "c":
        report = family_c(args.genus, args.variant, args.k)
    else:
        report = unstable_sharpness(args.genus, args.dl, args.df, args.s1f)
    print(json.dumps(report.to_dict()))
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises parse errors as the JSON error; subcommand parsers inherit it."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built on the first call and returned after it."""
    global _parser
    if _parser is not None:
        return _parser
    parser = _Parser(
        prog="clifford3",
        description="Exact Clifford-type section bounds for rank-1/2/3 bundles on curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="one bound value as JSON")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--s1", type=int)
    p.add_argument("--s2", type=int)
    p.add_argument("--s1f", type=int)
    p.add_argument("--hyperelliptic", action="store_true")
    p.add_argument("--delta", action="store_true", help="apply the Krawtchouk refinement")
    p.add_argument("--f-semistable", action="store_true", dest="f_semistable")

    p = sub.add_parser("krawtchouk", help="evaluate one coefficient")
    p.add_argument("r", type=int)
    p.add_argument("n", type=int)
    p.add_argument("N", type=int)

    p = sub.add_parser("elmtrans", help="transformation trajectory as JSON lines")
    p.add_argument("--rank", type=int, choices=(2, 3), required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument(
        "--choices",
        help="0/1 string, one bit per (step, rank) pair; 1 hits a maximal subbundle",
    )

    p = sub.add_parser("table", help="sweep d over the special range as CSV")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--s1", type=int, required=True)
    p.add_argument("--s2", type=int, required=True)
    p.add_argument("--d-min", type=int, dest="d_min")
    p.add_argument("--d-max", type=int, dest="d_max")
    p.add_argument("--hyperelliptic", action="store_true", help="rows are not sharpened")

    p = sub.add_parser("examples", help="example-family reports")
    p.add_argument("--family", choices=("a", "b", "c", "unstable"))
    p.add_argument("--genus", type=int, default=3)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--variant", choices=("E1", "E2"), default="E1")
    p.add_argument("--dl", type=int)
    p.add_argument("--df", type=int)
    p.add_argument("--s1f", type=int)
    p.add_argument("--suite", action="store_true")
    p.add_argument("--max-genus", type=int, default=5, dest="max_genus")

    _parser = parser
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up by name on every call, so that rebinding a module-level
        # cmd_* after the parser is built still takes effect
        return globals()[f"cmd_{args.command}"](args)
    except (Clifford3Error, ValueError) as exc:
        return _emit_error(exc)


if __name__ == "__main__":
    sys.exit(main())
