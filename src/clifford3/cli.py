"""Command-line surface: bounds, coefficient evaluation, transformation
trajectories, sweep tables and the example suites.

Each command has one output format on stdout: JSON for ``bound`` and
``examples --family``, JSON lines for ``elmtrans`` (the dimension bounds
keyed "r,i" in (r, i) order), CSV for ``table`` and ``examples --suite``,
and a bare integer for ``krawtchouk``.  ``bound``'s JSON, the
``elmtrans`` lines, the ``examples --family`` report and the error object
are written directly, byte for byte what ``json.dumps`` gives.
``elmtrans`` checks only its seed.  ``table`` checks, before it writes any
row, its cap, its curve and, when it sweeps any degree, the rank-3
invariants of its first swept degree, then that s1, s2 >= 0; it writes
the case runs of ``bounds.semistable_runs``, each row from its run's closed
form, and builds no ``BoundResult``.  ``elmtrans`` walks only the paper's
split seeds: their rank-1 bounds rise by exactly n - 1, and the rank-3 seed
knows no rank-2 bound, so a miss drops the last bound and a hit leaves
none.  It reads each rank's s column from ``elmtrans._s_column`` and rank
1's tuple lengths from ``elmtrans._lengths``, the closed forms on such a
seed of the rule that ``elmtrans.trajectory`` steps, and cuts every step's
text from the seed's by length.  Validation and usage errors go to stderr
as a JSON object with a stable ``code`` field and exit status 2.

``parse_args`` reads argv against ``COMMANDS`` in one walk and keeps no
state, so ``main`` may be called any number of times in one process; its
docstring states the grammar.  Each command's flags are indexed once, at
import, in ``_INDEX``: a flag given by its exact name, the common spelling,
is looked up once, and any other token is split at its first ``=`` and
looked up again.  The index keeps each flag's reader: ``_int``, the one
statement of the int grammar, ``str``, or either of them refusing a value
outside the flag's choices.  The walk calls the reader on every value, and
only a refused value goes to ``_convert``, which words the UsageError.
``_BOUND_READS`` and ``_EXAMPLES_READS`` say which flags each mode of
``bound`` and ``examples`` reads, and ``_check_reads`` raises the UsageError
for any other flag given: it gets the mode's unread flags in one call and
walks them only when one differs from its default.

Six inputs are capped, because their cost grows without bound:
``krawtchouk`` N at MAX_KRAWTCHOUK_N, ``bound --delta --genus`` at
MAX_DELTA_GENUS, ``elmtrans --steps`` at MAX_ELMTRANS_STEPS, ``elmtrans
--genus`` at MAX_ELMTRANS_GENUS, the number of degrees ``table`` sweeps at
MAX_TABLE_ROWS and ``examples --suite --max-genus`` at MAX_SUITE_GENUS.
A value above its cap is the JSON ``UsageError``, reported before any
work is done.  Two caches keep text that depends on only a few inputs, built
once per process.  The suite's CSV rows are one: each family's rows, genus
by genus, as one text with the end of each genus's rows, which a larger
--max-genus extends and --max-genus G cuts at genus G; the cap bounds the
three texts at about 2.5 MB.  The checked seed of each ``elmtrans`` (rank,
genus) and the text of its rank-1 bounds is the other, an LRU cache of 64
entries: at most about 5.6 MB, when every entry is at a genus near the cap
of 1,000.
"""
from __future__ import annotations

import sys
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, count
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from types import SimpleNamespace

from .bounds import bound, semistable_runs
from .elmtrans import _lengths, _s_column, seed_state_lemma36
from .errors import Clifford3Error, HypothesisFailed, UsageError
from .families import (
    family_a,
    family_b,
    family_c,
    genus_reports,
    suite,  # noqa: F401  (bench/test_bench.py traces it as clifford3.cli.suite)
    unstable_sharpness,
)
from .invariants import BoundResult, BundleInvariants, Curve
from .krawtchouk import KrawtchoukQuery, krawtchouk

# Largest accepted inputs, with the slowest command each allows, timed as
# one ``main`` call in a fresh process with the output kept in memory, the
# larger of two fastest-of-5 figures (shared 2-core x86_64, Python 3.11.7): a
# coefficient at N = 4096 in 0.78 s (r = n = N, the full alternating sum,
# whose single runs spread over 0.9-1.3 s in earlier timings on such a host;
# at N = 2n it is one binomial), a rank-2 ``--delta`` bound at genus 1,365
# (degree 2729, s1 = 1: a coefficient of 1,366 terms) in 0.081 s, a
# 10,000-step trajectory at genus 1,000 in 0.014 s at rank 2 with every
# choice a miss (7.5 MB of output, 29 MB peak RSS) and in 0.008 s at rank 3
# with random choices, a 100,000-row table in 0.035 s (every row a distinct
# RANK3-MAIN value), the suite to genus 100 in 0.62 s.
# The refinement of ``bound --delta`` evaluates coefficients with
# N = 2g - t <= 3g - 1, so its genus cap keeps N within MAX_KRAWTCHOUK_N.
MAX_KRAWTCHOUK_N = 4096
MAX_DELTA_GENUS = (MAX_KRAWTCHOUK_N + 1) // 3
MAX_ELMTRANS_STEPS = 10_000
MAX_ELMTRANS_GENUS = 1_000
MAX_TABLE_ROWS = 100_000
MAX_SUITE_GENUS = 100

def _emit_error(exc: Exception) -> int:
    """Write the JSON error object of ``exc`` to stderr, byte for byte
    ``json.dumps({"code": code, "message": message})`` and a newline."""
    code = exc.code if isinstance(exc, Clifford3Error) else type(exc).__name__
    sys.stderr.write(f'{{"code": {_quote(code)}, "message": {_quote(str(exc))}}}\n')
    return 2


def _check_cap(name: str, value: int, cap: int) -> None:
    if value > cap:
        raise UsageError(f"{name} must be <= {cap}, got {value}")


def _check_reads(args, command: str, mode) -> None:
    """Raise the UsageError for the first flag args gives that ``mode`` does not read."""
    get, blank = _UNREAD_BLANK[command][mode]
    if get(args) == blank:  # the common case, checked in one call
        return
    where, unread = _UNREAD[command][mode]
    for flag, dest in unread:
        if (value := getattr(args, dest)) is not None and value is not False:
            raise UsageError(f"{flag} is not read {where}")


# The optional flags each mode of ``bound`` reads: ranks 1 and 2, checked before
# any work (rank 2 with --s1 < 0 is its own mode), and rank-3 input, checked
# once its invariants say which mode it is.
_BOUND_READS = {
    1: (),
    2: ("s1", "hyperelliptic", "delta"),
    "unstable rank-2": ("s1",),
    "semistable": ("s1", "s2", "s1f", "hyperelliptic", "delta"),
    "unstable": ("s1", "s2", "s1f", "f_semistable"),
}


def cmd_bound(args) -> int:
    if args.rank < 3:
        split = args.rank == 2 and (args.s1 or 0) < 0
        _check_reads(args, "bound", "unstable rank-2" if split else args.rank)
    if args.delta:
        _check_cap("--genus with --delta", args.genus, MAX_DELTA_GENUS)
    curve = Curve(args.genus, args.hyperelliptic)
    s = (args.s1, args.s2)[: args.rank - 1]
    if None in s:
        flags = " and ".join(f"--s{r}" for r in range(1, args.rank))
        raise Clifford3Error(f"rank {args.rank} needs {flags}")
    inv = BundleInvariants(args.rank, args.degree, s)
    unstable = args.rank == 3 and (s[0] < 0 or s[1] < 0)  # as bound() routes
    if args.rank == 3:
        _check_reads(args, "bound", "unstable" if unstable else "semistable")
    result = bound(curve, inv, s1f=args.s1f, delta=args.delta)
    if unstable:
        if args.f_semistable and args.s1f < 0:
            raise HypothesisFailed("a semistable quotient has s1f >= 0")
        if not args.f_semistable and args.s1f >= 0:
            raise HypothesisFailed("an unstable quotient has s1f < 0")
    sys.stdout.write(_bound_line(result))
    return 0


def _bound_line(r: BoundResult) -> str:
    """``bound``'s output line, byte for byte ``json.dumps(r.to_dict())``
    and a newline: ``value`` is an int, ``exact`` a bool, and each string
    is quoted by the encoder ``json.dumps`` uses by default."""
    value, case, exact, assumptions = r._values
    quoted = ", ".join(map(_quote, assumptions))
    return (
        f'{{"value": {value}, "case": {_quote(case)}, '
        f'"exact": {"true" if exact else "false"}, "assumptions": [{quoted}]}}\n'
    )


def cmd_krawtchouk(args) -> int:
    _check_cap("N", args.N, MAX_KRAWTCHOUK_N)
    sys.stdout.write(f"{krawtchouk(KrawtchoukQuery(args.r, args.n, args.N))}\n")
    return 0


def _walk_lines(seed: tuple, bits: str) -> str:
    """The ``elmtrans`` lines of the walk from a :func:`_seed` entry that
    takes n-1 of ``bits`` a step, "1" a hit, byte for byte what
    ``json.dumps`` writes for each row: every field is an int or a list or
    object of ints, and an int is written as str() writes it.  Rank r reads
    every (n-1)-th bit from bit r-1.  The seed's rank-1 bounds are flat and
    its rank 2 has none, so each step's bounds are the first entries of the
    seed's, as many as ``_lengths`` gives, and their text a cut of its text.
    """
    start, text, cuts = seed
    inv, _, k = start._values
    n, d, s = inv._values
    s_cols = [_s_column(n, r, s[r - 1], bits[r - 1 :: n - 1]) for r in range(1, n)]
    # the texts are cut as the lines are made, so that only the lines are held at once
    texts = (text[2 : cuts[i]] for i in _lengths(len(cuts) - 1, bits[:: n - 1]))
    rows = zip(count(k), count(d), *s_cols, texts)
    # one f-string per rank: a walk took about a tenth less time than with
    # one %-template per rank (tools/layers.py, the sweeps rows)
    if n == 2:
        return "".join([
            f'{{"step": {j}, "rank": 2, "d": {e}, "s": [{a}], "sb_dim_upper": {{{t}}}}}\n'
            for j, e, a, t in rows
        ])
    return "".join([
        f'{{"step": {j}, "rank": 3, "d": {e}, "s": [{a}, {b}], "sb_dim_upper": {{{t}}}}}\n'
        for j, e, a, b, t in rows
    ])


# The checked seed of each (rank, genus), the ``"1,i": v`` text of its rank-1
# bounds, each entry led by its ", ", and the text's cuts: cuts[j] ends entry
# j-1, so the text of the first j entries is text[2 : cuts[j]] (and "" for
# j = 0); built once per process.  An entry at genus 1,000 holds about 90 KB
# (the seed's 1,000 bounds, their text and cuts; tracemalloc), so the 64
# entries hold at most about 5.6 MB.  The genera 2..30 at ranks 2 and 3 are
# 58 keys, 73 KB.
@lru_cache(maxsize=64)
def _seed(n: int, g: int) -> tuple:
    start = seed_state_lemma36(Curve(g), n)
    items = list(map(', "1,%s": %s'.__mod__, enumerate(start.sb_dim_upper[0])))
    return start, "".join(items), tuple(accumulate(map(len, items), initial=0))


def cmd_elmtrans(args) -> int:
    if args.steps < 0:
        raise UsageError(f"--steps must be >= 0, got {args.steps}")
    _check_cap("--steps", args.steps, MAX_ELMTRANS_STEPS)
    _check_cap("--genus", args.genus, MAX_ELMTRANS_GENUS)
    n = args.rank
    # the seed is the one checked state; the walk keeps its congruences
    seed = _seed(n, args.genus)
    bits = "0" * (args.steps * (n - 1)) if args.choices is None else args.choices
    if len(bits) != args.steps * (n - 1) or bits.strip("01"):
        raise Clifford3Error(
            f"--choices must be a 0/1 string of length steps*(rank-1) = "
            f"{args.steps * (n - 1)}"
        )
    sys.stdout.write(_walk_lines(seed, bits))
    return 0


def cmd_table(args) -> int:
    g, s1, s2 = args.genus, args.s1, args.s2
    d_min = args.d_min if args.d_min is not None else s1
    d_max = args.d_max if args.d_max is not None else 6 * g - 6 - s2
    # only degrees matching the rank-3 congruence of s1 are swept; their count
    # is not len(range), which raises OverflowError past a machine word
    first = d_min + ((s1 - d_min) % 3)
    rows = max(0, (d_max - first) // 3 + 1)
    _check_cap("the number of swept degrees", rows, MAX_TABLE_ROWS)
    curve = Curve(g, args.hyperelliptic)
    # every row is computed before any is written, so an error leaves stdout empty
    lines = ["d,value,case,exact\n"]
    if rows:
        # the invariants of the first degree, built for their checks: every
        # swept degree shares its residue mod 3, so they pass the same checks
        BundleInvariants(3, first, (s1, s2))
        degrees = range(first, d_max + 1, 3)
        for run, case, exact, slope, offset, divisor in semistable_runs(g, s1, s2, degrees):
            suffix = f",{case},{'true' if exact else 'false'}\n"
            lines += [f"{d},{(slope * d + offset) // divisor}{suffix}" for d in run]
    sys.stdout.write("".join(lines))
    return 0


def _suite_rows(family: str, g: int) -> str:
    """The suite's CSV rows of one family at one genus, one line each."""
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


# Each suite family, in suite order, with its rows of genus 2, 3, ... as one
# text and the end of each genus's rows in it: ends[g - 2] ends genus g.  A
# --max-genus past the last genus extends them; the cap bounds the three
# texts at about 2.5 MB.
_SUITE = {family: ["", []] for family in "abc"}


def _suite_text(family: str, max_genus: int) -> str:
    """The rows of ``family`` at genera 2..max_genus (max_genus >= 2)."""
    entry = _SUITE[family]
    text, ends = entry
    if len(ends) < max_genus - 1:
        blocks = [_suite_rows(family, g) for g in range(len(ends) + 2, max_genus + 1)]
        ends += list(accumulate(map(len, blocks), initial=len(text)))[1:]
        entry[0] = text = text + "".join(blocks)
    return text[: ends[max_genus - 2]]


def _suite_csv(max_genus: int) -> str:
    _check_cap("--max-genus", max_genus, MAX_SUITE_GENUS)
    header = "family,genus,n,k,m,variant,d,s1,s2,exact_h0,bound,sharp\n"
    if max_genus < 2:
        return header
    return "".join([header] + [_suite_text(family, max_genus) for family in _SUITE])


# Each mode of ``examples``: the function that makes its output, and the flags it
# reads besides the one that picks it, with their defaults, as that function's args.
_EXAMPLES_READS = {
    "suite": (_suite_csv, {"max_genus": 5}),
    "a": (family_a, {"genus": 3, "n": 0, "k": 0}),
    "b": (family_b, {"genus": 3, "m": 2}),
    "c": (family_c, {"genus": 3, "variant": "E1", "k": 0}),
    "unstable": (unstable_sharpness, {"genus": 3, "dl": None, "df": None, "s1f": None}),
}


def cmd_examples(args) -> int:
    mode = "suite" if args.suite else args.family
    if mode is None:
        raise Clifford3Error("need --family or --suite")
    _check_reads(args, "examples", mode)
    make, defaults = _EXAMPLES_READS[mode]
    params = [d if (v := getattr(args, dest)) is None else v for dest, d in defaults.items()]
    if None in params:  # only family unstable has flags without a default
        raise Clifford3Error("family unstable needs --dl, --df and --s1f")
    out = make(*params)
    sys.stdout.write(out if mode == "suite" else _report_line(out))
    return 0


def _report_line(r) -> str:
    """``examples --family``'s output line for the ``ExampleReport`` r, byte
    for byte ``json.dumps(r.to_dict())`` and a newline: the params have
    distinct names, as every family gives them, and each is an int or a
    string; the other fields are ints, a bool, strings and lists of them,
    and ``bound`` and ``slope_bound`` are the objects of :func:`_bound_line`."""
    family, curve, inv, exact_h0, b, params, slope, notes = r._values
    rank, degree, s = inv._values
    params = ", ".join([
        f"{_quote(k)}: {_quote(v) if isinstance(v, str) else v}" for k, v in params
    ])
    line = (
        f'{{"family": {_quote(family)}, "genus": {curve._values[0]}, "params": {{{params}}}, '
        f'"rank": {rank}, "degree": {degree}, "s": [{", ".join(map(str, s))}], '
        f'"exact_h0": {exact_h0}, "bound": {_bound_line(b)[:-1]}, '
        f'"sharp": {"true" if exact_h0 == b._values[0] else "false"}, '
        f'"notes": [{", ".join(map(_quote, notes))}]'
    )
    if slope is None:
        return line + "}\n"
    return f'{line}, "slope_bound": {_bound_line(slope)[:-1]}}}\n'


_Flag = namedtuple("_Flag", "dest type choices default help", defaults=(int, (), None, ""))
_Flag.__doc__ = """One flag or positional of a command.

``type`` is int, str, or bool for a switch, which stores True when given;
``default`` is REQUIRED for a flag that must be given."""


REQUIRED = object()

# Every command: its help line, then its flags and positionals (the keys
# without dashes) in the order of its usage line.  parse_args reads argv
# against this table alone.
COMMANDS = {
    "bound": ("one bound value as JSON", {
        "--genus": _Flag("genus", default=REQUIRED),
        "--rank": _Flag("rank", choices=(1, 2, 3), default=REQUIRED),
        "--degree": _Flag("degree", default=REQUIRED),
        "--s1": _Flag("s1"),
        "--s2": _Flag("s2"),
        "--s1f": _Flag("s1f"),
        "--hyperelliptic": _Flag("hyperelliptic", bool),
        "--delta": _Flag("delta", bool, help="apply the Krawtchouk refinement"),
        "--f-semistable": _Flag("f_semistable", bool),
    }),
    "krawtchouk": ("evaluate one coefficient", {
        "r": _Flag("r", default=REQUIRED),
        "n": _Flag("n", default=REQUIRED),
        "N": _Flag("N", default=REQUIRED),
    }),
    "elmtrans": ("transformation trajectory as JSON lines", {
        "--rank": _Flag("rank", choices=(2, 3), default=REQUIRED),
        "--genus": _Flag("genus", default=REQUIRED),
        "--steps": _Flag("steps", default=REQUIRED),
        "--choices": _Flag(
            "choices", str,
            help="0/1 string, one bit per (step, rank) pair; 1 hits a maximal subbundle",
        ),
    }),
    "table": ("sweep d over the special range as CSV", {
        "--genus": _Flag("genus", default=REQUIRED),
        "--s1": _Flag("s1", default=REQUIRED),
        "--s2": _Flag("s2", default=REQUIRED),
        "--d-min": _Flag("d_min"),
        "--d-max": _Flag("d_max"),
        "--hyperelliptic": _Flag("hyperelliptic", bool, help="rows are not sharpened"),
    }),
    # no flag here has a default, so that _check_reads can tell a given flag
    # from an absent one; cmd_examples applies the defaults of _EXAMPLES_READS
    "examples": ("example-family reports", {
        "--family": _Flag("family", str, choices=("a", "b", "c", "unstable")),
        "--genus": _Flag("genus"),
        "--n": _Flag("n"),
        "--k": _Flag("k"),
        "--m": _Flag("m"),
        "--variant": _Flag("variant", str, choices=("E1", "E2")),
        "--dl": _Flag("dl"),
        "--df": _Flag("df"),
        "--s1f": _Flag("s1f"),
        "--suite": _Flag("suite", bool),
        "--max-genus": _Flag("max_genus"),
    }),
}

_HELP = frozenset(("-h", "--help"))


def _int(text: str) -> int:
    """The int grammar: an optional "-", then ASCII digits (``-?[0-9]+``);
    int() alone also reads spaces, "+", "_" and the digits of other scripts."""
    if text.isascii() and text.removeprefix("-").isdecimal():
        return int(text)  # past 4,300 digits int() raises ValueError
    raise ValueError(text)


# the reader of each value type; a switch reads no value
_READERS = {int: _int, str: str}


def _choice(read, choices: tuple):
    """``read``, refusing any value outside ``choices``."""
    allowed = frozenset(choices)

    def choice(text: str):
        if (value := read(text)) in allowed:
            return value
        raise ValueError(text)

    return choice


def _reader(flag: _Flag):
    """The function that reads a value of ``flag`` or raises ValueError, or
    None for a switch."""
    if flag.type is bool:
        return None
    read = _READERS[flag.type]
    return _choice(read, flag.choices) if flag.choices else read


def _index(command: str, flags: dict) -> tuple:
    """(options, positionals, namespace defaults, required, required dests)
    of one command.

    ``options`` maps each flag's name to (dest, reader, flag), the reader
    None for a switch, and ``positionals`` is the (name, (dest, reader,
    flag)) of each positional, in order; ``required`` is the (name, dest) of
    each required flag, in order.  A required dest has no default, so it is
    absent until it is read.
    """
    options = {k: (f.dest, _reader(f), f) for k, f in flags.items() if k[0] == "-"}
    positionals = [(k, (f.dest, _reader(f), f)) for k, f in flags.items() if k[0] != "-"]
    defaults = {"command": command}
    for f in flags.values():
        if f.default is not REQUIRED:
            defaults[f.dest] = False if f.type is bool else f.default
    required = [(k, f.dest) for k, f in flags.items() if f.default is REQUIRED]
    return options, positionals, defaults, required, frozenset(dest for _, dest in required)


_INDEX = {command: _index(command, flags) for command, (_, flags) in COMMANDS.items()}


def _unread(command: str, reads) -> tuple:
    flags = COMMANDS[command][1].items()
    return tuple((k, f.dest) for k, f in flags if f.default is not REQUIRED and f.dest not in reads)


# what _check_reads walks, found once: each mode's where, and the (flag, dest) pairs of
# its unread optional flags; a mode of ``examples`` also reads the flag that picks it
_UNREAD = {
    "bound": {m: (f"at rank {m}" if m in (1, 2) else f"on {m} input", _unread("bound", r))
              for m, r in _BOUND_READS.items()},
    "examples": {m: ("with --suite", _unread("examples", [*r, "suite"])) if m == "suite"
                 else (f"by family {m}", _unread("examples", [*r, "family"]))
                 for m, (_, r) in _EXAMPLES_READS.items()},
}


def _blank(command: str, unread: tuple) -> tuple:
    """A getter of the unread dests, and what it gets when none is given: the
    namespace defaults of ``_index``, None for a value flag (never False,
    which equals 0) and False for a switch."""
    get = attrgetter(*(dest for _, dest in unread))
    return get, get(SimpleNamespace(**_INDEX[command][2]))


# _check_reads' one call for the common case, that no unread flag is given
_UNREAD_BLANK = {
    command: {mode: _blank(command, unread) for mode, (_, unread) in modes.items()}
    for command, modes in _UNREAD.items()
}


def _convert(name: str, flag: _Flag, text: str) -> UsageError:
    """The UsageError for ``text``, which the reader of ``flag`` refused: an
    invalid value when the reader of its type refuses it too, else an
    invalid choice.  Only refusals come here, so each grammar is stated
    once, in its reader."""
    try:
        value = _READERS[flag.type](text)
    except ValueError:
        return UsageError(f"argument {name}: invalid {flag.type.__name__} value: {text!r}")
    choices = ", ".join(map(repr, flag.choices))
    return UsageError(f"argument {name}: invalid choice: {value!r} (choose from {choices})")


def _usage(command: str | None) -> str:
    """The help text of one command, or of the program for None."""
    if command is None:
        lines = [
            f"usage: clifford3 [-h] {{{','.join(COMMANDS)}}} ...",
            "",
            "Exact Clifford-type section bounds for rank-1/2/3 bundles on curves",
            "",
        ]
        lines += [f"  {name:<12}{text}" for name, (text, _) in COMMANDS.items()]
        return "\n".join(lines) + "\n"
    text, flags = COMMANDS[command]
    words, rows = ["[-h]"], [("-h, --help", "show this help message and exit")]
    for name, f in flags.items():
        meta = "{%s}" % ",".join(map(str, f.choices)) if f.choices else f.dest.upper()
        spelled = name if f.type is bool or name[0] != "-" else f"{name} {meta}"
        words.append(spelled if f.default is REQUIRED else f"[{spelled}]")
        rows.append((spelled, f.help))
    lines = [f"usage: clifford3 {command} {' '.join(words)}", "", text, ""]
    lines += [f"  {spelled:<24}{help_}".rstrip() for spelled, help_ in rows]
    return "\n".join(lines) + "\n"


def parse_args(argv: list[str] | None = None) -> SimpleNamespace:
    """The namespace of one command line, read against COMMANDS in one walk.

    ``argv[0]`` is the command.  A flag is read only by its exact name, as
    ``--flag value`` or ``--flag=value``: the token after a flag that takes
    a value is that value, and a switch takes none.  The last value of a
    repeated flag wins.  Any other token fills the next positional, or is an
    unrecognized argument.  Each value is read by its flag's reader in
    ``_INDEX``: an int is an optional ``-``, then ASCII digits (``_int``),
    and a choice flag refuses any value outside its choices.
    ``-h``/``--help`` anywhere prints the command's usage text, or the
    program's when it comes first, to stdout and raises ``SystemExit(0)``;
    any other malformed argv raises ``UsageError``.  No state is kept.
    """
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        raise UsageError("the following arguments are required: command")
    command = argv[0]
    if command in _HELP:
        command = None
    elif command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        raise UsageError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    if command is None or not _HELP.isdisjoint(argv):
        sys.stdout.write(_usage(command))
        raise SystemExit(0)
    options, positionals, defaults, required, required_dests = _INDEX[command]
    values = defaults.copy()
    stray = []
    filled = 0  # positionals read so far
    i, end = 1, len(argv)
    while i < end:
        tok = argv[i]
        i += 1
        spec = options.get(tok)
        if spec is not None:  # a flag by its exact name, the common spelling
            dest, read, flag = spec
            if read is None:  # a switch
                values[dest] = True
                continue
            if i == end:
                raise UsageError(f"argument {tok}: expected one argument")
            name, text = tok, argv[i]
            i += 1
        else:
            # any other token is ``--flag=value``, the next positional or stray
            name, _, text = tok.partition("=")
            spec = options.get(name)
            if spec is not None:
                dest, read, flag = spec
                if read is None:
                    raise UsageError(f"argument {name}: ignored explicit argument {text!r}")
            elif filled < len(positionals):
                name, (dest, read, flag) = positionals[filled]
                text = tok
                filled += 1
            else:
                stray.append(tok)
                continue
        try:
            values[dest] = read(text)
        except ValueError:
            raise _convert(name, flag, text) from None
    if not values.keys() >= required_dests:
        missing = [name for name, dest in required if dest not in values]
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if stray:
        raise UsageError(f"unrecognized arguments: {' '.join(stray)}")
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    try:
        # parse_args and the cmd_* are looked up by name on every call, so
        # that rebinding one of them at module level takes effect
        args = parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except (Clifford3Error, ValueError) as exc:
        return _emit_error(exc)


if __name__ == "__main__":
    sys.exit(main())
