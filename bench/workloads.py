"""The three benchmark workloads: seeded inputs, one operation, its check.

Each workload makes its inputs from the seed alone and calls the program
only through module attributes (``bounds.h0_rank2_bound``, ``cli.main``),
so the tracer's wrappers see every call.  An operation is a tuple of JSON
values, so that a fresh interpreter can be handed the first one.

``execute`` is the timed call; ``value`` turns its result into plain
tuples for ``check`` and ``canon`` outside the timed region.  ``check``
returns None or ``(kind, label)``.  Kind ``wrong`` means a valid
input got a wrong or missing result; kind ``contract`` means an invalid
input did not get the documented error: one ``{"code", "message"}`` JSON
line on stderr and exit status 2; kind ``defect`` means a valid input hit a
known defect of the program and got that documented error.  Every kind is
a failed operation; only ``wrong`` makes the run incorrect.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from importlib import import_module

import oracles

# import_module, because the package re-exports a function named krawtchouk
bounds, cli, invariants, krawtchouk = (
    import_module(f"clifford3.{m}") for m in ("bounds", "cli", "invariants", "krawtchouk")
)


def _oracle(r: int, n: int, N: int) -> int:
    return krawtchouk.krawtchouk_oracle(krawtchouk.KrawtchoukQuery(r, n, N))


KVAL = oracles.kraw_reference(_oracle)


def _result(r) -> tuple:
    return (r.value, r.case, r.exact, tuple(r.assumptions))


def _fmt(r: tuple) -> str:
    value, case, exact, assumptions = r
    return f"{value},{case},{int(exact)},{';'.join(assumptions)}"


def _cycle(ops):
    while True:
        yield from ops


def _nonneg_s1f(d: int, s1: int, s2: int) -> int:
    """The smallest admissible s1f that is also nonnegative."""
    t = oracles.min_s1f(d, s1, s2)
    return t if t >= 0 else t % 2


class Grid:
    """Rows of the congruence-valid semistable rank-3 grid."""

    name = "grid"
    genera = range(20, 31)
    duality_share = 8  # one row in this many gets the duality check
    tail_percentile = 99.0
    digest_ops = 2000

    def __init__(self, seed: int):
        rng = random.Random(f"grid:{seed}")
        rows = [
            (g, s1, s2)
            for g in self.genera
            for s1 in range(3 * g + 1)
            for s2 in range(3 * g + 1)
            if (s2 - 2 * s1) % 3 == 0
        ]
        rng.shuffle(rows)
        self.ops_list = [
            (g, rng.random() < 0.5, s1, s2, rng.randrange(self.duality_share) == 0)
            for g, s1, s2 in rows
        ]

    def ops(self):
        return _cycle(self.ops_list)

    @staticmethod
    def _row(g, hyp, s1, s2, d_values):
        curve = invariants.Curve(g, hyperelliptic=hyp)
        return [
            bounds.h0_rank3_semistable_bound(
                bounds.Rank3Query(
                    curve,
                    invariants.BundleInvariants(3, d, (s1, s2)),
                    use_hyperelliptic_sharpening=hyp,
                )
            )
            for d in d_values
        ]

    @staticmethod
    def degrees(g, s1, s2):
        """s1-6 .. 6g-6-s2+6 in steps of 3: both exact tails and the middle."""
        return range(s1 - 6, 6 * g - 6 - s2 + 7, 3)

    @staticmethod
    def execute(op):
        g, hyp, s1, s2, _ = op
        return Grid._row(g, hyp, s1, s2, Grid.degrees(g, s1, s2))

    @staticmethod
    def value(out):
        return [_result(r) for r in out]

    def check(self, op, out):
        """Exact tails and every middle point against the reference, and
        the duality identity on the sampled rows."""
        g, hyp, s1, s2, dual = op
        degrees = self.degrees(g, s1, s2)
        if len(out) != len(degrees):
            return ("wrong", "row length")
        middle = []
        for d, r in zip(degrees, out):
            tail = oracles.rank3_tail(g, d, s1, s2)
            if tail is not None:
                if r != tail:
                    return ("wrong", "exact tail value")
            elif r not in oracles.rank3_expected(g, d, s1, s2, hyp, hyp, None, False, KVAL):
                return ("wrong", "middle value")
            else:
                middle.append((d, r[0]))
        if dual and middle:
            # Serre duality and Riemann-Roch: v(d, s1, s2) = d+3-3g + v(6g-6-d, s2, s1)
            duals = self._row(g, hyp, s2, s1, [6 * g - 6 - d for d, _ in middle])
            for (d, v), rd in zip(middle, duals):
                if v != d + 3 - 3 * g + rd.value:
                    return ("wrong", "duality identity")
        return None

    @staticmethod
    def canon(op, out):
        return f"{op[:4]}:" + "|".join(_fmt(r) for r in out)


class Refined:
    """Single bound queries with every Krawtchouk refinement switched on."""

    name = "refined"
    kinds = ("rank2", "rank3", "prop21")
    # Each block draws every kind once in each of the equal log-width genus
    # strata from 16 to 1024, with the degree's place in its range and the
    # closed-form cases spread evenly too, so that seeds differ in the
    # queries but hardly in their cost.
    strata = 64
    g_lo, g_hi = 16, 1024
    closed_form_share = 4  # one query in this many has s1 = 0 (rank 2) or s1f = 0
    # p99 falls among the few heaviest queries of the top genus stratum and
    # spread 0.09-0.13 between runs; p98 spread 0.03
    tail_percentile = 98.0
    digest_ops = 1000

    def __init__(self, seed: int):
        self.seed = seed

    def ops(self):
        rng = random.Random(f"refined:{self.seed}")
        lo, hi = math.log(self.g_lo), math.log(self.g_hi)
        n = self.strata
        while True:
            block = []
            for kind in self.kinds:
                d_bins = rng.sample(range(n), n)
                closed = set(rng.sample(range(n), n // self.closed_form_share))
                for i in range(n):
                    g = round(math.exp(lo + (i + rng.random()) / n * (hi - lo)))
                    u = (d_bins[i] + rng.random()) / n
                    block.append(self.query(rng, kind, g, u, i in closed))
            rng.shuffle(block)
            yield from block

    @staticmethod
    def query(rng, kind, g, u, closed):
        """One admissible query: d at place u of the special range (a fresh
        place when the first draw is rejected), s1f <= g."""
        if kind == "rank2":
            s1 = 0 if closed else rng.randint(0, g)
            return (kind, g, s1 + 2 * int(u * ((4 * g - 4 - 2 * s1) // 2 + 1)), s1, None, None)
        while True:
            if kind == "rank3":
                s2 = rng.randint(0, g // 2) if closed else rng.randint(0, g)
                s1 = 2 * s2 + rng.randint(0, g // 2) if closed else rng.randint(0, g)
            else:
                s2 = rng.randint(0, g // 3) if closed else rng.randint(0, g)
                s1 = 2 * s2 if closed else rng.randint(0, min(2 * s2, g))
            s2 += (2 * s1 - s2) % 3
            d = s1 + 3 * int(u * ((6 * g - 6 - s2 - s1) // 3 + 1))
            u = rng.random()
            if d > 6 * g - 6 - s2:
                continue
            t = _nonneg_s1f(d, s1, s2)
            if t > g or (closed and t != 0):
                continue
            s1f = 0 if closed else t + 2 * rng.randint(0, (g - t) // 2)
            if kind == "prop21" and not (
                max(2 * s1, 3 * s1f - s1) <= 2 * d <= 12 * g - 12 - 3 * s1f - s1
            ):
                continue
            return (kind, g, d, s1, s2, s1f)

    @staticmethod
    def execute(op):
        kind, g, d, s1, s2, s1f = op
        curve = invariants.Curve(g)
        if kind == "rank2":
            return bounds.h0_rank2_bound(curve, d, s1, use_delta=True)
        q = bounds.Rank3Query(
            curve, invariants.BundleInvariants(3, d, (s1, s2)), s1f=s1f, use_delta=True
        )
        if kind == "rank3":
            return bounds.h0_rank3_semistable_bound(q)
        return bounds.h0_prop21_bound(q)

    value = staticmethod(_result)

    def expected(self, op) -> set:
        kind, g, d, s1, s2, s1f = op
        if kind == "rank2":
            return oracles.rank2_expected(g, d, s1, False, True, KVAL)
        if kind == "rank3":
            return oracles.rank3_expected(g, d, s1, s2, False, False, s1f, True, KVAL)
        return oracles.prop21_expected(g, d, s1, s1f, False, False, True, KVAL)

    def check(self, op, out):
        return None if out in self.expected(op) else ("wrong", f"{op[0]} value")

    @staticmethod
    def canon(op, out):
        return f"{op}:{_fmt(out)}"


def _argv(command, **opts) -> list[str]:
    """``command --name value ...``; an option set to True is a bare switch."""
    out = [command]
    for name, value in opts.items():
        out.append("--" + name.replace("_", "-"))
        if value is not True:
            out.append(str(value))
    return out


def _flags(argv) -> dict:
    """--name value pairs and bare --name switches of one argv."""
    out, i = {}, 0
    while i < len(argv):
        a = argv[i]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[a] = argv[i + 1]
            i += 2
        else:
            out[a] = True
            i += 1
    return out


class Session:
    """A seeded script of CLI commands, run in-process."""

    name = "session"
    # commands per pass of the script; "invalid" is 5% of it
    mix = {
        "bound1": 20,
        "bound2": 30,
        "bound3": 40,
        "unstable": 20,
        "table": 20,
        "elmtrans": 20,
        "krawtchouk": 16,
        "suite": 12,
        "family": 12,
        "invalid": 10,
    }
    tail_percentile = 99.0
    digest_ops = sum(mix.values())

    def __init__(self, seed: int):
        rng = random.Random(f"session:{seed}")
        script = []
        for kind, count in self.mix.items():
            make = getattr(self, f"_make_{kind}")
            script += [make(rng, i) for i in range(count)]
        rng.shuffle(script)
        self.ops_list = script

    def ops(self):
        return _cycle(self.ops_list)

    # --- generators: every command except "invalid" is valid input ---

    @staticmethod
    def _make_bound1(rng, i):
        g = rng.randint(2, 40)
        return ("bound1", _argv("bound", rank=1, genus=g, degree=rng.randint(-3, 2 * g + 1)))

    @staticmethod
    def _make_bound2(rng, i):
        g = rng.randint(2, 40)
        s1 = rng.randint(0, 2 * g)
        d = s1 + 2 * rng.randint(-2, 2 * g - s1)
        opts = dict(rank=2, genus=g, degree=d, s1=s1)
        if rng.random() < 0.5:
            opts["delta"] = True
        if rng.random() < 1 / 3:
            opts["hyperelliptic"] = True
        return ("bound2", _argv("bound", **opts))

    @staticmethod
    def _make_bound3(rng, i):
        g = rng.randint(2, 40)
        s1 = rng.randint(0, 2 * g)
        s2 = rng.randint(0, 2 * g)
        s2 += (2 * s1 - s2) % 3
        d = s1 + 3 * rng.randint(-1, max(0, (6 * g - 6 - s2 - s1) // 3 + 1))
        opts = dict(rank=3, genus=g, degree=d, s1=s1, s2=s2)
        if rng.random() < 0.5:
            opts.update(s1f=_nonneg_s1f(d, s1, s2) + 2 * rng.randint(0, 2), delta=True)
        if rng.random() < 1 / 3:
            opts["hyperelliptic"] = True
        return ("bound3", _argv("bound", **opts))

    @staticmethod
    def _make_unstable(rng, i):
        """s1 < 0 in half the commands; otherwise s2 < 0 <= s1, passed to the
        twisted dual, with (s1 + s2)/3 even and odd in turn, so that every
        pass has its share of the known s1f parity defect (see
        _s1f_parity_defect).  s1f is the minimum for the bundle actually
        bounded, plus a seeded even offset, and --f-semistable is set
        exactly when s1f >= 0."""
        g = rng.randint(2, 40)
        a = -rng.randint(1, g)  # the negative stability degree
        if i % 2 == 0:
            b = rng.randint(-g, 2 * g)
            s1, s2 = a, b + (2 * a - b) % 3
        else:
            b = rng.randint(0, 2 * g)
            s2 = a
            s1 = b + (2 * s2 - b) % 3  # s2 == 2*s1 mod 3
            if (s1 + s2) // 3 % 2 != i // 2 % 2:
                s1 += 3
        d = s1 + 3 * rng.randint(-1, max(0, (6 * g - 6 - s2 - s1) // 3 + 1))
        if s1 < 0:
            bd, bs1, bs2 = d, s1, s2
        else:
            bd, bs1, bs2 = 6 * g - 6 - d, s2, s1
        s1f = oracles.min_s1f(bd, bs1, bs2) + 2 * rng.randint(0, 2)
        opts = dict(rank=3, genus=g, degree=d, s1=s1, s2=s2, s1f=s1f)
        if s1f >= 0:
            opts["f_semistable"] = True
        return ("unstable", _argv("bound", **opts))

    @staticmethod
    def _make_table(rng, i):
        g = rng.randint(3, 30)
        s1 = rng.randint(0, 3 * g)
        s2 = rng.randint(0, 3 * g - 2)
        s2 += (2 * s1 - s2) % 3
        opts = dict(genus=g, s1=s1, s2=s2)
        if rng.random() < 0.5:
            opts.update(d_min=s1 - 6, d_max=6 * g - s2)
        if rng.random() < 1 / 3:
            opts["hyperelliptic"] = True
        return ("table", _argv("table", **opts))

    @staticmethod
    def _make_elmtrans(rng, i):
        rank = rng.choice((2, 3))
        steps = rng.randint(1, 30)
        opts = dict(rank=rank, genus=rng.randint(2, 30), steps=steps)
        if rng.random() < 0.75:
            opts["choices"] = "".join(rng.choice("01") for _ in range(steps * (rank - 1)))
        return ("elmtrans", _argv("elmtrans", **opts))

    @staticmethod
    def _make_krawtchouk(rng, i):
        if i % 4 == 0:  # N = 2n beyond the oracle's range: the closed form applies
            n = rng.randint(33, 200)
            N = 2 * n
        else:
            N = rng.randint(0, 64)
            n = rng.randint(0, N)
        return ("krawtchouk", ["krawtchouk", str(rng.randint(0, N)), str(n), str(N)])

    @staticmethod
    def _make_suite(rng, i):
        # max genus 20..30 spread evenly over the pass; a suite costs ~ G^2
        return ("suite", _argv("examples", suite=True, max_genus=20 + round(i * 10 / 11)))

    @staticmethod
    def _make_family(rng, i):
        g = rng.randint(3, 30)
        fam = ("a", "b", "c", "unstable")[i % 4]
        opts = dict(family=fam, genus=g)
        if fam == "a":
            n = rng.randint(0, (g - 2) // 4)
            opts.update(n=n, k=rng.randint(0, g - 2 * n - 3))
        elif fam == "b":
            opts["m"] = 2 * rng.randint(1, g // 2)
        elif fam == "c":
            opts.update(variant=rng.choice(("E1", "E2")), k=rng.randint(0, g - 2))
        else:  # split sums of pencil powers, as in acceptance criterion 8
            b = rng.randint(0, g - 2)
            a = rng.randint(0, b)
            e = rng.randint(b + 1 if a == b else b, g - 1)
            opts.update(dl=2 * e, df=2 * a + 2 * b, s1f=2 * a - 2 * b)
        return ("family", _argv("examples", **opts))

    @staticmethod
    def _make_invalid(rng, i):
        """Invalid argv, one of ten kinds per pass.  The first three hit the
        known defects: argparse usage text instead of the JSON error, and a
        TypeError from the unstable family without --dl."""
        g = rng.randint(2, 30)
        d = rng.randint(0, 6 * g)
        cases = [
            _argv("bound", rank=4, genus=g, degree=d),  # argparse choices
            _argv("bound", rank=2, degree=d, s1=0),  # argparse: --genus missing
            _argv("examples", family="unstable", genus=g),  # no --dl/--df/--s1f
            _argv("bound", rank=3, genus=g, degree=d, s1=d % 3),  # no --s2
            _argv("bound", rank=2, genus=g, degree=2 * d, s1=1),  # parity
            ["krawtchouk", "1", str(g + 1), str(g)],  # n > N
            _argv("bound", rank=3, genus=g, degree=3 * d, s1=0, s2=0, s1f=2 * d + 1),  # parity
            _argv("elmtrans", rank=3, genus=g, steps=2, choices="01"),  # length
            _argv("bound", rank=1, genus=1, degree=d),  # genus < 2
            _argv("examples", family="a", genus=g, n=0, k=g),  # k out of range
        ]
        return ("invalid", cases[i % len(cases)])

    # --- execution and checks ---

    @staticmethod
    def execute(op):
        _, argv = op
        out, err = io.StringIO(), io.StringIO()
        escaped = None
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escaping traceback is an outcome to check
                code, escaped = None, f"{type(exc).__name__}: {exc}"
        return (code, out.getvalue(), err.getvalue(), escaped)

    @staticmethod
    def value(out):
        return out

    def check(self, op, out):
        kind, argv = op
        code, stdout, stderr, escaped = out
        if kind == "invalid":
            return self._check_error(code, stdout, stderr, escaped)
        if (
            self._s1f_parity_defect(kind, argv)
            and self._check_error(code, stdout, stderr, escaped) is None
            and self._json_error(stderr)["code"] == "CongruenceViolation"
        ):
            return ("defect", "unstable: the twisted dual's s1f rejected by the input's parity")
        if escaped is not None:
            return ("wrong", f"{kind}: {escaped.split(':')[0]} escaped main")
        if code != 0 or stderr:
            return ("wrong", f"{kind}: valid input rejected")
        try:
            problem = getattr(self, f"_check_{kind}")(_flags(argv[1:]), argv, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unparsable output ({type(exc).__name__})"
        return None if problem is None else ("wrong", f"{kind}: {problem}")

    @staticmethod
    def _s1f_parity_defect(kind, argv):
        """A known defect: for s2 < 0 <= s1 the unstable bound reads s1f as
        the twisted dual's, but Rank3Query first checks it against the
        parity of the input's quotient degree (2d + s1)/3.  Where the two
        parities differ, every s1f is rejected, so this valid input gets a
        CongruenceViolation.  It counts as a failed operation."""
        if kind != "unstable":
            return False
        f = _flags(argv[1:])
        d, s1, s1f = int(f["--degree"]), int(f["--s1"]), int(f["--s1f"])
        return s1 >= 0 and (s1f - (2 * d + s1) // 3) % 2 != 0

    @staticmethod
    def _json_error(stderr):
        """The one {"code", "message"} JSON line on stderr, or None."""
        lines = stderr.splitlines()
        try:
            obj = json.loads(lines[0]) if len(lines) == 1 else None
        except ValueError:
            return None
        return obj if isinstance(obj, dict) and set(obj) == {"code", "message"} else None

    @classmethod
    def _check_error(cls, code, stdout, stderr, escaped):
        if escaped is not None:
            return ("contract", f"{escaped.split(':')[0]} traceback instead of JSON error")
        if cls._json_error(stderr) is None:
            usage = "usage:" in stderr
            return ("contract", "usage text instead of JSON error" if usage else "no JSON error")
        if code != 2 or stdout:
            return ("contract", "JSON error without exit status 2")
        return None

    @staticmethod
    def _bound_result(stdout):
        obj = json.loads(stdout)
        if set(obj) != {"value", "case", "exact", "assumptions"}:
            raise KeyError("bound keys")
        return (obj["value"], obj["case"], obj["exact"], tuple(obj["assumptions"]))

    def _check_bound1(self, f, argv, stdout):
        exp = oracles.line_expected(int(f["--genus"]), int(f["--degree"]))
        return None if self._bound_result(stdout) in exp else "rank-1 value"

    def _check_bound2(self, f, argv, stdout):
        exp = oracles.rank2_expected(
            int(f["--genus"]), int(f["--degree"]), int(f["--s1"]),
            "--hyperelliptic" in f, "--delta" in f, KVAL,
        )
        return None if self._bound_result(stdout) in exp else "rank-2 value"

    def _check_bound3(self, f, argv, stdout):
        hyp = "--hyperelliptic" in f
        s1f = int(f["--s1f"]) if "--s1f" in f else None
        exp = oracles.rank3_expected(
            int(f["--genus"]), int(f["--degree"]), int(f["--s1"]), int(f["--s2"]),
            hyp, hyp, s1f, "--delta" in f, KVAL,
        )
        return None if self._bound_result(stdout) in exp else "rank-3 value"

    def _check_unstable(self, f, argv, stdout):
        value, case, exact, assumptions = self._bound_result(stdout)
        g, d, s1, s2 = (int(f[k]) for k in ("--genus", "--degree", "--s1", "--s2"))
        if s1 >= 0:
            if assumptions[-1:] != ("serre-dual-reduction",):
                return "dual reduction not recorded"
            assumptions = assumptions[:-1]
            d, s1, s2 = 6 * g - 6 - d, s2, s1
        tail = oracles.rank3_tail(g, d, s1, s2)
        if tail is not None:
            return None if (case, exact) == tail[1:3] else "exact tail"
        if value < 0 or exact or case not in ("UNSTABLE-SS-QUOTIENT", "UNSTABLE-UNSTABLE-QUOTIENT"):
            return "unstable case"
        if (case == "UNSTABLE-SS-QUOTIENT") != ("--f-semistable" in f):
            return "quotient type"
        return None

    def _check_table(self, f, argv, stdout):
        g, s1, s2 = int(f["--genus"]), int(f["--s1"]), int(f["--s2"])
        hyp = "--hyperelliptic" in f
        d_min = int(f.get("--d-min", s1))
        d_max = int(f.get("--d-max", 6 * g - 6 - s2))
        rows = list(csv.DictReader(io.StringIO(stdout)))
        degrees = range(d_min + (s1 - d_min) % 3, d_max + 1, 3)
        if [int(r["d"]) for r in rows] != list(degrees):
            return "swept degrees"
        for r in rows:
            got = (int(r["value"]), r["case"], r["exact"] == "true")
            exp = oracles.rank3_expected(g, int(r["d"]), s1, s2, hyp, False, None, False, KVAL)
            if got not in {e[:3] for e in exp}:
                return "rank-3 value"
        return None

    def _check_elmtrans(self, f, argv, stdout):
        rank, steps = int(f["--rank"]), int(f["--steps"])
        bits = f.get("--choices", "0" * steps * (rank - 1))
        rows = [json.loads(line) for line in stdout.splitlines()]
        want = oracles.elmtrans_states(rank, steps, bits)
        got = [(r["d"], r["s"]) for r in rows]
        if got != want or [r["step"] for r in rows] != list(range(steps + 1)):
            return "transformation rule"
        if any(r["rank"] != rank or not isinstance(r["sb_dim_upper"], dict) for r in rows):
            return "state fields"
        return None

    def _check_krawtchouk(self, f, argv, stdout):
        r, n, N = (int(x) for x in argv[1:4])
        return None if int(stdout) == KVAL(r, n, N) else "coefficient"

    def _check_suite(self, f, argv, stdout):
        max_genus = int(f["--max-genus"])
        rows = list(csv.DictReader(io.StringIO(stdout)))
        counts = dict.fromkeys("abc", 0)
        for row in rows:
            rec = {
                "family": row["family"],
                "exact_h0": int(row["exact_h0"]),
                "bound": int(row["bound"]),
                "sharp": row["sharp"] == "true",
                "n": int(row["n"] or 0),
                "k": int(row["k"] or 0),
                "variant": row["variant"],
            }
            problem = oracles.suite_row_problem(rec)
            if problem:
                return problem
            if int(row["genus"]) > max_genus:
                return "genus above --max-genus"
            counts[rec["family"]] += 1
        return None if counts == oracles.suite_size(max_genus) else "report count"

    def _check_family(self, f, argv, stdout):
        obj = json.loads(stdout)
        p = obj["params"]
        rec = {
            "family": obj["family"],
            "exact_h0": obj["exact_h0"],
            "bound": obj["bound"]["value"],
            "sharp": obj["sharp"],
            "n": p.get("n", 0),
            "k": p.get("k", 0),
            "variant": p.get("variant", ""),
        }
        if rec["family"] != f["--family"]:
            return "family"
        return oracles.suite_row_problem(rec)

    @staticmethod
    def bytes_out(out):
        """Bytes the command wrote to stdout and stderr."""
        return len(out[1].encode()) + len(out[2].encode())

    @staticmethod
    def canon(op, out):
        code, stdout, stderr, escaped = out
        return json.dumps([op[1], code, stdout, stderr, escaped])


WORKLOADS = {w.name: w for w in (Grid, Refined, Session)}
