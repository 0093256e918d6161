"""The console's edges and output pins, as one table.

Each row runs ``cli.main`` in this process on one argv and checks its exit
status, and either the sha256 of its stdout or pieces that its stdout and
stderr hold, in the order given; a row may also fix stdout's line count.
Every row also checks the process contract: exit status 0 with nothing on
stderr, or 2 with nothing on stdout and one JSON error object on stderr;
and stdout that opens with ``{`` is JSON lines, each what ``json.dumps``
writes.  A few checks that are not one argv follow the table.
"""
import hashlib
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from math import comb

import pytest

from clifford3 import Curve, seed_state_lemma36, step, trajectory
from clifford3.cli import main


def console(argv):
    """(status, stdout, stderr) of ``main(argv)``; help exits through SystemExit."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def row(command, status=0, out=(), err=(), lines=None):
    """A check of ``command``: ``out`` is stdout's sha256, or the pieces it holds."""
    return pytest.param(command.split(), status, out, err, lines, id=command[:90])


# the congruent degrees at each end of the special range: exact tails outside, not inside;
# at rank 2 with s1 < 0 the case joins the cases of the two line parts by "+"
EDGES = """\
--rank 1|-1|"value": 0, "case": "VANISHING"
--rank 1|0|"case": "CLIFFORD-LINE"
--rank 1|4|"case": "CLIFFORD-LINE"
--rank 1|5|"value": 3, "case": "RR-EXACT"
--rank 2 --s1 1|-1|"value": 0, "case": "VANISHING"
--rank 2 --s1 1|1|"case": "RANK2-CLIFFORD"
--rank 2 --s1 1|7|"case": "RANK2-CLIFFORD"
--rank 2 --s1 1|9|"value": 5, "case": "RR-EXACT"
--rank 2 --s1 -2|-4|"value": 0, "case": "VANISHING+VANISHING"
--rank 2 --s1 -2|-2|"case": "CLIFFORD-LINE+VANISHING"
--rank 2 --s1 -2|10|"case": "RR-EXACT+CLIFFORD-LINE"
--rank 2 --s1 -2|12|"value": 8, "case": "RR-EXACT+RR-EXACT"
--rank 3 --s1 1 --s2 2|-2|"value": 0, "case": "VANISHING"
--rank 3 --s1 1 --s2 2|1|"case": "RANK3-MAIN"
--rank 3 --s1 1 --s2 2|10|"case": "RANK3-MAIN"
--rank 3 --s1 1 --s2 2|13|"value": 7, "case": "RR-EXACT"
"""

# every byte of tables written as case runs: the row cap with every row a distinct
# RANK3-MAIN value; VANISHING, LINE-ONLY, MAIN and RR-EXACT; VANISHING, MAIN,
# LINE-ONLY-DUAL and RR-EXACT
TABLES = """\
--genus 50000 --s1 0 --s2 0 --d-min 0 --d-max 299997|c965cf0d68433db9369194499a3f6acfd8c58f7b84d901c523fa2c42bbea11ca
--genus 10 --s1 0 --s2 21 --d-min -9 --d-max 60|a8bf4baf3c07cdf791ebbc67b2431dbc00d7926a11d9813e6f2b1641d4f9c164
--genus 10 --s1 21 --s2 0 --d-min 9 --d-max 66|994b551d9d76693de1936e62706a2c8042b2eb9382be674fed3de5188bface3d
"""

WALK30 = "011010011100101101001110010110100101100111010010110100101101"
# rank 1 misses 600 times, hits, then misses again while rank 2 hits
LATE3 = "00" * 600 + "10" + "01" * 599
LATE2 = "0" * 600 + "1" + "0" * 599
_rng = random.Random(18)
CAP_CHOICES = "".join(_rng.choice("01") for _ in range(20000))
CAP_WALK = f"elmtrans --rank 3 --genus 1000 --steps 10000 --choices {CAP_CHOICES}"
MISS_WALK = "elmtrans --rank 2 --genus 1000 --steps 10000"
DUAL = "bound --genus 10 --rank 3 --degree 19 --s1 4 --s2 -1 --f-semistable"
REFINED = "bound --genus 3 --rank 3 --degree 10 --s1 1 --s2 2 --delta"

ROWS = [
    *(row(f"bound --genus 3 {flags} --degree {degree}", out=(expected,))
      for flags, degree, expected in (line.split("|") for line in EDGES.splitlines())),
    row("bound --genus 5 --rank 3 --degree 4 --s1 -2 --s2 2 --s1f 2 --f-semistable",
        out=("UNSTABLE-SS-QUOTIENT",)),
    # N + L + L with deg N = -3 and deg L = 5 at genus 2 has h0 = 0 + 4 + 4; s1f < 0, so
    # the split sum bounds F by the line bounds of its subbundle L and its quotient N
    row("bound --genus 2 --rank 3 --degree 7 --s1 -8 --s2 -16 --s1f -8",
        out=('"value": 8,', '"line:RR-EXACT", "quotient:RR-EXACT+VANISHING"')),
    # s2 < 0 <= s1: s1f is the twisted dual's, whose quotient degree is 23 and least s1f 3
    row(f"{DUAL} --s1f 3", out=('"value": 11', '"serre-dual-reduction"')),
    row(f"{DUAL} --s1f 2", 2,
        err=('"code": "CongruenceViolation"',
             "quotient degree 23 of the twisted dual (35, -1, 4)")),
    row(f"{DUAL} --s1f 1", 2,
        err=('"code": "HypothesisFailed"', "minimum 3 = (2*s1-s2)/3 ",
             " the twisted dual (35, -1, 4)")),
    # the Krawtchouk refinement is the rank-2 rule: on E at rank 2, on the quotient F at rank 3
    row("bound --genus 3 --rank 2 --degree 3 --s1 1 --delta",
        out=('"value": 2, "case": "RANK2-KRAWTCHOUK"',)),
    row(f"{REFINED} --s1f 1",
        out=('"value": 6, "case": "RANK3-MAIN-SHARP"', '"krawtchouk-nonzero"')),
    # s1f = 5 > g lies outside the rule's domain
    row(f"{REFINED} --s1f 5", out=('"value": 7, "case": "RANK3-MAIN"',)),
    # K_3(2, 4) = 0, read by the rank-2 bound at d = 4 and by the rank-3 bound at d = 6 (deg F = 4)
    row("bound --genus 2 --rank 2 --degree 4 --s1 0 --delta",
        out=('"value": 4, "case": "RANK2-CLIFFORD"',)),
    row("bound --genus 2 --rank 3 --degree 6 --s1 0 --s2 0 --s1f 0 --delta",
        out=('"value": 6, "case": "RANK3-MAIN"',)),
    row("bound --genus 3 --rank 2 --degree 3 --s1 1 --hyperelliptic", out=("RANK2-HYP",)),
    row("bound --genus 3 --rank 2 --degree 1 --s1 1 --hyperelliptic --delta", out=("RANK2-HYP",)),
    row("bound --genus 3 --rank 3 --degree 10 --s1 1 --s2 2 --hyperelliptic", lines=1),
    row("examples --family c --genus 5 --variant E1 --k 2", lines=1),
    row("examples --suite --max-genus 5",
        out=("family,genus,n,k,m,variant,d,s1,s2,exact_h0,bound,sharp\n",)),
    # every byte of the suite at its cap, written from one text per family
    row("examples --suite --max-genus 100",
        out="d35be7b5bdeb995d8838af5f750d0c7665f865414486d71e3997cd8672869296", lines=74876),
    row("table --genus 5 --s1 1 --s2 2 --hyperelliptic",
        out=("d,value,case,exact", *(f"\n{d}," for d in range(1, 23, 3))), lines=9),
    *(row(f"table {flags}", out=digest)
      for flags, digest in (line.split("|") for line in TABLES.splitlines())),
    # every byte of five walks, each step's bounds cut from the seed's text by length: the
    # rank-2 cap with every choice a miss, a 30-step rank-3 walk, the two late-hit walks at
    # genus 1000, and the random-choice rank-3 cap
    row(MISS_WALK, out="55d32dcc96af50b5c6c19f47411ab9dd990ba0965e2579037b2cf2eddb7fcd7a"),
    row(f"elmtrans --rank 3 --genus 30 --steps 30 --choices {WALK30}",
        out="d5f04dd42f2cf7fac3a8bb1df6135c29b5717f01ad956dea6f8b3138e069b5d9", lines=31),
    row(f"elmtrans --rank 3 --genus 1000 --steps 1200 --choices {LATE3}",
        out="ac66630f8196a0df941f26c719f124226a00819e36bd3401bbe9b244cb11c893"),
    row(f"elmtrans --rank 2 --genus 1000 --steps 1200 --choices {LATE2}",
        out="8d57d78621ddf80cbda42bfefef4e5332ccf89b5307ad4df446c22fdd56dc93d"),
    row(CAP_WALK, out="ce495958d478f143e709b4169d268f254b566028a98c75d7eb5aacac3d598264",
        lines=10001),
    row("elmtrans --rank 3 --genus 4 --steps 5", lines=6),
    row("elmtrans --rank 2 --genus 1000 --steps 1000", lines=1001),
    row("krawtchouk 2048 2048 4096", out=_sha256(f"{comb(2048, 1024)}\n")),
    row("krawtchouk 2047 2048 4096", out=_sha256("0\n")),
    # a row for each error code a command can give (README's table of codes); the
    # CongruenceViolation and HypothesisFailed rows are the Serre-dual ones above
    row("bound --genus 3 --rank 1 --degree 4 --hyperelliptic", 2, err=('"code": "UsageError"',)),
    row("bound --genus 1 --rank 1 --degree 0", 2, err=('"code": "ValueError"',)),
    row("krawtchouk 1 5 3", 2, err=('"code": "ValueError"',)),
    row("bound --genus 3 --rank 3 --degree 10 --s1 1", 2, err=('"code": "Clifford3Error"',)),
    row("bound --genus 3 --rank 3 --degree 1 --s1 -2 --s2 2", 2, err=('"code": "MissingS1F"',)),
    row("table --genus 6 --s1 3 --s2 -3", 2, err=('"code": "NotSemistable"',)),
    row("examples --family b --genus 3 --m 3", 2, err=('"code": "ParamsOutOfRange"',)),
    row("examples --family unstable --genus 3 --dl 4 --df 3 --s1f 0", 2,
        err=('"code": "UnrealizableF"',)),
]


def _holds_in_order(text, pieces):
    at = 0
    for piece in pieces:
        at = text.find(piece, at)
        assert at >= 0, (piece, text[:300])
        at += len(piece)


@pytest.mark.parametrize("argv, status, out, err, lines", ROWS)
def test_row(argv, status, out, err, lines):
    got, stdout, stderr = console(argv)
    assert got == status, stderr
    if status == 0:
        assert stderr == ""
    else:
        assert stdout == "" and stderr.count("\n") == 1
        assert set(json.loads(stderr)) == {"code", "message"}
    if isinstance(out, str):
        assert _sha256(stdout) == out
    else:
        _holds_in_order(stdout, out)
    _holds_in_order(stderr, err)
    if lines is not None:
        assert stdout.count("\n") == lines
    if stdout.startswith("{"):
        for line in stdout.splitlines():
            assert json.dumps(json.loads(line)) == line, line


def test_grammar_pin():
    # every status, stdout and stderr of main on the grammar's edges: odd int spellings as
    # a separate value, after "=" and as a positional, each choice flag with a non-int and
    # with a value outside its choices, a switch given "=value", and for each mode of
    # bound and examples a flag it does not read
    rank1 = ["bound", "--genus", "3", "--rank", "1"]
    argvs = []
    for v in ["-0", "-007", "-12", "-0.5", "-", "--", "-x", "--s1", "", "-h", "+5", " 5", "5_0",
              "\u0663", "\uff15"]:
        argvs += [[*rank1, "--degree", v], [*rank1, "--degree=" + v], ["krawtchouk", v, "2", "4"]]
    for v in ("x", "9"):
        argvs += [[*rank1, "--degree", "0", "--rank", v],
                  ["elmtrans", "--genus", "3", "--steps", "1", "--rank", v],
                  ["examples", "--family", v], ["examples", "--family", "c", "--variant", v]]
    dual = ["bound", "--genus", "10", "--rank", "3", "--degree", "19", "--s1", "4", "--s2", "-1",
            "--s1f", "3"]
    argvs += [
        [*rank1, "--degree", "0", "--delta=1"],
        [*rank1, "--degree", "0", "--s1", "0"],
        [*rank1, "--degree", "0", "--s1", "0", "--s2", "0", "--s1f", "0"],
        [*rank1, "--degree", "0", "--hyperelliptic"],
        ["bound", "--genus", "10", "--rank", "2", "--degree", "4", "--s1", "0", "--s2", "0"],
        ["bound", "--genus", "10", "--rank", "2", "--degree", "-4", "--s1", "-2", "--delta"],
        ["bound", "--genus", "10", "--rank", "3", "--degree", "10", "--s1", "1", "--s2", "2",
         "--f-semistable"],
        [*dual, "--delta"],
        ["examples", "--suite", "--genus", "3"],
        ["examples", "--family", "a", "--m", "2"],
        ["examples", "--family", "b", "--n", "0"],
        ["examples", "--family", "c", "--max-genus", "5"],
        ["examples", "--family", "unstable", "--dl", "5", "--df", "2", "--s1f", "-2", "--m", "2"],
    ]
    assert len(argvs) == 66
    digest = hashlib.sha256()
    for argv in argvs:
        digest.update(repr((argv, *console(argv))).encode())
    assert digest.hexdigest() == "6b253009a94af4163db3426f88cd9dfde2941ddb7385be3c9243705c56a8b914"


def _line(j, rank, d, s, sb):
    """The ``elmtrans`` line of state ``j``, by ``json.dumps``."""
    bounds = {f"{r},{i}": v for r, b in enumerate(sb, 1) for i, v in enumerate(b)}
    return json.dumps({"step": j, "rank": rank, "d": d, "s": list(s), "sb_dim_upper": bounds})


@pytest.mark.parametrize("command, rank, bits", [
    (CAP_WALK, 3, CAP_CHOICES),
    (MISS_WALK, 2, "0" * 10000),
], ids=["rank 3 random choices", "rank 2 every choice a miss"])
def test_cap_walk_is_trajectory_rows(command, rank, bits):
    # every line of the cap walk against the library's statement of the rule
    start = seed_state_lemma36(Curve(1000), rank)
    choices = [tuple(c == "1" for c in bits[k : k + rank - 1])
               for k in range(0, len(bits), rank - 1)]
    want = [_line(j, rank, *row) for j, row in enumerate(trajectory(start, choices))]
    lines = console(command.split())[1].splitlines()
    assert len(lines) == len(want)
    for k, (line, expected) in enumerate(zip(lines, want)):
        assert line == expected, f"line {k}"


def test_cap_walk_ends_at_iterated_step():
    state = seed_state_lemma36(Curve(1000), 3)
    for k in range(0, len(CAP_CHOICES), 2):
        state = step(state, (CAP_CHOICES[k] == "1", CAP_CHOICES[k + 1] == "1"))
    last = _line(state.step_count, 3, state.inv.degree, state.inv.s, state.sb_dim_upper)
    assert console(CAP_WALK.split())[1].splitlines()[-1] == last
