"""Self-tests of the benchmark: deterministic inputs, checkers that catch a
corrupted value, and traced self times that add up.

    python3 -m pytest -q bench/test_bench.py
"""
import itertools
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Grid, Refined, Session  # noqa: E402


def _run(w, op):
    return w.value(w.execute(op))


def _first(w, n):
    return list(itertools.islice(w.ops(), n))


@pytest.mark.parametrize("cls", [Grid, Refined, Session])
def test_generators_are_deterministic_per_seed(cls):
    a, b, c = _first(cls(7), 300), _first(cls(7), 300), _first(cls(8), 300)
    assert a == b
    assert a != c
    assert all(tuple(json.loads(json.dumps(op))) == op for op in a)


@pytest.mark.parametrize("cls", [Grid, Refined, Session])
def test_valid_outputs_pass_their_checks(cls):
    w = cls(3)
    for op in _first(w, 200):
        problem = w.check(op, _run(w, op))
        assert problem is None or problem[0] in ("contract", "defect"), (op, problem)


def _with_value(r, delta):
    return (r[0] + delta,) + r[1:]


def test_grid_checker_flags_corrupted_tail_and_middle():
    w = Grid(1)
    op = next(op for op in w.ops_list if op[2] < op[3] < 30)
    op = op[:4] + (True,)  # ask for the duality check
    out = _run(w, op)
    assert w.check(op, out) is None
    bad_tail = [_with_value(out[0], 1)] + out[1:]
    assert w.check(op, bad_tail) == ("wrong", "exact tail value")
    mid = next(i for i, d in enumerate(Grid.degrees(*(op[0], op[2], op[3]))) if d >= op[2] + 6)
    bad_mid = out[:mid] + [_with_value(out[mid], 1)] + out[mid + 1 :]
    assert w.check(op, bad_mid) == ("wrong", "middle value")
    unsampled = op[:4] + (False,)
    assert w.check(unsampled, bad_mid) == ("wrong", "middle value")


def test_grid_duality_check_flags_a_wrong_dual_row(monkeypatch):
    w = Grid(1)
    op = next(op for op in w.ops_list if op[2] < op[3] < 30)[:4] + (True,)
    out = _run(w, op)
    row = Grid._row
    monkeypatch.setattr(
        Grid, "_row", staticmethod(lambda *a: [r.__class__(r.value + 1, r.case) for r in row(*a)])
    )
    assert w.check(op, out) == ("wrong", "duality identity")


def test_refined_checker_flags_corrupted_values():
    w = Refined(1)
    ops = _first(w, 400)
    closed = [op for op in ops if (op[0] == "rank2" and op[3] == 0) or op[5] == 0]
    small = [op for op in ops if op not in closed and op[1] <= 30]
    assert closed and small
    for op in closed[:20] + small[:20]:
        out = _run(w, op)
        assert w.check(op, out) is None
        assert w.check(op, _with_value(out, -1)) is not None
        other_case = "RANK2-CLIFFORD" if out[1] == "RANK3-MAIN" else "RANK3-MAIN"
        assert w.check(op, (out[0], other_case) + out[2:]) is not None


def test_refined_flags_a_flipped_refinement_decided_by_an_oracle():
    """When the closed form or the oracle decides the coefficient, the
    other branch of the refinement is rejected too."""
    w = Refined(2)
    flipped = 0
    for op in _first(w, 600):
        exp = w.expected(op)
        if len(exp) != 1 or not any(t in r[3] for r in exp for t in tracing.KRAWTCHOUK_TOKENS):
            continue
        out = _run(w, op)
        kind, g, d, s1, s2, s1f = op
        if kind == "rank2":
            other = ((d - s1) // 2 + 2, "RANK2-CLIFFORD", False, ())
        elif kind == "rank3":
            other = (out[0] + 1, "RANK3-MAIN", False, ())
        else:
            other = (out[0] + 1, "RANK3-QUOTIENT", False, (f"s1f={s1f}",))
        assert w.check(op, other) is not None
        flipped += 1
    assert flipped > 10


def _session_op(w, kind):
    return next(op for op in w.ops_list if op[0] == kind)


@pytest.mark.parametrize(
    "kind", ["bound1", "bound2", "bound3", "table", "elmtrans", "krawtchouk", "suite", "family"]
)
def test_session_checker_flags_a_corrupted_number(kind):
    w = Session(1)
    op = _session_op(w, kind)
    code, stdout, stderr, escaped = _run(w, op)
    assert w.check(op, (code, stdout, stderr, escaped)) is None
    if kind.startswith("bound") or kind == "family":
        obj = json.loads(stdout)
        if kind == "family":
            obj["exact_h0"] += 1
        else:
            obj["value"] += 1
        bad = json.dumps(obj)
    elif kind == "krawtchouk":
        bad = str(int(stdout) + 1)
    elif kind == "elmtrans":
        rows = [json.loads(x) for x in stdout.splitlines()]
        rows[-1]["d"] += 1
        bad = "\n".join(json.dumps(r) for r in rows)
    else:  # CSV: raise the first number after the key column(s)
        head, first, *rest = stdout.splitlines()
        cells = first.split(",")
        col = head.split(",").index("exact_h0" if kind == "suite" else "value")
        cells[col] = str(int(cells[col]) + 5)
        bad = "\n".join([head, ",".join(cells)] + rest)
    assert w.check(op, (code, bad, stderr, escaped))[0] == "wrong"
    assert w.check(op, (2, "", '{"code": "X", "message": "m"}\n', None))[0] == "wrong"


def test_session_checker_flags_error_contract():
    w = Session(1)
    op = _session_op(w, "invalid")
    ok = (2, "", json.dumps({"code": "CongruenceViolation", "message": "m"}) + "\n", None)
    assert w.check(op, ok) is None
    assert w.check(op, (2, "", "usage: clifford3 ...\nerror: bad\n", None)) == (
        "contract",
        "usage text instead of JSON error",
    )
    assert w.check(op, (None, "", "", "TypeError: x"))[0] == "contract"
    assert w.check(op, (0, "", ok[2], None))[0] == "contract"
    assert w.check(op, (2, "", ok[2] * 2, None))[0] == "contract"


def test_unstable_parity_defect_is_a_failed_operation():
    """For s2 < 0 <= s1 with an s1f of the twisted dual's parity that the
    input's parity check rejects, the documented error is scored as a known
    defect; a bound, once the defect is fixed, is checked as valid output."""
    for seed in (1, 2, 3):
        script = Session(seed).ops_list
        assert sum(Session._s1f_parity_defect(*op) for op in script) == 5
    w = Session(1)
    argv = ["bound", "--rank", "3", "--genus", "10", "--degree", "19"]
    op = ("unstable", argv + ["--s1", "4", "--s2", "-1", "--s1f", "3", "--f-semistable"])
    code, stdout, stderr, escaped = _run(w, op)
    assert (code, json.loads(stderr)["code"]) == (2, "CongruenceViolation")
    assert w.check(op, (code, stdout, stderr, escaped))[0] == "defect"
    assert w.check(op, (2, "", '{"code": "X", "message": "m"}\n', None))[0] == "wrong"
    fixed = {"value": 5, "case": "UNSTABLE-SS-QUOTIENT", "exact": False,
             "assumptions": ["s1f=3", "serre-dual-reduction"]}
    assert w.check(op, (0, json.dumps(fixed), "", None)) is None
    fixed["case"] = "UNSTABLE-UNSTABLE-QUOTIENT"
    assert w.check(op, (0, json.dumps(fixed), "", None))[0] == "wrong"


def test_suite_checker_flags_a_flipped_sharp_flag():
    w = Session(1)
    op = _session_op(w, "suite")
    code, stdout, stderr, escaped = _run(w, op)
    lines = stdout.splitlines()
    flipped = lines[:]
    row, sharp = lines[1].rsplit(",", 1)
    flipped[1] = row + ("," + ("false" if sharp == "true" else "true"))
    assert w.check(op, (code, "\n".join(flipped), stderr, escaped))[0] == "wrong"
    short = "\n".join(lines[:-1])
    assert w.check(op, (code, short, stderr, escaped)) == ("wrong", "suite: report count")


@pytest.mark.parametrize("cls", [Grid, Refined, Session])
def test_traced_self_times_add_up_and_results_match(cls):
    w = cls(5)
    tracer = tracing.Tracer()
    originals = [(t, a, getattr(t, a)) for t, a, _, _ in tracer._patches]
    for i, op in enumerate(_first(w, 60)):
        plain = w.canon(op, _run(w, op))
        tracer.install()
        tracer.begin_op(i)
        t0 = time.perf_counter()
        out = _run(w, op)
        wall = time.perf_counter() - t0
        tracer.uninstall()
        st = tracer.op
        assert w.canon(op, out) == plain
        assert sum(st.self_s.values()) == pytest.approx(st.root_s, rel=1e-9, abs=1e-12)
        assert 0 < st.root_s <= wall
        assert all(v >= -1e-9 for v in st.self_s.values())
        if cls is Grid:
            assert st.calls["krawtchouk"] == 0 and st.calls["invariants"] > 0
        if cls is Session:
            assert st.calls["cli"] >= 2  # main and build_parser
    assert all(getattr(t, a) is v for t, a, v in originals)


def test_failures_count_distinct_operations_of_one_whole_pass():
    w = Session(3)
    distinct = {repr(op): op for op in w.ops_list}.values()
    expected = sum(w.check(op, _run(w, op)) is not None for op in distinct)
    assert expected > 0  # the known defects show
    for _ in range(2):
        res = run.measure(w, 0.01, None, 0)
        assert res["attempted"] == len(distinct)
        assert res["executions"] >= len(w.ops_list)
        assert res["failed"] == sum(res["fails"].values()) == expected


def test_traced_names_include_the_caller_lookups():
    tracer = tracing.Tracer()
    names = {(getattr(t, "__name__", ""), a) for t, a, _, _ in tracer._patches}
    for name in [
        ("clifford3.bounds", "delta_vanishes"),
        ("clifford3.families", "h0_prop21_bound"),
        ("clifford3.cli", "suite"),
        ("clifford3.krawtchouk", "krawtchouk"),
        ("Rank3Query", "__init__"),
    ]:
        assert name in names


def test_tail_percentile_keeps_ten_samples_beyond():
    vals = sorted(range(1, 1001))
    assert run.tail(vals, 99.9) == (99.0, 990, 10)
    assert run.tail(sorted(range(20000)), 99.9)[0] == 99.9
    assert run.percentile([5], 50) == (5, 0)


def test_workload_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = {f"{mod}.{m}": run.UNITS[m] for mod, ms in run.LAYER_METRICS.items() for m in ms}
    layer["trace.overhead_share"] = "share"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
