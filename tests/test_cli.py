import argparse
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import clifford3
from clifford3 import cli
from clifford3.cli import main
from clifford3.errors import Clifford3Error, UsageError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_rank3_json(self, capsys):
        code, out, err = run(
            capsys,
            "bound", "--genus", "3", "--rank", "3", "--degree", "10",
            "--s1", "1", "--s2", "2",
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload == {
            "value": 7, "case": "RANK3-MAIN", "exact": False, "assumptions": []
        }

    def test_rank3_hyperelliptic_sharpening(self, capsys):
        code, out, _ = run(
            capsys,
            "bound", "--genus", "3", "--rank", "3", "--degree", "10",
            "--s1", "1", "--s2", "2", "--hyperelliptic",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 6 and payload["case"] == "RANK3-MAIN-SHARP"

    def test_rank1_exact(self, capsys):
        code, out, _ = run(capsys, "bound", "--genus", "3", "--rank", "1", "--degree", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 6 and payload["exact"] is True

    def test_rank2_requires_s1(self, capsys):
        code, out, err = run(capsys, "bound", "--genus", "3", "--rank", "2", "--degree", "4")
        assert code == 2 and out == ""
        assert json.loads(err)["code"] == "Clifford3Error"

    def test_congruence_error_payload(self, capsys):
        code, _, err = run(
            capsys,
            "bound", "--genus", "3", "--rank", "3", "--degree", "10",
            "--s1", "0", "--s2", "2",
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["code"] == "CongruenceViolation" and payload["message"]

    def test_negative_s_routes_to_unstable(self, capsys):
        code, out, _ = run(
            capsys,
            "bound", "--genus", "4", "--rank", "3", "--degree", "6",
            "--s1", "-3", "--s2", "0", "--s1f", "1", "--f-semistable",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 5 and payload["case"] == "UNSTABLE-SS-QUOTIENT"

    def test_unstable_rank2_is_the_split_sum(self, capsys):
        code, out, err = run(
            capsys, "bound", "--genus", "5", "--rank", "2", "--degree", "4", "--s1", "-2"
        )
        assert code == 0 and err == ""
        assert json.loads(out) == {
            "value": 3, "case": "CLIFFORD-LINE+CLIFFORD-LINE", "exact": False, "assumptions": []
        }

    @pytest.mark.parametrize(
        "argv",
        [
            # s1f >= 0 without --f-semistable
            ("bound", "--rank", "3", "--genus", "4", "--degree", "6",
             "--s1", "-3", "--s2", "0", "--s1f", "1"),
            # s1f < 0 with --f-semistable
            ("bound", "--rank", "3", "--genus", "3", "--degree", "6",
             "--s1", "-6", "--s2", "-6", "--s1f", "-2", "--f-semistable"),
        ],
    )
    def test_f_semistable_flag_must_match_s1f(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["code"] == "HypothesisFailed"

    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "--rank", "4", "--genus", "3", "--degree", "0"),
            ("bound", "--rank", "2", "--degree", "0", "--s1", "0"),
            ("bound", "--genus", "3", "--rank", "3", "--degree", "10",
             "--s1", "1", "--s2", "2", "--unstable"),
            ("elmtrans", "--rank", "3", "--genus", "3", "--steps", "1", "--hyperelliptic"),
        ],
    )
    def test_usage_error_is_json(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["code"] == "UsageError"

    @pytest.mark.parametrize(
        "rank, flags",
        [
            ("1", ("--s1", "7")),
            ("1", ("--s2", "0")),
            ("1", ("--s1f", "3")),
            ("2", ("--s1", "0", "--s2", "0")),
            ("2", ("--s1", "0", "--s1f", "0")),
            ("1", ("--delta",)),
            ("1", ("--f-semistable",)),
            ("2", ("--s1", "0", "--f-semistable")),
        ],
    )
    def test_flag_its_rank_does_not_read(self, capsys, rank, flags):
        code, out, err = run(
            capsys, "bound", "--genus", "3", "--rank", rank, "--degree", "4", *flags
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["code"] == "UsageError"
        rejected = [f for f in flags if f.startswith("--")][-1]
        assert payload["message"] == f"{rejected} is not read at rank {rank}"

    def test_f_semistable_rejected_on_semistable_input(self, capsys):
        code, out, err = run(
            capsys,
            "bound", "--genus", "3", "--rank", "3", "--degree", "10",
            "--s1", "1", "--s2", "2", "--f-semistable",
        )
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err) == {
            "code": "UsageError",
            "message": "--f-semistable is not read on semistable input",
        }

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--help"])
        assert exc.value.code == 0 and "usage:" in capsys.readouterr().out


def run_module(*argv):
    """``python -m clifford3 argv`` in a fresh interpreter."""
    # the child imports the same clifford3 as this test
    src = str(Path(clifford3.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "clifford3", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestModuleEntryPoint:
    def test_valid_bound(self):
        proc = run_module(
            "bound", "--genus", "3", "--rank", "3", "--degree", "10",
            "--s1", "1", "--s2", "2",
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["value"] == 7

    def test_usage_error(self):
        proc = run_module("bound", "--rank", "4", "--genus", "3", "--degree", "0")
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["code"] == "UsageError"


class TestParserReuse:
    RANK3 = (
        "bound", "--genus", "3", "--rank", "3", "--degree", "9", "--s1", "0", "--s2", "0",
    )
    SEQUENCE = [
        RANK3 + ("--s1f", "0", "--delta", "--hyperelliptic"),
        RANK3,  # the flags of the previous command must not carry over
        ("bound", "--rank", "4", "--genus", "3", "--degree", "0"),
        ("--help",),
        ("examples", "--family", "unstable", "--genus", "4"),
        ("table", "--genus", "3", "--s1", "1", "--s2", "2"),
    ]

    def test_parse_args_keeps_no_state(self, capsys):
        fresh = vars(cli.parse_args(list(self.RANK3)))
        for argv in self.SEQUENCE:
            try:
                args = cli.parse_args(list(argv))
            except (UsageError, SystemExit):
                continue
            # a caller that changes its namespace changes no later one
            for dest in vars(args):
                setattr(args, dest, "spoiled")
        capsys.readouterr()
        assert vars(cli.parse_args(list(self.RANK3))) == fresh

    def test_sequence_matches_fresh_processes(self, capsys):
        for argv in self.SEQUENCE:
            try:
                status = main(list(argv))
            except SystemExit as exc:
                status = exc.code
            out, err = capsys.readouterr()
            proc = run_module(*argv)
            assert (status, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv

    def test_rebound_handler_runs(self, capsys, monkeypatch):
        main(["krawtchouk", "2", "2", "4"])
        monkeypatch.setattr(cli, "cmd_krawtchouk", lambda args: 7)
        assert main(["krawtchouk", "2", "2", "4"]) == 7


class TestCaps:
    @pytest.mark.parametrize(
        "argv",
        [
            ("krawtchouk", "0", "0", str(cli.MAX_KRAWTCHOUK_N + 1)),
            ("elmtrans", "--rank", "3", "--genus", "3",
             "--steps", str(cli.MAX_ELMTRANS_STEPS + 1)),
            ("examples", "--suite", "--max-genus", str(cli.MAX_SUITE_GENUS + 1)),
            ("bound", "--rank", "2", "--genus", str(cli.MAX_DELTA_GENUS + 1),
             "--degree", "0", "--s1", "0", "--delta"),
            ("elmtrans", "--rank", "2", "--genus", str(cli.MAX_ELMTRANS_GENUS + 1),
             "--steps", "1"),
            ("table", "--genus", "3", "--s1", "0", "--s2", "0",
             "--d-min", str(-3 * cli.MAX_TABLE_ROWS), "--d-max", "0"),
        ],
    )
    def test_above_cap_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["code"] == "UsageError"

    @pytest.mark.parametrize("choices", [(), ("--choices", "010101")])
    def test_negative_steps_is_usage_error(self, capsys, choices):
        code, out, err = run(
            capsys, "elmtrans", "--rank", "3", "--genus", "4", "--steps", "-3", *choices
        )
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "code": "UsageError", "message": "--steps must be >= 0, got -3"
        }

    def test_zero_steps_runs(self, capsys):
        code, out, _ = run(capsys, "elmtrans", "--rank", "3", "--genus", "4", "--steps", "0")
        assert code == 0 and len(out.splitlines()) == 1

    def test_at_cap_runs(self, capsys):
        code, out, _ = run(capsys, "krawtchouk", "0", "0", str(cli.MAX_KRAWTCHOUK_N))
        assert code == 0 and out == "1\n"
        code, out, _ = run(
            capsys,
            "elmtrans", "--rank", "2", "--genus", "3",
            "--steps", str(cli.MAX_ELMTRANS_STEPS),
        )
        assert code == 0 and len(out.splitlines()) == cli.MAX_ELMTRANS_STEPS + 1

    def test_delta_at_genus_cap_runs(self, capsys):
        # K_r(g, 2g) with r even is nonzero, so the refinement applies; at
        # s1 = 0, r = d/2 + 1 is the largest even r <= g (the cap is odd)
        g = cli.MAX_DELTA_GENUS
        r = g - g % 2
        code, out, _ = run(
            capsys,
            "bound", "--rank", "2", "--genus", str(g), "--degree", str(2 * r - 2),
            "--s1", "0", "--delta",
        )
        assert code == 0 and json.loads(out)["case"] == "RANK2-KRAWTCHOUK"

    def test_delta_genus_cap_keeps_n_within_the_krawtchouk_cap(self, capsys):
        # 1365 is the largest genus whose largest N, 3g - 1, is at most 4096
        assert cli.MAX_DELTA_GENUS == 1365 and cli.MAX_KRAWTCHOUK_N == 4096
        argv = ("bound", "--rank", "2", "--degree", "3", "--s1", "1", "--delta")
        code, out, _ = run(capsys, *argv, "--genus", "1365")
        assert code == 0 and json.loads(out)["case"] == "RANK2-KRAWTCHOUK"
        code, out, err = run(capsys, *argv, "--genus", "1366")
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "code": "UsageError", "message": "--genus with --delta must be <= 1365, got 1366"
        }

    def test_delta_evaluates_no_coefficient_above_3g_minus_1(self, monkeypatch):
        # the claim behind MAX_DELTA_GENUS = (MAX_KRAWTCHOUK_N + 1) // 3:
        # every coefficient a refinement evaluates has N = 2g - t <= 3g - 1.
        # Over the criterion-2 genera with every semistable (s1, s2) that has
        # a special range, the largest N is 3g - 1: the rank-2 bound and the
        # quotient's rank-2 part need t >= 0, and the main bound with
        # s1 > 2*s2 needs 2*s1 - s2 <= 6g - 6, so s1f >= (2*s2 - s1)/3 >= 1 - g
        original, calls = clifford3.bounds.delta_vanishes, []

        def recorded(g, deg, t):
            calls.append((g, t))
            return original(g, deg, t)

        monkeypatch.setattr(clifford3.bounds, "delta_vanishes", recorded)
        for g in range(2, 7):
            c = clifford3.Curve(g)
            for s1 in range(4 * g - 3):
                for d in range(s1, 4 * g - 3 - s1, 2):
                    clifford3.bound(c, clifford3.BundleInvariants(2, d, (s1,)), delta=True)
            for s1 in range(6 * g - 5):
                for s2 in range((2 * s1) % 3, 6 * g - 5 - s1, 3):
                    for d in range(s1, 6 * g - 5 - s2, 3):
                        inv = clifford3.BundleInvariants(3, d, (s1, s2))
                        for s1f in range(clifford3.suggested_min_s1f(inv), g + 1, 2):
                            clifford3.bound(c, inv, s1f=s1f, delta=True)
                            q = clifford3.Rank3Query(c, inv, s1f=s1f, use_delta=True)
                            try:
                                clifford3.h0_prop21_bound(q)
                            except clifford3.errors.HypothesisFailed:
                                pass
        assert all(2 * g - t <= 3 * g - 1 for g, t in calls)
        largest = {}
        for g, t in calls:
            largest[g] = max(largest.get(g, 0), 2 * g - t)
        assert largest == {g: 3 * g - 1 for g in range(2, 7)}

    def test_elmtrans_at_genus_cap_runs(self, capsys):
        code, out, _ = run(
            capsys,
            "elmtrans", "--rank", "2", "--genus", str(cli.MAX_ELMTRANS_GENUS),
            "--steps", "1",
        )
        assert code == 0 and len(out.splitlines()) == 2

    def test_table_at_row_cap_runs(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--genus", "3", "--s1", "0", "--s2", "0",
            "--d-min", str(-3 * cli.MAX_TABLE_ROWS + 3), "--d-max", "0",
        )
        assert code == 0 and len(out.splitlines()) == cli.MAX_TABLE_ROWS + 1

    def test_table_at_row_cap_leaves_the_result_cache_alone(self, capsys):
        # every row a distinct RANK3-MAIN value: a row per result would miss
        # the shared cache 100,000 times
        bound_result = clifford3.bounds._result
        before = bound_result.cache_info()
        code, out, _ = run(
            capsys,
            "table", "--genus", "50000", "--s1", "0", "--s2", "0",
            "--d-min", "0", "--d-max", str(3 * cli.MAX_TABLE_ROWS - 3),
        )
        assert code == 0 and len(out.splitlines()) == cli.MAX_TABLE_ROWS + 1
        after = bound_result.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)


class TestKrawtchouk:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "krawtchouk", "2", "2", "4")
        assert code == 0 and out.strip() == "-2"

    def test_invalid_query(self, capsys):
        code, _, err = run(capsys, "krawtchouk", "0", "5", "4")
        assert code == 2 and json.loads(err)["code"] == "ValueError"


class TestElmtrans:
    def test_generic_trajectory(self, capsys):
        code, out, _ = run(
            capsys, "elmtrans", "--rank", "3", "--genus", "3", "--steps", "3"
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 4
        assert rows[0]["d"] == 3 and rows[0]["s"] == [0, 0]
        assert rows[-1]["d"] == 6 and rows[-1]["s"] == [3, 6]

    def test_explicit_choices(self, capsys):
        # miss everything on step one, hit the rank-2 family on step two
        code, out, _ = run(
            capsys,
            "elmtrans", "--rank", "3", "--genus", "3", "--steps", "2",
            "--choices", "0001",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[-1]["s"] == [2, 1]

    # three trajectories printed by one process, pinned byte for byte
    PINNED_SHA256 = "8506f9de8ec42434e149eb1d72e97831ee39321bdbc7681e3617a3f0b4b2b3b6"

    def test_trajectory_bytes(self, capsys):
        out = ""
        for argv in (
            ("--rank", "3", "--genus", "6", "--steps", "12",
             "--choices", "000110010000011100000010"),
            ("--rank", "2", "--genus", "5", "--steps", "8", "--choices", "00101000"),
            ("--rank", "3", "--genus", "4", "--steps", "5"),
        ):
            code, text, err = run(capsys, "elmtrans", *argv)
            assert code == 0 and err == ""
            out += text
        assert len(out.splitlines()) == 28
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_SHA256

    def test_choices_length_checked(self, capsys):
        code, _, err = run(
            capsys,
            "elmtrans", "--rank", "3", "--genus", "3", "--steps", "2",
            "--choices", "01",
        )
        assert code == 2 and json.loads(err)["code"] == "Clifford3Error"

    def test_empty_choices_are_checked(self, capsys):
        # an empty --choices is a string of length 0, not an absent flag
        code, out, err = run(
            capsys, "elmtrans", "--rank", "2", "--genus", "3", "--steps", "2", "--choices", ""
        )
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "code": "Clifford3Error",
            "message": "--choices must be a 0/1 string of length steps*(rank-1) = 2",
        }
        code, out, err = run(
            capsys, "elmtrans", "--rank", "2", "--genus", "3", "--steps", "0", "--choices", ""
        )
        assert code == 0 and err == ""
        assert out.splitlines() == [
            '{"step": 0, "rank": 2, "d": 2, "s": [0], "sb_dim_upper": {"1,0": 0, "1,1": 1, "1,2": 2}}'
        ]

    @pytest.mark.parametrize("rank, choices", [
        (2, ("0000000", "0110100", "1111111")),
        (3, ("00000000000000", "01101001110010", "10000011110011")),
    ])
    def test_cached_seed_serves_every_walk(self, capsys, rank, choices):
        # one (rank, genus) walked with different choices in one process: the
        # cached seed text is cut afresh for each walk
        assert cli._seed.cache_info().maxsize == 64
        for bits in choices:
            steps = len(bits) // (rank - 1)
            code, out, _ = run(
                capsys, "elmtrans", "--rank", str(rank), "--genus", "6",
                "--steps", str(steps), "--choices", bits,
            )
            state = clifford3.seed_state_lemma36(clifford3.Curve(6), rank)
            expected = [json.dumps(_row(state)) + "\n"]
            for k in range(0, len(bits), rank - 1):
                state = clifford3.step(state, tuple(b == "1" for b in bits[k : k + rank - 1]))
                expected.append(json.dumps(_row(state)) + "\n")
            assert code == 0 and out == "".join(expected)
        assert cli._seed.cache_info().hits >= len(choices) - 1


class TestTable:
    def test_default_sweep(self, capsys):
        code, out, _ = run(capsys, "table", "--genus", "2", "--s1", "0", "--s2", "0")
        assert code == 0
        assert out.strip().splitlines() == [
            "d,value,case,exact",
            "0,3,RANK3-MAIN,false",
            "3,4,RANK3-MAIN,false",
            "6,6,RANK3-MAIN,false",
        ]

    def test_empty_range(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--genus", "2", "--s1", "0", "--s2", "0",
            "--d-min", "4", "--d-max", "2",
        )
        assert code == 0
        assert out.strip().splitlines() == ["d,value,case,exact"]

    def test_invalid_input_prints_no_rows(self, capsys):
        code, out, err = run(capsys, "table", "--genus", "3", "--s1", "-1", "--s2", "1")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["code"] == "NotSemistable"

    @pytest.mark.parametrize("s1, s2", [(-1, 1), (2, -2), (-3, -3)])
    def test_negative_s_is_the_bound_error(self, capsys, s1, s2):
        argv = ("table", "--genus", "4", "--s1", str(s1), "--s2", str(s2))
        code, out, err = run(capsys, *argv, "--d-min", "-9", "--d-max", "30")
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "code": "NotSemistable",
            "message": f"semistable bound needs s1, s2 >= 0, got {(s1, s2)}",
        }
        # no swept degree, no query: the header alone
        code, out, err = run(capsys, *argv, "--d-min", "30", "--d-max", "-9")
        assert (code, out, err) == (0, "d,value,case,exact\n", "")

    @pytest.mark.parametrize("shift", [1, 2, 4, -1])
    def test_non_congruent_s2_is_the_invariants_error(self, capsys, shift):
        s2 = 2 + shift
        code, out, err = run(capsys, "table", "--genus", "4", "--s1", "1", "--s2", str(s2))
        with pytest.raises(clifford3.errors.CongruenceViolation) as expected:
            clifford3.BundleInvariants(3, 1, (1, s2))
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": "CongruenceViolation", "message": str(expected.value)}

    def test_invariants_error_comes_before_the_negative_s_error(self, capsys):
        # s2 = 3 is no residue of s1 = -1 and d = -1, and s1 < 0: the
        # invariants' CongruenceViolation is reported, then with a congruent
        # s2 the semistable bound's NotSemistable
        argv = ["table", "--genus", "4", "--s1", "-1", "--d-min", "-3", "--d-max", "9"]
        with pytest.raises(clifford3.errors.CongruenceViolation) as expected:
            clifford3.BundleInvariants(3, -1, (-1, 3))
        code, out, err = run(capsys, *argv, "--s2", "3")
        assert code == 2 and out == ""
        assert json.loads(err) == {"code": "CongruenceViolation", "message": str(expected.value)}
        clifford3.BundleInvariants(3, -1, (-1, 1))
        code, out, err = run(capsys, *argv, "--s2", "1")
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "code": "NotSemistable",
            "message": "semistable bound needs s1, s2 >= 0, got (-1, 1)",
        }

    def test_rows_equal_the_bound_at_each_degree(self, capsys):
        # every run: VANISHING, RANK3-LINE-ONLY, RANK3-MAIN, RR-EXACT, and
        # VANISHING, RANK3-MAIN, RANK3-LINE-ONLY-DUAL, RR-EXACT
        for s1, s2, d_min, d_max in ((0, 21, -9, 60), (21, 0, 9, 66)):
            code, out, _ = run(
                capsys, "table", "--genus", "10", "--s1", str(s1), "--s2", str(s2),
                "--d-min", str(d_min), "--d-max", str(d_max), "--hyperelliptic",
            )
            lines = out.splitlines()
            assert code == 0 and lines[0] == "d,value,case,exact"
            expected = []
            for d in range(d_min, d_max + 1, 3):
                inv = clifford3.BundleInvariants(3, d, (s1, s2))
                r = clifford3.h0_rank3_semistable_bound(
                    clifford3.Rank3Query(clifford3.Curve(10), inv)
                )
                expected.append(f"{d},{r.value},{r.case},{str(r.exact).lower()}")
            assert lines[1:] == expected
            assert len({line.split(",")[2] for line in expected}) == 4


def _row(state):
    """An ``elmtrans`` row as plain data, for ``json.dumps``."""
    return {
        "step": state.step_count,
        "rank": state.inv.rank,
        "d": state.inv.degree,
        "s": list(state.inv.s),
        "sb_dim_upper": {
            f"{r},{i}": v for r, b in enumerate(state.sb_dim_upper, 1) for i, v in enumerate(b)
        },
    }


class TestDirectOutput:
    """The lines that ``bound``, ``elmtrans`` and ``examples --family`` and the
    error object write without ``json.dumps`` equal what it writes, and an
    int flag reads one grammar as ``--flag TOK`` and as ``--flag=TOK``."""

    @settings(max_examples=50, deadline=None)
    @given(
        rank=st.sampled_from((2, 3)),
        genus=st.integers(2, 40),
        bits=st.lists(st.booleans(), max_size=80),
    )
    def test_elmtrans_lines_equal_json_dumps(self, rank, genus, bits):
        steps = len(bits) // (rank - 1)
        bits = bits[: steps * (rank - 1)]
        choices = "".join("1" if b else "0" for b in bits)
        argv = ["elmtrans", "--rank", str(rank), "--genus", str(genus), "--steps", str(steps)]
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv + (["--choices", choices] if choices else [])) == 0
        out = out.getvalue()
        state = clifford3.seed_state_lemma36(clifford3.Curve(genus), rank)
        expected = [json.dumps(_row(state)) + "\n"]
        for k in range(0, len(bits), rank - 1):
            state = clifford3.step(state, tuple(bits[k : k + rank - 1]))
            expected.append(json.dumps(_row(state)) + "\n")
        assert out == "".join(expected)

    def test_bound_line_for_every_result_of_a_sweep(self):
        results = set()
        for g in range(2, 6):
            for c in (clifford3.Curve(g), clifford3.Curve(g, True)):
                for d in range(-3, 6 * g + 3):
                    results.add(clifford3.bound(c, clifford3.BundleInvariants(1, d)))
                    for s1 in range(-2, 3 * g + 1):
                        if (s1 - d) % 2 == 0 and s1 >= 0:
                            for delta in (False, True):
                                inv = clifford3.BundleInvariants(2, d, (s1,))
                                results.add(clifford3.bound(c, inv, delta=delta))
                        if (s1 - d) % 3:
                            continue
                        for s2 in range((2 * d) % 3 - 3, 3 * g + 1, 3):
                            inv = clifford3.BundleInvariants(3, d, (s1, s2))
                            for s1f in (None, -2, -1, 0, 1, 2, 3, g):
                                try:
                                    r = clifford3.bound(c, inv, s1f=s1f, delta=s1f is not None)
                                except Clifford3Error:
                                    continue
                                results.add(r)
        assert len(results) > 300
        for r in results:
            assert cli._bound_line(r) == json.dumps(r.to_dict()) + "\n", r

    @settings(max_examples=300)
    @given(
        value=st.integers(0, 10**40),
        case=st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x7f\u2028\ud800'))),
        exact=st.booleans(),
        assumptions=st.lists(st.text(st.sampled_from('ab"\\/\n\t\u00e9\u4e2d\U0001f600'))),
    )
    def test_bound_line_quotes_like_json_dumps(self, value, case, exact, assumptions):
        r = clifford3.BoundResult(value, case, exact, assumptions)
        assert cli._bound_line(r) == json.dumps(r.to_dict()) + "\n"

    def test_report_line_for_every_report_of_the_suite_and_an_unstable_grid(self):
        reports = clifford3.suite(30)
        for g in range(2, 7):
            for dl in range(-2, 2 * g + 3):
                for df in range(-4, 4 * g + 1):
                    for s1f in range(-g - 2, g + 3):
                        try:
                            reports.append(clifford3.unstable_sharpness(g, dl, df, s1f))
                        except Clifford3Error:
                            pass
        families = {r.family for r in reports}
        assert families == {"a", "b", "c", "unstable"} and len(reports) > 3000
        assert any(r.slope is not None for r in reports)
        for r in reports:
            assert cli._report_line(r) == json.dumps(r.to_dict()) + "\n", r

    @settings(max_examples=300)
    @given(
        error=st.sampled_from((UsageError, clifford3.errors.HypothesisFailed, ValueError)),
        message=st.text(
            st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800\U0001f600'))
        ),
    )
    def test_error_object_quotes_like_json_dumps(self, error, message):
        err = io.StringIO()
        with redirect_stderr(err):
            assert cli._emit_error(error(message)) == 2
        expected = {"code": error.__name__, "message": message}
        assert err.getvalue() == json.dumps(expected) + "\n"

    @settings(max_examples=400, deadline=None)
    @given(
        where=st.sampled_from((
            ("bound --genus 3 --rank 1", "--degree", "degree"),
            ("table --genus 4 --s1 0 --s2 0", "--d-min", "d_min"),
            ("elmtrans --rank 2 --genus 3", "--steps", "steps"),
            ("examples --family a", "--genus", "genus"),
        )),
        token=st.text(st.sampled_from("0123456789-+_ \u0663\uff11"), max_size=8),
    )
    def test_int_flag_reads_the_grammar_in_both_spellings(self, where, token):
        # a value is "-" at most once, then ASCII digits; int() alone would
        # also read "+", "_", spaces and the digits of other scripts
        head, flag, dest = where
        outcomes = []
        for tail in ([flag, token], [f"{flag}={token}"]):
            try:
                outcomes.append(getattr(cli.parse_args([*head.split(), *tail]), dest))
            except UsageError as exc:
                outcomes.append(str(exc))
        if re.fullmatch("-?[0-9]+", token):
            expected = int(token)
        else:
            expected = f"argument {flag}: invalid int value: {token!r}"
        assert outcomes == [expected, expected]


class TestExamples:
    def test_single_family_report(self, capsys):
        code, out, _ = run(
            capsys,
            "examples", "--family", "a", "--genus", "5", "--n", "0", "--k", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_h0"] == 10 and payload["sharp"] is True

    def test_unstable_family(self, capsys):
        code, out, _ = run(
            capsys,
            "examples", "--family", "unstable", "--genus", "3",
            "--dl", "4", "--df", "4", "--s1f", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_h0"] == 7 and payload["sharp"] is True

    def test_family_c_carries_its_slope_bound(self, capsys):
        code, out, err = run(
            capsys, "examples", "--family", "c", "--genus", "3", "--variant", "E2", "--k", "0"
        )
        assert code == 0 and err == ""
        assert out == (
            '{"family": "c", "genus": 3, "params": {"variant": "E2", "k": 0}, '
            '"rank": 3, "degree": 5, "s": [2, 1], "exact_h0": 3, '
            '"bound": {"value": 4, "case": "RANK3-MAIN-SHARP", "exact": false, '
            '"assumptions": ["hyperelliptic-sharpening"]}, "sharp": false, '
            '"notes": ["slope bound certifies h0 <= 3 for any stable bundle"], '
            '"slope_bound": {"value": 3, "case": "SLOPE", "exact": false, '
            '"assumptions": ["stable"]}}\n'
        )

    def test_unstable_family_requires_its_flags(self, capsys):
        code, out, err = run(capsys, "examples", "--family", "unstable", "--genus", "4")
        assert code == 2 and out == ""
        assert json.loads(err)["code"] == "Clifford3Error"

    # twelve single-family runs printed by one process, reports and errors
    # alike, pinned byte for byte
    FAMILY_SHA256 = "4f3c9d908d4f74ad7fb9e12eceac0f887509afd9388fe996ae49cd638ef45ebb"

    def test_family_bytes(self, capsys):
        out = ""
        for argv in (
            "--family a --genus 7 --n 1 --k 0",
            "--family a --genus 5 --n -1 --k 99",
            "--family a --genus 2",
            "--family b --genus 6 --m 4",
            "--family b --genus 2 --m 1",
            "--family b --genus 2 --m 2",
            "--family b --genus 4 --m 3",
            "--family c --genus 4 --variant E2 --k 0",
            "--family c --genus 1 --variant E1 --k 5",
            "--family unstable --genus 4 --dl 5 --df 2 --s1f -2",
            "--family unstable --genus 3 --dl 2 --df 4 --s1f 0",
            "--family unstable --genus 1 --dl 2 --df 4 --s1f 0",
        ):
            code, text, err = run(capsys, "examples", *argv.split())
            out += f"{code}\n{text}{err}"
        assert len(out.splitlines()) == 24
        assert hashlib.sha256(out.encode()).hexdigest() == self.FAMILY_SHA256

    def test_suite_csv(self, capsys):
        code, out, _ = run(capsys, "examples", "--suite", "--max-genus", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,genus,n,k,m,variant,d,s1,s2,exact_h0,bound,sharp"
        assert len(lines) > 5
        assert all(line.count(",") == 11 for line in lines)

    SUITE_12_SHA256 = "004d9b1a66c22ade1ed29a144eb402c5f9e5c96ab92a5e45715f80770b53c554"

    def test_suite_bytes(self, capsys):
        # the whole stdout to genus 12: any change to a row, its format or
        # the row order changes the digest
        code, out, _ = run(capsys, "examples", "--suite", "--max-genus", "12")
        assert code == 0 and len(out.splitlines()) == 274
        assert hashlib.sha256(out.encode()).hexdigest() == self.SUITE_12_SHA256

    def test_suite_reuses_blocks_across_max_genera(self, capsys):
        # one process, the larger run first, so the later ones read cached blocks
        outs = {}
        for max_genus in ("30", "12", "20", "12"):
            code, out, err = run(capsys, "examples", "--suite", "--max-genus", max_genus)
            assert code == 0 and err == ""
            outs.setdefault(max_genus, []).append(out)
        for out in outs["12"]:
            assert hashlib.sha256(out.encode()).hexdigest() == self.SUITE_12_SHA256
        proc = run_module("examples", "--suite", "--max-genus", "20")
        assert proc.returncode == 0 and outs["20"] == [proc.stdout]

    @pytest.fixture
    def empty_suite_cache(self, monkeypatch):
        """``cli._SUITE`` as a fresh process starts it."""
        monkeypatch.setattr(cli, "_SUITE", {family: ["", []] for family in "abc"})

    def test_suite_cache_holds_one_text_per_family(self, capsys, empty_suite_cache):
        run(capsys, "examples", "--suite", "--max-genus", "12")
        assert list(cli._SUITE) == ["a", "b", "c"]
        reports = clifford3.suite(12)
        for family, (text, ends) in cli._SUITE.items():
            # genera 2..12 and no more, one end per genus
            assert len(ends) == 11
            assert ends[-1] == len(text)
            genera = [int(line.split(",")[1]) for line in text.splitlines()]
            assert genera == [r.curve.genus for r in reports if r.family == family]

    def test_smaller_max_genus_reads_the_cache(self, capsys, monkeypatch, empty_suite_cache):
        _, at_12, _ = run(capsys, "examples", "--suite", "--max-genus", "12")
        calls = []
        monkeypatch.setattr(cli, "genus_reports", lambda *a: calls.append(a))
        code, at_8, _ = run(capsys, "examples", "--suite", "--max-genus", "8")
        assert code == 0 and calls == []
        rows = at_12.splitlines(keepends=True)
        assert at_8 == "".join(r for r in rows if r[0] not in "abc" or int(r.split(",")[1]) <= 8)

    def test_extended_cache_matches_fresh_processes(self, capsys, empty_suite_cache):
        # 30 extends the texts that 12 built; 20 reads a slice of each
        for max_genus in ("12", "30", "20"):
            code, out, err = run(capsys, "examples", "--suite", "--max-genus", max_genus)
            proc = run_module("examples", "--suite", "--max-genus", max_genus)
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
            assert code == 0 and err == ""
        assert [len(ends) for _, ends in cli._SUITE.values()] == [29, 29, 29]

    @pytest.mark.parametrize("max_genus", ["1", "0", "-1"])
    def test_suite_below_genus_2_is_the_header(self, capsys, max_genus):
        code, out, err = run(capsys, "examples", "--suite", "--max-genus", max_genus)
        assert (code, err) == (0, "")
        assert out == "family,genus,n,k,m,variant,d,s1,s2,exact_h0,bound,sharp\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("--family b --genus 4 --m 2 --n 7", "--n is not read by family b"),
            ("--suite --family a", "--family is not read with --suite"),
            ("--suite --max-genus 2 --genus 9", "--genus is not read with --suite"),
            ("--family a --genus 5 --max-genus 9", "--max-genus is not read by family a"),
            ("--family c --k 0 --m 2", "--m is not read by family c"),
            ("--family a --n 0 --k 0 --variant E1", "--variant is not read by family a"),
            ("--family b --m 2 --s1f 0", "--s1f is not read by family b"),
            ("--family unstable --dl 4 --df 4 --s1f 0 --k 0", "--k is not read by family unstable"),
        ],
    )
    def test_flag_its_mode_does_not_read(self, capsys, argv, message):
        code, out, err = run(capsys, "examples", *argv.split())
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err) == {"code": "UsageError", "message": message}

    def test_defaults_apply_to_absent_flags(self, capsys):
        for short, full in [
            ("--suite", "--suite --max-genus 5"),
            ("--family a", "--family a --genus 3 --n 0 --k 0"),
            ("--family b", "--family b --genus 3 --m 2"),
            ("--family c", "--family c --genus 3 --variant E1 --k 0"),
        ]:
            assert run(capsys, "examples", *short.split()) == run(
                capsys, "examples", *full.split()
            )

    def test_requires_family_or_suite(self, capsys):
        code, _, err = run(capsys, "examples")
        assert code == 2 and json.loads(err)["code"] == "Clifford3Error"

    def test_param_error_exit_code(self, capsys):
        code, _, err = run(
            capsys, "examples", "--family", "b", "--genus", "3", "--m", "1"
        )
        assert code == 2 and json.loads(err)["code"] == "ParamsOutOfRange"


# Each mode of ``bound`` and ``examples``, by where its "is not read" error
# names it: a valid argv in that mode, and each optional flag the mode reads
# with a valid value, or None for a switch.  Every other optional flag is
# not read, except --suite in a family mode: it picks another mode.
READS = {
    "at rank 1": ("bound --genus 3 --rank 1 --degree 4", {}),
    "at rank 2": (
        "bound --genus 3 --rank 2 --degree 3 --s1 1",
        {"--s1": "1", "--hyperelliptic": None, "--delta": None},
    ),
    "on unstable rank-2 input": ("bound --genus 5 --rank 2 --degree 4 --s1 -2", {"--s1": "-4"}),
    "on semistable input": (
        "bound --genus 3 --rank 3 --degree 10 --s1 1 --s2 2",
        {"--s1": "1", "--s2": "2", "--s1f": "3", "--hyperelliptic": None, "--delta": None},
    ),
    "on unstable input": (
        "bound --genus 4 --rank 3 --degree 6 --s1 -3 --s2 0 --s1f 1 --f-semistable",
        {"--s1": "-3", "--s2": "0", "--s1f": "1", "--f-semistable": None},
    ),
    "with --suite": ("examples --suite", {"--suite": None, "--max-genus": "3"}),
    "by family a": (
        "examples --family a --genus 5", {"--family": "a", "--genus": "6", "--n": "0", "--k": "1"},
    ),
    "by family b": ("examples --family b --genus 4", {"--family": "b", "--genus": "5", "--m": "4"}),
    "by family c": (
        "examples --family c --genus 4",
        {"--family": "c", "--genus": "5", "--variant": "E2", "--k": "1"},
    ),
    "by family unstable": (
        "examples --family unstable --genus 4 --dl 5 --df 2 --s1f -2",
        {"--family": "unstable", "--genus": "4", "--dl": "5", "--df": "2", "--s1f": "-2"},
    ),
}


def _reads_cases():
    """(argv, the "is not read" message, or None when the flag is read) for
    every optional flag of every mode in READS."""
    for where, (base, reads) in READS.items():
        command = base.split()[0]
        for flag, f in cli.COMMANDS[command][1].items():
            if f.default is cli.REQUIRED or flag == "--suite" and where.startswith("by family"):
                continue
            if flag in reads:
                value, message = reads[flag], None
            else:
                value = None if f.type is bool else str(f.choices[0]) if f.choices else "0"
                message = f"{flag} is not read {where}"
            argv = [*base.split(), flag] + ([] if value is None else [value])
            yield pytest.param(argv, message, id=f"{where}-{flag}")


class TestReads:
    def test_every_mode_has_a_row(self):
        modes = [where for table in cli._UNREAD.values() for where, _ in table.values()]
        assert sorted(modes) == sorted(READS)

    @pytest.mark.parametrize("argv, message", _reads_cases())
    def test_each_mode_reads_its_flags(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        if message is None:
            assert code == 0 and err == "" and out
        else:
            assert code == 2 and out == "" and err.count("\n") == 1
            assert json.loads(err) == {"code": "UsageError", "message": message}

    def test_unread_int_flags_given_0(self, capsys):
        # 0 == False: a check that took a value flag's absence for False would
        # let these through; each mode whose unread value flags are all ints
        # gets every one of them as 0
        checked = []
        for where, (base, reads) in READS.items():
            flags = cli.COMMANDS[base.split()[0]][1]
            unread = [flag for flag, f in flags.items() if f.default is not cli.REQUIRED
                      and f.type is not bool and flag not in reads]
            if not unread or any(flags[flag].type is not int for flag in unread):
                continue
            code, out, err = run(capsys, *base.split(), *(x for flag in unread for x in (flag, "0")))
            assert code == 2 and out == ""
            assert json.loads(err) == {"code": "UsageError", "message": f"{unread[0]} is not read {where}"}
            checked.append(where)
        assert checked == ["at rank 1", "at rank 2", "on unstable rank-2 input", "by family c"]


# Values for every int flag and positional: small ints, including negative
# ones, values far above every cap, and values past a machine word.  The
# flags whose cost grows with the value stay small; a negative step count
# costs nothing.
WILD_INT = st.one_of(
    st.integers(-10, 40), st.sampled_from([-(10**6), 10**6, -(10**20), 10**20])
)
SMALL_INT = {
    "max_genus": st.integers(-3, 12),
    "N": st.integers(-3, 200),
    "steps": st.one_of(st.integers(-3, 50), st.just(-(10**20))),
}


def _flag_args(name, flag):
    """One drawn occurrence of a flag or positional: absent, bare or with a value."""
    head = (name,) if name.startswith("-") else ()
    if flag.type is bool:  # a switch
        return st.sampled_from([(), head])
    if flag.choices:
        values = st.sampled_from([*map(str, flag.choices), "9"])
    elif flag.type is int:
        values = SMALL_INT.get(flag.dest, WILD_INT).map(str)
    else:
        values = st.text("012", max_size=120)
    given_ = values.map(lambda v: head + (v,))
    # required flags and positionals are mostly given, optional ones half the
    # time, so that about half the argvs parse; a bare flag never parses
    if flag.default is cli.REQUIRED:
        shapes = [given_] * 18 + [st.just(()), st.just(head)]
    else:
        shapes = [given_] * 4 + [st.just(())] * 4 + [st.just(head)]
    return st.sampled_from(shapes).flatmap(lambda shape: shape)


def _argvs():
    per_command = [
        st.tuples(st.just((command,)), *(_flag_args(n, f) for n, f in flags.items()))
        for command, (_, flags) in cli.COMMANDS.items()
    ]
    return st.one_of(per_command).map(lambda parts: [x for part in parts for x in part])


@st.composite
def _bound_argvs(draw):
    """``bound`` argvs whose invariants meet the congruences, so that most of
    them reach the bound and the checks after it; any --s* flag may be
    missing."""
    rank, g = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    s1, s2 = draw(st.integers(-12, 12)), draw(st.integers(-12, 12))
    s2 -= (s2 - 2 * s1) % 3
    s1f = draw(st.integers(-9, 9))
    d = s1 + rank * draw(st.integers(-4, 12))
    argv = ["bound", "--genus", str(g), "--rank", str(rank), "--degree", str(d)]
    for flag, value, odds in [("--s1", s1, 4), ("--s2", s2, 4), ("--s1f", s1f, 1)]:
        if draw(st.integers(0, odds)):  # present odds times in odds + 1
            argv += [flag, str(value)]
    for flag in ("--hyperelliptic", "--delta", "--f-semistable"):
        if draw(st.booleans()):
            argv.append(flag)
    return argv


@st.composite
def _wild_argvs(draw):
    """A command and any tokens after it: free text, the command's flag names
    and help, and ``name=value`` with a free or an integer value."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    names = [k for k in cli.COMMANDS[command][1] if k[0] == "-"]
    value = st.one_of(st.text(), st.integers(-5, 40).map(str))
    token = st.one_of(
        value,
        st.sampled_from([*names, "-h", "--help"]),
        st.tuples(st.sampled_from([*names, "--help", "--nope"]), value).map("=".join),
    )
    return [command, *draw(st.lists(token, max_size=12))]


class TestNoTraceback:
    def test_every_command_is_drawn(self):
        assert set(cli.COMMANDS) == {"bound", "krawtchouk", "elmtrans", "table", "examples"}

    @given(argv=st.one_of(_argvs(), _bound_argvs()))
    @settings(max_examples=400, deadline=None)
    def test_status_0_or_one_json_error(self, argv):
        _check_status_0_or_one_json_error(argv)

    @given(argv=_wild_argvs())
    @settings(max_examples=400, deadline=None)
    def test_any_tokens_after_a_command(self, argv):
        # help anywhere exits 0 through SystemExit; nothing else escapes main
        status, out, err = _outcome(main, argv)
        if status == 0:
            assert err == ""
        else:
            assert status == 2 and out == ""
            assert err.endswith("\n") and err.count("\n") == 1
            assert set(json.loads(err)) == {"code", "message"}

    @pytest.mark.parametrize(
        "argv, code",
        [
            ("table --genus 100000000000000000000 --s1 0 --s2 0", "UsageError"),
            ("table --genus 3 --s1 0 --s2 0 --d-max 100000000000000000000", "UsageError"),
            ("table --genus 3 --s1 0 --s2 0 --d-min -100000000000000000000", "UsageError"),
            ("elmtrans --rank 2 --genus 3 --steps -100000000000000000000", "UsageError"),
            ("elmtrans --rank 3 --genus 4 --steps -3", "UsageError"),
            # int() refuses more than 4,300 digits
            *(
                pytest.param(f"bound --genus 3 --rank 1 {tail}", "UsageError", id=f"5000-digit {name}")
                for name, tail in (
                    ("--degree TOK", "--degree " + "1" * 5000),
                    ("--degree -TOK", "--degree -" + "1" * 5000),
                    ("--degree=TOK", "--degree=" + "1" * 5000),
                    ("--degree=-TOK", "--degree=-" + "1" * 5000),
                )
            ),
        ],
    )
    def test_integers_past_a_machine_word(self, argv, code):
        # the table argvs raised OverflowError from len() of the swept
        # degrees; a negative --steps of any size is a usage error
        assert _check_status_0_or_one_json_error(argv.split()) == code


def _check_status_0_or_one_json_error(argv):
    """main(argv) exits 0 with nothing on stderr, or 2 with one JSON error
    line on stderr and nothing on stdout; returns the error's code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        return None
    assert code == 2 and out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    payload = json.loads(err)
    assert set(payload) == {"code", "message"}
    return payload["code"]


class _ReferenceUsage(Exception):
    """A usage error of the reference parser."""


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise _ReferenceUsage(message)


def _reference_parser():
    """The argparse declaration that ``cli.parse_args`` replaced, kept as the
    oracle of the differential tests; the package does not use it.  The
    ``examples`` flags --genus, --n, --k, --m, --variant and --max-genus have
    no default here, as in ``cli.COMMANDS``: ``cmd_examples`` applies them."""
    parser = _ReferenceParser(
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
    p.add_argument("--genus", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--variant", choices=("E1", "E2"))
    p.add_argument("--dl", type=int)
    p.add_argument("--df", type=int)
    p.add_argument("--s1f", type=int)
    p.add_argument("--suite", action="store_true")
    p.add_argument("--max-genus", type=int, dest="max_genus")
    return parser


REFERENCE = _reference_parser()

# Tokens that argparse reads in some special way, put at a random position:
# help in its spellings, a lone "-", unknown options, a value with a space,
# and negative numbers that are and are not integers.  argparse read an
# integer with a space or a "+"; the grammar rejects it (TestGrammar).
ODD_TOKENS = [
    "-h", "--help", "-h=", "--help=", "-", "", "--s", "--nope", "-x", "-5", "-0.5",
    "-1e3", "-x y", "--=1",
]
# Values in place of a drawn one: negative integers in other spellings, and
# tokens that argparse did not read as a value after a flag
ODD_VALUES = ["-0", "-007", "-12", "-0.5", "-", "--", "-x", "--s1", "", "-h"]
REFUSED = {"--", "-x", "--s1", "-h"}


@st.composite
def _spelled(draw, argvs):
    """A drawn argv in the other spellings both parsers read: ``--flag=value``,
    repeated flags, negative values, and an odd token such as ``-h`` at any
    position.

    argparse refused a value in ``REFUSED``, or an odd token, after a flag;
    the grammar reads any token there as the flag's value.  An int or a
    choice flag rejects such a value either way, so only ``--choices``, the
    one free text flag, never meets one (``TestGrammar``)."""
    argv = draw(argvs)
    flags = cli.COMMANDS[argv[0]][1]
    out, rest = argv[:1], argv[1:]
    while rest:
        tok = rest.pop(0)
        flag = flags.get(tok) if tok.startswith("--") else None
        if flag is None or flag.type is bool or not rest or rest[0] in flags:
            out.append(tok)  # not a flag, a switch or a bare flag
            continue
        value = rest.pop(0)
        free = flag.type is str and not flag.choices
        odd = [v for v in ODD_VALUES if not (free and v in REFUSED)]
        if draw(st.integers(0, 3)) == 0:  # an earlier occurrence, which the last overrides
            out += [tok, draw(st.sampled_from(["0", "-1", "7", *odd]))]
        if draw(st.integers(0, 9)) == 0:
            value = draw(st.sampled_from(odd))
        # argparse read "--flag=--" as an empty list (TestParseArgs)
        out += [f"{tok}={value}"] if value != "--" and draw(st.booleans()) else [tok, value]
    if draw(st.integers(0, 2)) == 0:
        # after a bare --choices, the odd token would be its value
        at = draw(st.integers(0, len(out) - (out[-1] == "--choices")))
        out.insert(at, draw(st.sampled_from(ODD_TOKENS)))
    return out


def _reference_main(argv):
    """``main`` with the reference parser in front of the same handlers."""
    try:
        args = REFERENCE.parse_args(argv)
        return getattr(cli, f"cmd_{args.command}")(args)
    except _ReferenceUsage as exc:
        return cli._emit_error(UsageError(str(exc)))
    except (Clifford3Error, ValueError) as exc:
        return cli._emit_error(exc)


def _outcome(call, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = call(list(argv))
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def _check_against_reference(argv):
    """parse_args reads argv as the reference parser does: the same
    namespace, a UsageError where it had a usage error, and help where it
    printed help.  argparse read the tokens in order, so an error before a
    help flag won; in the grammar, help after the command wins over all."""
    if argv[:1] and argv[0] in cli.COMMANDS and {"-h", "--help"} & set(argv):
        assert _outcome(cli.parse_args, argv) == (0, cli._usage(argv[0]), "")
        return
    try:
        with redirect_stdout(io.StringIO()):
            expected = vars(REFERENCE.parse_args(argv))
    except _ReferenceUsage:
        with pytest.raises(UsageError):
            cli.parse_args(argv)
        status, out, err = _outcome(main, argv)
        assert status == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err)["code"] == "UsageError"
    except SystemExit as exc:
        assert exc.code == 0
        status, out, err = _outcome(cli.parse_args, argv)
        assert status == 0 and out.startswith("usage: clifford3") and err == ""
    else:
        assert vars(cli.parse_args(argv)) == expected


class TestParseArgs:
    def test_package_does_not_import_argparse(self):
        src = str(Path(clifford3.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, clifford3.cli; print('argparse' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout == "False\n"
        assert not any(hasattr(cli, name) for name in ("build_parser", "_Parser", "_parser"))

    @pytest.mark.parametrize(
        "argv",
        [
            "bound --genus=3 --rank=3 --degree=10 --s1=1 --s2=2",
            "bound --genus 9 --rank 3 --degree 10 --s1 1 --s2 2 --genus 3",
            "bound --s2 2 --s1 1 --degree 10 --rank=3 --genus 3",
        ],
    )
    def test_spellings_of_one_command(self, capsys, argv):
        spaced = run(capsys, *"bound --genus 3 --rank 3 --degree 10 --s1 1 --s2 2".split())
        assert run(capsys, *argv.split()) == spaced

    @pytest.mark.parametrize(
        "argv",
        [
            ["-h"],
            ["bound", "--help"],
            ["krawtchouk", "-0", "2", "-007"],  # "-0" and leading zeros are ints
            ["bound", "--genus", "3", "--rank", "3", "--degree", "9",
             "--s1", "0", "--s1f", "-2"],  # --s1 is not --s1f
            ["krawtchouk", "-1", "2", "4"],  # negative integers are values
            ["bound", "--genus", "3", "--rank", "3", "--degree", "-3"],
            ["bound", "--genus", "3", "--rank", "3", "--degree=-3"],
            ["krawtchouk", "1", "2", "4", "-x"],
            ["elmtrans", "--rank", "2", "--genus", "3", "--steps", "1", "--choices=-1"],
            ["bound", "--genus", "3", "--rank", "1", "--degree", "0", "--"],  # no positional
            ["bound", "--genus", "--", "3", "--rank", "1", "--degree", "0"],
            ["bound", "--genus", "-x", "--rank", "3", "--degree", "0"],  # not an int
            ["bound", "--genus", "--rank", "3", "--degree", "0"],
            ["bound", "--s", "0", "--genus", "3", "--rank", "3", "--degree", "0"],
            ["bound", "--genus", "3", "--rank", "1", "--degree", "0", "--help="],
            ["bound", "--genus", "3", "--rank", "3", "--degree", "0", "--delta=1"],
            ["bound", "--genus", "3", "--rank", "3", "--degree", "0", "--nope"],
            ["bound", "--nope", "-h"],  # help wins over an unknown flag
            ["krawtchouk", "1", "2"],
            ["krawtchouk", "1", "2", "3", "4"],
            ["krawtchouk", "1", "2", "x"],
            ["krawtchouk", "1", "-hx"],
            ["nope"],
            ["--", "bound"],
            [],
            ["--nope", "bound", "--genus", "3", "--rank", "1", "--degree", "0"],
            ["-x"],  # unknown options before the command
        ],
    )
    def test_edge_cases_match_reference(self, argv):
        _check_against_reference(argv)

    def test_value_given_as_equals_dashes_is_literal(self, capsys):
        # argparse (Python 3.10 and 3.11) read "--flag=--" as the value [],
        # which an int flag's handler met with a TypeError traceback;
        # parse_args reads the literal "--"
        code, out, err = run(capsys, "bound", "--genus", "3", "--rank", "2", "--degree", "4",
                             "--s1=--")
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "code": "UsageError", "message": "argument --s1: invalid int value: '--'",
        }
        argv = ["elmtrans", "--rank", "2", "--genus", "3", "--steps", "2", "--choices=--"]
        assert cli.parse_args(argv).choices == "--"

    @given(argv=_spelled(st.one_of(_argvs(), _bound_argvs())))
    @settings(max_examples=600, deadline=None)
    def test_parse_matches_reference(self, argv):
        _check_against_reference(argv)

    def test_session_commands_match_reference(self):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
        try:
            from workloads import Session
        finally:
            sys.path.pop(0)
        for seed in range(1, 11):
            for _, argv in Session(seed).ops_list:
                assert _outcome(main, argv) == _outcome(_reference_main, argv), argv


def _session_argvs(seed):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        from workloads import Session
    finally:
        sys.path.pop(0)
    return [argv for _, argv in Session(seed).ops_list]


class TestGrammar:
    """What the grammar reads otherwise than argparse did."""

    @pytest.mark.parametrize(
        "argv, outcome",
        [
            # a prefix of a flag is not that flag
            ("bound --gen 3 --rank 3 --degree 10 --s1 1 --s2 2", "UsageError"),
            ("bound --s2 2 --s1 1 --deg 10 --ran 3 --g 3", "UsageError"),
            ("bound --genus 3 --rank 1 --degree 0 --he", "UsageError"),
            # -hh, -h=h and -hx are not -h
            ("krawtchouk 1 -hh", "UsageError"),
            ("bound --genus 3 --rank 1 --degree 0 -hh", "UsageError"),
            ("bound --genus 3 --rank 1 --degree 0 -h=h", "UsageError"),
            ("bound --genus 3 --rank 1 --degree 0 -hx", "UsageError"),
            # "--" is not a separator among positionals
            ("krawtchouk -- -1 2 4", "UsageError"),
            ("krawtchouk 1 2 4 --", "UsageError"),
            # help wins over a flag that is not one
            ("bound -h --s", "usage"),
            # an int is an optional "-", then ASCII digits
            ("krawtchouk ' -3' 2 4", "UsageError"),
            ("bound --genus 3 --rank 1 --degree ' 4'", "UsageError"),
            ("bound --genus 3 --rank 1 --degree +3", "UsageError"),
            ("bound --genus 3 --rank 1 --degree ' +8'", "UsageError"),
            ("bound --genus 1_0 --rank 1 --degree 4", "UsageError"),
            ("krawtchouk 1_000 2 4", "UsageError"),
            ("krawtchouk \u0662 2 4", "UsageError"),  # ARABIC-INDIC DIGIT TWO
        ],
    )
    def test_dropped_spelling(self, argv, outcome):
        argv = shlex.split(argv)
        status, out, err = _outcome(main, argv)
        if outcome == "usage":
            assert (status, out, err) == (0, cli._usage(argv[0]), "")
        else:
            assert status == 2 and out == "" and err.count("\n") == 1
            assert json.loads(err)["code"] == outcome

    def test_help_anywhere(self):
        for argv in _session_argvs(1):
            command = argv[0]
            for at in range(1, len(argv) + 1):
                for help_ in ("-h", "--help"):
                    status, out, err = _outcome(main, [*argv[:at], help_, *argv[at:]])
                    assert status == 0 and err == "", (argv, at)
                    assert out.startswith(f"usage: clifford3 {command} ")
                    assert out == cli._usage(command)
            # a leading help flag asks for the program's usage
            status, out, err = _outcome(main, ["-h", *argv])
            assert (status, out, err) == (0, cli._usage(None), "")
            assert out.startswith("usage: clifford3 [-h] {bound,")

    @given(text=st.text(alphabet="0123456789-+_ \u0663\uff15", max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_int_value_is_its_grammar(self, text):
        # "+", " ", "_", ARABIC-INDIC DIGIT THREE and FULLWIDTH DIGIT FIVE are
        # read by int(); an int value is exactly an optional "-", then ASCII
        # digits, given as a separate token, after "=" or as a positional
        rest = ["--rank", "1", "--degree", "0"]
        for name, dest, argv in [
            ("--genus", "genus", ["bound", "--genus", text, *rest]),
            ("--genus", "genus", ["bound", f"--genus={text}", *rest]),
            ("r", "r", ["krawtchouk", text, "2", "4"]),
        ]:
            if re.fullmatch(r"-?[0-9]+", text):
                assert getattr(cli.parse_args(argv), dest) == int(text)
            else:
                with pytest.raises(UsageError) as refused:
                    cli.parse_args(argv)
                assert str(refused.value) == f"argument {name}: invalid int value: {text!r}"

    def test_token_after_a_flag_is_its_value(self):
        # argparse refused a value that starts with "-" and is no number
        argv = ["elmtrans", "--rank", "2", "--genus", "3", "--steps", "1", "--choices"]
        for value in ("-x", "--", "--rank", "-1e3"):
            assert cli.parse_args([*argv, value]).choices == value
        status, out, err = _outcome(main, ["bound", "--genus", "--rank", "1", "--degree", "0"])
        assert status == 2 and json.loads(err) == {
            "code": "UsageError", "message": "argument --genus: invalid int value: '--rank'",
        }
