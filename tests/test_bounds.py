import importlib
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from clifford3 import bounds
from clifford3 import (
    BoundResult,
    BundleInvariants,
    Curve,
    KrawtchoukQuery,
    Rank3Query,
    bound,
    h0_line_bound,
    h0_prop21_bound,
    h0_rank2_bound,
    h0_rank3_semistable_bound,
    h0_rank3_unstable_bound,
    krawtchouk_oracle,
    serre_dual,
    slope_bound,
    suggested_min_s1f,
)
from clifford3.errors import (
    CongruenceViolation,
    HypothesisFailed,
    MissingS1F,
    NotSemistable,
    NotUnstable,
    SlopeOutOfRange,
)
from witnesses import split_sums


def rank3_query(g, d, s1, s2, **kw):
    hyper = kw.pop("hyperelliptic", False)
    return Rank3Query(Curve(g, hyper), BundleInvariants(3, d, (s1, s2)), **kw)


class TestLineBound:
    def test_clifford_plateau(self):
        assert h0_line_bound(Curve(2), 2).value == 2

    def test_riemann_roch_tail(self):
        r = h0_line_bound(Curve(3), 8)
        assert r.value == 6 and r.exact

    def test_negative_degree(self):
        r = h0_line_bound(Curve(4), -1)
        assert r.value == 0 and r.exact

    def test_clifford_not_exact(self):
        assert not h0_line_bound(Curve(3), 2).exact


class TestRank2Bound:
    def test_hyperelliptic_refinement(self):
        assert h0_rank2_bound(Curve(5, True), 12, 2).value == 6

    def test_vanishing_below_s1(self):
        r = h0_rank2_bound(Curve(4), 2, 4)
        assert r.value == 0 and r.exact

    def test_base_value(self):
        assert h0_rank2_bound(Curve(3), 10, 2).value == 6

    def test_congruence_checked(self):
        with pytest.raises(CongruenceViolation):
            h0_rank2_bound(Curve(3), 10, 1)

    def test_congruence_error_matches_the_invariants(self):
        # the bound and the record raise the same error for an odd s1
        message = "s_1=1 is not congruent to 1*d=10 mod 2"
        for call in (
            lambda: h0_rank2_bound(Curve(3), 10, 1),
            lambda: BundleInvariants(2, 10, (1,)),
        ):
            with pytest.raises(CongruenceViolation) as info:
                call()
            assert info.value.r == 1 and str(info.value) == message

    def test_unstable_is_the_split_sum(self):
        # s1 < 0: the maximal line subbundle, of degree 6 > 2g - 2, plus its
        # quotient, of degree 4
        assert h0_rank2_bound(Curve(3), 10, -2) == BoundResult(7, "RR-EXACT+CLIFFORD-LINE")

    def test_unstable_tails_and_duality(self):
        # every s1 < 0 with g <= 8: two joined line cases with no notes, exact
        # tails outside [s1, 4g-4-s1], the Serre duality identity
        # B(d) = B(4g-4-d) + d + 2 - 2g at every d, and neither rung: both
        # are semistable-only
        for g in range(2, 9):
            plain = Curve(g)
            for s1 in range(-2 * g, 0):
                for d in range(s1 - 4, 4 * g - 4 - s1 + 5, 2):
                    r = h0_rank2_bound(plain, d, s1)
                    assert r.case.count("+") == 1 and r.assumptions == (), (g, d, s1, r)
                    if d < s1:
                        assert r.value == 0 and r.exact, (g, d, s1, r)
                    if d > 4 * g - 4 - s1:
                        assert r.value == d + 2 - 2 * g and r.exact, (g, d, s1, r)
                    dual = h0_rank2_bound(plain, 4 * g - 4 - d, s1)
                    assert r.value == dual.value + d + 2 - 2 * g, (g, d, s1, r, dual)
                    assert h0_rank2_bound(Curve(g, True), d, s1, use_delta=True) == r

    def test_riemann_roch_tail(self):
        g, s1 = 3, 2
        d = 4 * g - 4 + 2  # above the special window
        r = h0_rank2_bound(Curve(g), d, s1)
        assert r.value == d + 2 - 2 * g and r.exact

    def test_delta_refinement_nonzero_coefficient(self):
        # g=3, d=6, s1=0: coefficient index 4 in (1-z^2)^3 gives 3 != 0,
        # so delta = 0 and the refinement shaves 1 off the base bound
        assert h0_rank2_bound(Curve(3), 6, 0).value == 5
        assert h0_rank2_bound(Curve(3), 6, 0, use_delta=True).value == 4

    def test_delta_refinement_zero_coefficient(self):
        # g=3, d=4, s1=0: coefficient index 3 in (1-z^2)^3 is an odd power,
        # so the coefficient vanishes and delta = 1 keeps the base value
        assert h0_rank2_bound(Curve(3), 4, 0).value == 4
        assert h0_rank2_bound(Curve(3), 4, 0, use_delta=True).value == 4

    def test_tie_keeps_the_first_candidate(self):
        # g=3, d=1, s1=1: the Krawtchouk coefficient is nonzero, so the
        # Krawtchouk candidate ties with the hyperelliptic one at 1
        kraw = BoundResult(1, "RANK2-KRAWTCHOUK", assumptions=("krawtchouk-refinement",))
        assert h0_rank2_bound(Curve(3), 1, 1, use_delta=True) == kraw
        assert h0_rank2_bound(Curve(3, True), 1, 1, use_delta=True) == BoundResult(
            1, "RANK2-HYP", assumptions=("hyperelliptic", "s1>0")
        )
        # g=3, d=0, s1=0: the coefficient vanishes and the Krawtchouk
        # candidate ties with the Clifford one at 2
        assert h0_rank2_bound(Curve(3), 0, 0, use_delta=True) == BoundResult(
            2, "RANK2-CLIFFORD"
        )
        # every special-range point with g <= 6: the hyperelliptic guard,
        # else the Krawtchouk guard with a nonzero coefficient (checked with
        # the oracle), else the base value
        ties = set()
        for g in range(2, 7):
            for hyper in (False, True):
                for s1 in range(0, 2 * g + 1):
                    for d in range(s1, 4 * g - 4 - s1 + 1, 2):
                        half = (d - s1) // 2
                        nonzero = s1 <= g and krawtchouk_oracle(
                            KrawtchoukQuery(half + 1, g, 2 * g - s1)
                        ) != 0
                        if hyper and s1 > 0:
                            want = BoundResult(
                                half + 1, "RANK2-HYP", assumptions=("hyperelliptic", "s1>0")
                            )
                            ties.add("hyperelliptic" if nonzero else None)
                        elif nonzero:
                            want = BoundResult(
                                half + 1,
                                "RANK2-KRAWTCHOUK",
                                assumptions=("krawtchouk-refinement",),
                            )
                        else:
                            want = BoundResult(half + 2, "RANK2-CLIFFORD")
                            ties.add("base" if s1 <= g else None)
                        assert h0_rank2_bound(Curve(g, hyper), d, s1, use_delta=True) == want
        # the sweep meets both ties: hyperelliptic and a nonzero coefficient,
        # and a vanishing coefficient against the base value
        assert {"hyperelliptic", "base"} <= ties

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_plateau_nondecreasing(self, g):
        c = Curve(g)
        for s1 in range(0, 2 * g, 2):
            vals = [
                h0_rank2_bound(c, d, s1).value for d in range(s1, 4 * g - 4 - s1 + 1, 2)
            ]
            assert vals == sorted(vals)


class TestRank3Query:
    def test_rejects_s1f_below_forced_minimum(self):
        with pytest.raises(HypothesisFailed):
            rank3_query(4, 4, 1, 8, s1f=1)

    def test_rejects_s1f_parity(self):
        # quotient degree (2*10+1)/3 = 7 is odd
        with pytest.raises(CongruenceViolation):
            rank3_query(3, 10, 1, 2, s1f=2)

    def test_suggested_min_s1f(self):
        inv = BundleInvariants(3, 10, (1, 2))
        s1f = suggested_min_s1f(inv)
        assert s1f == 1  # (2*2 - 1)/3 = 1, parity of 7
        inv = BundleInvariants(3, 4, (1, 8))
        assert suggested_min_s1f(inv) == 5  # (2*8 - 1)/3 = 5, parity of 3
        # s2 < 0 <= s1: the twisted dual's, (35, (-1, 4)): (2*4 + 1)/3 = 3, parity of 23
        inv = BundleInvariants(3, 19, (4, -1))
        assert suggested_min_s1f(inv) == 3
        assert bound(Curve(10), inv, s1f=suggested_min_s1f(inv)).value == 11
        with pytest.raises(CongruenceViolation):
            Rank3Query(Curve(10), inv, s1f=2)


class TestRank3SemistableBound:
    def test_sharp_hyperelliptic_value(self):
        q = rank3_query(3, 10, 1, 2, hyperelliptic=True, use_hyperelliptic_sharpening=True)
        assert h0_rank3_semistable_bound(q).value == 6

    def test_base_value(self):
        assert h0_rank3_semistable_bound(rank3_query(3, 10, 1, 2)).value == 7

    def test_line_only_case(self):
        r = h0_rank3_semistable_bound(rank3_query(4, 4, 1, 8))
        assert r.value == 2 and r.case == "RANK3-LINE-ONLY"

    def test_riemann_roch_tail(self):
        r = h0_rank3_semistable_bound(rank3_query(2, 13, 1, 2))
        assert r.value == 10 and r.exact

    def test_vanishing(self):
        r = h0_rank3_semistable_bound(rank3_query(3, 0, 3, 6))
        assert r.value == 0 and r.exact

    def test_no_sharpening_when_both_zero(self):
        q = rank3_query(3, 6, 0, 0, hyperelliptic=True, use_hyperelliptic_sharpening=True)
        r = h0_rank3_semistable_bound(q)
        assert r.case == "RANK3-MAIN"

    def test_delta_sharpening(self):
        # coefficient index 4, K_4(3,5) = (1-z)^3(1+z)^2 -> z^4 coeff 1 != 0.
        # It is the rank-2 rule on the quotient F, of degree (2d+s1)/3 = 7
        # with s1(F) = 1, so the rank-2 bound of F takes its Krawtchouk guard
        assert h0_rank2_bound(Curve(3), 7, 1, use_delta=True).case == "RANK2-KRAWTCHOUK"
        q = rank3_query(3, 10, 1, 2, s1f=1, use_delta=True)
        assert h0_rank3_semistable_bound(q) == BoundResult(
            6, "RANK3-MAIN-SHARP", assumptions=("krawtchouk-nonzero", "s1f=1")
        )
        assert h0_prop21_bound(q) == BoundResult(
            6, "RANK3-QUOTIENT-KRAWTCHOUK", assumptions=("s1f=1", "krawtchouk-refinement")
        )
        # s1f = 5 > g: outside the rule's domain, the base value stands
        q = rank3_query(3, 10, 1, 2, s1f=5, use_delta=True)
        assert h0_rank3_semistable_bound(q) == BoundResult(7, "RANK3-MAIN")

    def test_rejects_unstable(self):
        with pytest.raises(NotSemistable):
            h0_rank3_semistable_bound(rank3_query(3, 4, -2, 2))

    @pytest.mark.parametrize("hyper", [False, True])
    @pytest.mark.parametrize(
        "d, s1, s2, value",
        [(71, 20, 10, 33), (60, 12, 12, 31), (70, 10, 20, 33)],
        ids=["s2<s1", "s2=s1", "s2>s1"],
    )
    def test_middle_point(self, d, s1, s2, value, hyper):
        # g = 25: floor(d/2 - max(2*s2 - s1, 2*s1 - s2)/6) + 3, whichever
        # skew is larger; a hyperelliptic curve takes one off under bound()
        assert value == (3 * d - max(2 * s2 - s1, 2 * s1 - s2)) // 6 + 3
        r = h0_rank3_semistable_bound(rank3_query(25, d, s1, s2, hyperelliptic=hyper))
        assert r == BoundResult(value, "RANK3-MAIN")
        r = bound(Curve(25, hyper), BundleInvariants(3, d, (s1, s2)))
        assert (r.value, r.case) == ((value - 1, "RANK3-MAIN-SHARP") if hyper
                                     else (value, "RANK3-MAIN"))

    @settings(max_examples=200)
    @given(g=st.integers(2, 6), d=st.integers(0, 30), s1=st.integers(0, 12), s2=st.integers(0, 12))
    def test_edge_consistency(self, g, d, s1, s2):
        if (s1 - d) % 3 or (s2 - 2 * d) % 3:
            return
        r = h0_rank3_semistable_bound(rank3_query(g, d, s1, s2))
        if s1 <= d <= 6 * g - 6 - s2:
            # never below the exact values at the range edges
            assert r.value >= 0
            if d == 6 * g - 6 - s2:
                assert r.value >= d + 3 - 3 * g


def _run_rows(g, s1, s2, degrees):
    """(d, value, case, exact) of every degree of :func:`bounds.semistable_runs`."""
    return [
        (d, (slope * d + offset) // divisor, case, exact)
        for run, case, exact, slope, offset, divisor in bounds.semistable_runs(g, s1, s2, degrees)
        for d in run
    ]


def _fresh_rows(g, s1, s2, degrees):
    """The same rows from a query built afresh at each degree."""
    rows = []
    for d in degrees:
        value, case, exact, _ = h0_rank3_semistable_bound(rank3_query(g, d, s1, s2))._values
        rows.append((d, value, case, exact))
    return rows


# the dispatch's order of d; RR-EXACT may be two runs, its clamp at 0 first
RUN_ORDER = ("VANISHING", "RANK3-LINE-ONLY", "RANK3-MAIN", "RANK3-LINE-ONLY-DUAL", "RR-EXACT")


class TestSemistableRuns:
    """``bounds.semistable_runs``, as ``table`` writes it, against a query
    built afresh at each degree."""

    def test_rows_equal_a_fresh_query(self):
        cases, runs = 0, set()
        for g in range(2, 13):
            for s1, s2 in product(range(3 * g + 1), repeat=2):
                if (s2 - 2 * s1) % 3:
                    continue
                degrees = range(s1 - 9, 6 * g - s2 + 10, 3)
                assert _run_rows(g, s1, s2, degrees) == _fresh_rows(g, s1, s2, degrees)
                cases += len(degrees)
                runs.update(r[1:] for r in bounds.semistable_runs(g, s1, s2, degrees))
        assert cases == 34_408  # d past both tails at every (g, s1, s2)
        # every run, the clamp of RR-EXACT at 0 among them
        assert {case for case, *_ in runs} == set(RUN_ORDER)
        assert ("RR-EXACT", True, 0, 0, 1) in runs

    @settings(max_examples=300, deadline=None)
    @given(
        g=st.integers(2, 50_000), s1=st.integers(0, 150_000), s2=st.integers(0, 150_000),
        edge=st.integers(0, 4), back=st.integers(-3, 30), rows=st.integers(0, 40),
    )
    def test_random_window_equals_a_fresh_query(self, g, s1, s2, edge, back, rows):
        s2 += (2 * s1 - s2) % 3
        # a window of congruent degrees from about ``back`` rows below one of
        # the dispatch's thresholds in d, or the clamp of RR-EXACT at 0
        near = (s1, s2 - s1, 6 * g - 6 - s1 + s2, 6 * g - 6 - s2, 3 * g - 3)[edge]
        first = near - 3 * back + (s1 - near) % 3
        degrees = range(first, first + 3 * rows, 3)
        assert _run_rows(g, s1, s2, degrees) == _fresh_rows(g, s1, s2, degrees)

    def test_runs_are_slices_in_the_dispatch_order(self):
        g, s1, s2 = 10, 0, 21
        degrees = range(-9, 61, 3)
        runs = bounds.semistable_runs(g, s1, s2, degrees)
        assert [r[1] for r in runs] == [
            "VANISHING", "RANK3-LINE-ONLY", "RANK3-MAIN", "RR-EXACT"
        ]
        assert [d for r in runs for d in r[0]] == list(degrees)
        assert [r[1] for r in bounds.semistable_runs(10, 21, 0, range(9, 67, 3))] == [
            "VANISHING", "RANK3-MAIN", "RANK3-LINE-ONLY-DUAL", "RR-EXACT"
        ]
        assert bounds.semistable_runs(g, s1, s2, range(0)) == []

    @pytest.mark.parametrize("d, s", [(4, (-2, 2)), (4, (1, -1)), (2, (-1, -2))],
                             ids=["s1<0", "s2<0", "both<0"])
    def test_negative_s_is_not_semistable(self, d, s):
        with pytest.raises(NotSemistable) as expected:
            h0_rank3_semistable_bound(rank3_query(3, d, *s))
        with pytest.raises(NotSemistable) as got:
            bounds.semistable_runs(3, *s, range(d, d + 6, 3))
        assert str(got.value) == str(expected.value)

    def test_builds_no_result(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a BoundResult was built")

        monkeypatch.setattr(bounds, "_result", refused)
        monkeypatch.setattr(bounds, "BoundResult", refused)
        assert len(_run_rows(30, 0, 0, range(-30, 200, 3))) == 77


class TestProp21Bound:
    def test_hyperelliptic_sharp_value(self):
        q = rank3_query(5, 18, 0, 0, s1f=2, hyperelliptic=True,
                        use_hyperelliptic_sharpening=True)
        assert h0_prop21_bound(q).value == 10
        # F's hyperelliptic rung needs sharpening: without it a hyperelliptic
        # curve gets the value of a general one
        q = rank3_query(5, 18, 0, 0, s1f=2, hyperelliptic=True)
        assert h0_prop21_bound(q) == BoundResult(11, "RANK3-QUOTIENT", assumptions=("s1f=2",))

    def test_stable_example_value(self):
        q = rank3_query(4, 5, 2, 1, s1f=2, hyperelliptic=True,
                        use_hyperelliptic_sharpening=True)
        assert h0_prop21_bound(q).value == 3

    def test_tie_keeps_the_first_candidate(self):
        both = dict(s1f=2, use_delta=True, use_hyperelliptic_sharpening=True)
        # g=3, d=3: the coefficient is nonzero, so the Krawtchouk candidate
        # ties with the hyperelliptic one at 2
        assert h0_prop21_bound(rank3_query(3, 3, 0, 0, **both)) == BoundResult(
            2, "RANK3-QUOTIENT-KRAWTCHOUK", assumptions=("s1f=2", "krawtchouk-refinement")
        )
        assert h0_prop21_bound(
            rank3_query(3, 3, 0, 0, hyperelliptic=True, **both)
        ) == BoundResult(
            2, "RANK3-QUOTIENT-SHARP", assumptions=("s1f=2", "hyperelliptic", "s1f>0")
        )
        # g=3, d=6: the coefficient vanishes and the Krawtchouk candidate
        # ties with the plain quotient bound at 5
        assert h0_prop21_bound(rank3_query(3, 6, 0, 0, **both)) == BoundResult(
            5, "RANK3-QUOTIENT", assumptions=("s1f=2",)
        )
        # every point of the quotient window with g <= 6 and every admissible
        # s1f up to g, both refinements on: the hyperelliptic guard, else the
        # Krawtchouk guard with a nonzero coefficient (checked with the
        # oracle), else the base value
        ties = set()
        for g in range(2, 7):
            for hyper in (False, True):
                c = Curve(g, hyper)
                for s1 in range(0, 3 * g + 1):
                    for s2 in range(-(-s1 // 2), 3 * g + 1):  # s1 <= 2*s2
                        for d in range(s1, 6 * g - 6 - s2 + 1):
                            if (s1 - d) % 3 or (s2 - 2 * d) % 3:
                                continue
                            inv = BundleInvariants(3, d, (s1, s2))
                            for s1f in range(suggested_min_s1f(inv), g + 1, 2):
                                if not 3 * s1f - s1 <= 2 * d <= 12 * g - 12 - 3 * s1f - s1:
                                    continue
                                q = Rank3Query(
                                    c, inv, s1f=s1f, use_delta=True,
                                    use_hyperelliptic_sharpening=True,
                                )
                                half, note = (d - s1f) // 2, f"s1f={s1f}"
                                idx = (2 * d + s1 - 3 * s1f) // 6 + 1
                                nonzero = krawtchouk_oracle(
                                    KrawtchoukQuery(idx, g, 2 * g - s1f)
                                ) != 0
                                if hyper and s1f > 0:
                                    want = BoundResult(
                                        half + 2,
                                        "RANK3-QUOTIENT-SHARP",
                                        assumptions=(note, "hyperelliptic", "s1f>0"),
                                    )
                                    ties.add("hyperelliptic" if nonzero else None)
                                elif nonzero:
                                    want = BoundResult(
                                        half + 2,
                                        "RANK3-QUOTIENT-KRAWTCHOUK",
                                        assumptions=(note, "krawtchouk-refinement"),
                                    )
                                else:
                                    want = BoundResult(
                                        half + 3, "RANK3-QUOTIENT", assumptions=(note,)
                                    )
                                    ties.add("base")
                                assert h0_prop21_bound(q) == want
        # the sweep meets both ties: hyperelliptic and a nonzero coefficient,
        # and a vanishing coefficient against the base value
        assert {"hyperelliptic", "base"} <= ties

    def test_requires_s1f(self):
        with pytest.raises(MissingS1F):
            h0_prop21_bound(rank3_query(5, 18, 0, 0))

    def test_window_enforced(self):
        with pytest.raises(HypothesisFailed):
            h0_prop21_bound(rank3_query(3, 0, 0, 0, s1f=4))

    def test_skew_hypothesis_enforced(self):
        with pytest.raises(HypothesisFailed):
            h0_prop21_bound(rank3_query(4, 11, 5, 1, s1f=1))

    def test_s1f_below_least_rejected_for_unstable_input(self):
        # the least admissible s1f for d=-1, s=(-1, 1) is 1
        with pytest.raises(HypothesisFailed):
            h0_prop21_bound(rank3_query(3, -1, -1, 1, s1f=-3))

    def test_never_much_below_main_bound(self):
        # with the minimal admissible s1f, the quotient bound stays within 1
        # of the main semistable bound on the shared domain
        for g in range(2, 7):
            c = Curve(g)
            for s1 in range(0, 3 * g + 1, 3):
                for s2 in range(0, 3 * g + 1, 3):
                    if s1 > 2 * s2:
                        continue
                    for d in range(s1, 6 * g - 6 - s2 + 1, 3):
                        inv = BundleInvariants(3, d, (s1, s2))
                        q = Rank3Query(c, inv, s1f=suggested_min_s1f(inv))
                        try:
                            quot = h0_prop21_bound(q)
                        except HypothesisFailed:
                            continue
                        main = h0_rank3_semistable_bound(q)
                        assert quot.value >= main.value - 1

    def test_equals_the_former_formula_on_semistable_input(self):
        # the line bound of L plus the rank-2 bound of F is, on semistable
        # input, the formula it replaced: value, case and notes at every call
        # it answers, sharpening and delta both ways, s1f in [-g-2, g+2]
        calls = 0
        for g in range(2, 9):
            for hyper in (False, True):
                c = Curve(g, hyper)
                for s1 in range(3 * g + 1):
                    for s2 in range(-(-s1 // 2), 3 * g + 1):  # s1 <= 2*s2
                        if (s2 - 2 * s1) % 3:
                            continue
                        for d in range(s1, 6 * g - 5, 3):
                            inv = BundleInvariants(3, d, (s1, s2))
                            flags = product(range(-g - 2, g + 3), (False, True), (False, True))
                            for s1f, delta, sharpen in flags:
                                try:
                                    q = Rank3Query(c, inv, s1f=s1f, use_delta=delta,
                                                   use_hyperelliptic_sharpening=sharpen)
                                    r = h0_prop21_bound(q)
                                except (CongruenceViolation, HypothesisFailed):
                                    continue
                                assert r == _former_quotient_bound(q), q
                                calls += 1
        assert calls == 42_768

    def test_unstable_input_bounds_a_split_bundle(self):
        # L + K + K at g = 2 with deg L = 7 has h0 = 6 + 2 + 2; the former
        # formula floor((d - s1f)/2) + 3 gave 8.  L's degree is above 2g - 2,
        # where Riemann-Roch, not Clifford, gives its h0
        q = rank3_query(2, 11, -10, -5, s1f=0)
        assert h0_prop21_bound(q) == BoundResult(10, "RANK3-QUOTIENT", assumptions=("s1f=0",))
        u = h0_rank3_unstable_bound(q)
        assert u.value == 10
        assert u.assumptions == ("s1f=0", "line:RR-EXACT", "quotient:RANK2-CLIFFORD")


def _former_quotient_bound(q):
    """The quotient bound's own formula before it became the line bound of L
    plus the rank-2 bound of F: floor((d - s1f)/2) + 3, lowered by 1 with
    sharpening on a hyperelliptic curve when s1f > 0, else with ``use_delta``
    when the coefficient of F's ((2d+s1)/3, s1f) is nonzero (by the oracle)."""
    g, hyper = q.curve.genus, q.curve.hyperelliptic
    d, s1, s1f = q.inv.degree, q.inv.s[0], q.s1f
    deg_f, half, note = (2 * d + s1) // 3, (d - s1f) // 2, f"s1f={s1f}"
    if q.use_hyperelliptic_sharpening and hyper and s1f > 0:
        return BoundResult(half + 2, "RANK3-QUOTIENT-SHARP",
                           assumptions=(note, "hyperelliptic", "s1f>0"))
    if q.use_delta and s1f <= g and s1f <= deg_f and krawtchouk_oracle(
        KrawtchoukQuery((deg_f - s1f) // 2 + 1, g, 2 * g - s1f)
    ) != 0:
        return BoundResult(half + 2, "RANK3-QUOTIENT-KRAWTCHOUK",
                           assumptions=(note, "krawtchouk-refinement"))
    return BoundResult(half + 3, "RANK3-QUOTIENT", assumptions=(note,))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=st.integers(2, 8), hyper=st.booleans())
def test_unstable_quotient_bound_is_the_unstable_bound(data, g, hyper):
    # with s1 < 0 <= s1f both bounds are the line bound of L plus the rank-2
    # bound of F; with delta off and sharpening as the curve's, F's rungs
    # agree, so wherever both answer their values are equal
    s1 = data.draw(st.integers(-4 * g, -1), label="s1")
    low = -(-s1 // 2)  # s1 <= 2*s2
    step = data.draw(st.integers(0, (3 * g - low) // 3), label="(s2 - least s2)/3")
    s2 = low + (2 * s1 - low) % 3 + 3 * step
    c = Curve(g, hyper)
    for d in range(s1, 6 * g - 5 - s1, 3):
        inv = BundleInvariants(3, d, (s1, s2))
        for s1f in range(suggested_min_s1f(inv), 2 * g, 2):
            assert s1 < 0 <= s1f
            q = Rank3Query(c, inv, s1f=s1f, use_hyperelliptic_sharpening=hyper)
            try:
                quotient = h0_prop21_bound(q)
            except HypothesisFailed:
                continue
            assert quotient.value == h0_rank3_unstable_bound(q).value, q


def test_hyperelliptic_sharpening_computes_no_coefficient(monkeypatch):
    # once the hyperelliptic guard lowers a bound, no Krawtchouk coefficient
    # is computed, though use_delta is on and its guard would hold
    def no_coefficient(*args):
        raise AssertionError("a Krawtchouk coefficient was computed")

    # the one name the bounds call, and the evaluation it reaches
    monkeypatch.setattr(bounds, "delta_vanishes", no_coefficient)
    monkeypatch.setattr(importlib.import_module("clifford3.krawtchouk"), "krawtchouk",
                        no_coefficient)
    assert h0_rank2_bound(Curve(3, True), 1, 1, use_delta=True).case == "RANK2-HYP"
    both = dict(use_delta=True, use_hyperelliptic_sharpening=True, hyperelliptic=True)
    q = rank3_query(3, 3, 0, 0, s1f=2, **both)
    assert h0_prop21_bound(q).case == "RANK3-QUOTIENT-SHARP"
    q = rank3_query(3, 4, 1, 2, s1f=1, **both)
    assert h0_rank3_semistable_bound(q).case == "RANK3-MAIN-SHARP"


_KRAWTCHOUK_CASES = {"RANK2-KRAWTCHOUK", "RANK3-QUOTIENT-KRAWTCHOUK"}


def _krawtchouk_case(r):
    return r.case in _KRAWTCHOUK_CASES or "krawtchouk-nonzero" in r.assumptions


@settings(max_examples=400, deadline=None)
@given(data=st.data(), g=st.integers(2, 12), hyper=st.booleans(), sharpen=st.booleans())
def test_krawtchouk_case_exactly_where_the_rank2_rule_holds(data, g, hyper, sharpen):
    # one rule, K_{(deg-t)/2+1}(g, 2g-t) != 0 with t <= g and t <= deg,
    # checked with the oracle: (deg, t) = (d, s1) at rank 2 and the
    # quotient's ((2d+s1)/3, s1f) at rank 3
    def rule(deg, t):
        return t <= g and t <= deg and krawtchouk_oracle(
            KrawtchoukQuery((deg - t) // 2 + 1, g, 2 * g - t)
        ) != 0

    c = Curve(g, hyper)
    s1 = data.draw(st.integers(0, 2 * g + 1), label="rank-2 s1")
    d = s1 + 2 * data.draw(st.integers(-1, 2 * g - s1), label="rank-2 (d-s1)/2")
    special = s1 <= d <= 4 * g - 4 - s1
    r = h0_rank2_bound(c, d, s1, use_delta=True)
    assert _krawtchouk_case(r) == (special and not (hyper and s1 > 0) and rule(d, s1)), r

    s1 = data.draw(st.integers(0, 2 * g), label="s1")
    s2 = (2 * s1) % 3 + 3 * data.draw(st.integers(0, 2 * g // 3), label="(s2 - 2s1 mod 3)/3")
    d = s1 + 3 * data.draw(st.integers(-1, 2 * g), label="(d-s1)/3")
    inv = BundleInvariants(3, d, (s1, s2))
    s1f = suggested_min_s1f(inv) + 2 * data.draw(st.integers(0, g + 2), label="s1f step")
    q = Rank3Query(c, inv, s1f=s1f, use_delta=True, use_hyperelliptic_sharpening=sharpen)
    deg = (2 * d + s1) // 3
    main = (
        s1 <= d <= 6 * g - 6 - s2
        and not (s2 > 2 * s1 and d < s2 - s1)
        and not (2 * s2 < s1 and d > 6 * g - 6 - (s1 - s2))
    )
    hyp_fired = sharpen and hyper and not s1 == s2 == 0
    r = h0_rank3_semistable_bound(q)
    assert _krawtchouk_case(r) == (main and not hyp_fired and rule(deg, s1f)), r
    if s1 <= 2 * s2 and 3 * s1f - s1 <= 2 * d <= 12 * g - 12 - 3 * s1f - s1 and d >= s1:
        hyp_fired = sharpen and hyper and s1f > 0
        r = h0_prop21_bound(q)
        assert _krawtchouk_case(r) == (not hyp_fired and rule(deg, s1f)), r


SS, UU = "UNSTABLE-SS-QUOTIENT", "UNSTABLE-UNSTABLE-QUOTIENT"


class TestUnstableBound:
    def test_semistable_quotient_value(self):
        q = rank3_query(4, 6, -3, 0, s1f=1)
        r = h0_rank3_unstable_bound(q)
        assert r.value == 5

    def test_rejects_semistable_input(self):
        with pytest.raises(NotUnstable):
            h0_rank3_unstable_bound(rank3_query(3, 6, 0, 0, s1f=0))

    def test_requires_s1f(self):
        with pytest.raises(MissingS1F):
            h0_rank3_unstable_bound(rank3_query(3, 4, -2, 2))

    def test_dual_reduction(self):
        g = 3
        c = Curve(g)
        inv = BundleInvariants(3, 4, (1, -1))
        dual = serre_dual(c, inv)
        assert dual.s[0] < 0
        direct = h0_rank3_unstable_bound(Rank3Query(c, inv, s1f=1))
        via_dual = h0_rank3_unstable_bound(Rank3Query(c, dual, s1f=1))
        assert direct.value == max(0, via_dual.value + inv.degree + 3 - 3 * g)
        assert "serre-dual-reduction" in direct.assumptions
        # s1f=3 is the dual's: its quotient degree (2*8-1)/3 = 5 is odd, while
        # the input's (2*4+4)/3 = 4 is even
        inv = BundleInvariants(3, 4, (4, -1))
        r = h0_rank3_unstable_bound(Rank3Query(c, inv, s1f=3))
        assert r.value == 3 == max(0, 5 + 4 + 3 - 3 * g)
        assert r.assumptions[-1] == "serre-dual-reduction"

    def test_vanishing_below_s1(self):
        r = h0_rank3_unstable_bound(rank3_query(3, -7, -4, 1, s1f=2))
        assert r.value == 0 and r.exact

    def test_unstable_quotient_value(self):
        # invariants of pencil^2 + (trivial + pencil) at genus 3: the line
        # part gives 3 and the quotient's two line parts 2 + 1, matching the
        # exact split count 3 + 1 + 2
        q = rank3_query(3, 6, -6, -6, s1f=-2)
        r = h0_rank3_unstable_bound(q)
        assert r.value == 6

    # one input per reachable (case, line part, quotient part) combination
    # with s1 < 0.  L has degree (d - s1)/3 and F degree (2d + s1)/3; for
    # s1f < 0, F's maximal line subbundle M has degree (deg F - s1f)/2 and
    # F/M degree (deg F + s1f)/2.  A line bundle of degree e gets 0 below 0,
    # e//2 + 1 up to 2g-2 and e + 1 - g above; F with s1f >= 0 gets the
    # rank-2 bound at (deg F, s1f).  "hyp" is a hyperelliptic curve.
    @pytest.mark.parametrize(
        "case, hyper, g, d, s1, s2, s1f, value, line, quotient",
        [
            # L deg 2: 2; F (0, 0): 0/2 + 2 = 2
            (SS, False, 2, 2, -4, -5, 0, 4, "CLIFFORD-LINE", "RANK2-CLIFFORD"),
            # hyp, L deg 1: 1; F (1, 1) with s1f > 0: 0/2 + 1 = 1
            (SS, True, 2, 2, -1, 1, 1, 2, "CLIFFORD-LINE", "RANK2-HYP"),
            # L deg 4: 3; F deg 7 > 4g-4-3 = 5: 7 + 2 - 6 = 3
            (SS, False, 3, 11, -1, -8, 3, 6, "CLIFFORD-LINE", "RR-EXACT"),
            # L deg 0: 1; F deg -6 < s1f: 0
            (SS, False, 2, -6, -6, -6, 0, 1, "CLIFFORD-LINE", "VANISHING"),
            # L deg 3: 3 + 1 - 2 = 2; F (0, 0): 2
            (SS, False, 2, 3, -6, -6, 0, 4, "RR-EXACT", "RANK2-CLIFFORD"),
            # hyp, L deg 3: 2; F (3, 1) with s1f > 0: 2/2 + 1 = 2
            (SS, True, 2, 6, -3, 0, 1, 4, "RR-EXACT", "RANK2-HYP"),
            # L deg 5: 4; F deg 4 > 4g-4-2 = 2: 4 + 2 - 4 = 2
            (SS, False, 2, 9, -6, -6, 2, 6, "RR-EXACT", "RR-EXACT"),
            # L deg 3: 2; F deg 0 < s1f: 0
            (SS, False, 2, 3, -6, -6, 2, 2, "RR-EXACT", "VANISHING"),
            # L deg 2: 2; M deg 1: 1, F/M deg 0: 1
            (UU, False, 2, 3, -3, -6, -1, 4, "CLIFFORD-LINE", "CLIFFORD-LINE+CLIFFORD-LINE"),
            # L deg 2: 2; M deg 0: 1, F/M deg -2: 0
            (UU, False, 2, 0, -6, -6, -2, 3, "CLIFFORD-LINE", "CLIFFORD-LINE+VANISHING"),
            # L deg 2: 2; M deg 3: 2, F/M deg 0: 1
            (UU, False, 2, 5, -1, -5, -3, 5, "CLIFFORD-LINE", "RR-EXACT+CLIFFORD-LINE"),
            # L deg 1: 1; M deg 3: 2, F/M deg -2: 0
            (UU, False, 2, 2, -1, -8, -5, 3, "CLIFFORD-LINE", "RR-EXACT+VANISHING"),
            # L deg 0: 1; M deg -2: 0, F/M deg -4: 0
            (UU, False, 2, -6, -6, -6, -2, 1, "CLIFFORD-LINE", "VANISHING+VANISHING"),
            # L deg 4: 3; M deg 2: 2, F/M deg 0: 1
            (UU, False, 2, 6, -6, -6, -2, 6, "RR-EXACT", "CLIFFORD-LINE+CLIFFORD-LINE"),
            # L deg 3: 2; M deg 1: 1, F/M deg -1: 0
            (UU, False, 2, 3, -6, -6, -2, 3, "RR-EXACT", "CLIFFORD-LINE+VANISHING"),
            # L deg 5: 4; M deg 3: 2, F/M deg 1: 1
            (UU, False, 2, 9, -6, -6, -2, 7, "RR-EXACT", "RR-EXACT+CLIFFORD-LINE"),
            # L deg 5: 4; M deg 4: 3, F/M deg 3: 2
            (UU, False, 2, 12, -3, -6, -1, 9, "RR-EXACT", "RR-EXACT+RR-EXACT"),
            # L deg 3: 2; M deg 3: 2, F/M deg -1: 0
            (UU, False, 2, 5, -4, -8, -4, 4, "RR-EXACT", "RR-EXACT+VANISHING"),
            # L deg 3: 2; M deg -1: 0, F/M deg -2: 0
            (UU, False, 2, 0, -9, -6, -1, 2, "RR-EXACT", "VANISHING+VANISHING"),
        ],
    )
    def test_every_branch(self, case, hyper, g, d, s1, s2, s1f, value, line, quotient):
        r = h0_rank3_unstable_bound(rank3_query(g, d, s1, s2, s1f=s1f, hyperelliptic=hyper))
        assert r == BoundResult(
            value, case, assumptions=(f"s1f={s1f}", f"line:{line}", f"quotient:{quotient}")
        )


class TestSplitWitnesses:
    """No bound falls below the h^0 of a sum of line bundles whose h^0 is
    known (``tests/witnesses.py``), at g = 2..8 on both curve types, with
    summand degrees in [-2g-2, 4g+2], with and without ``delta``: ``bound``
    at every rank, and the quotient bound at rank 3.  A result marked
    ``exact`` equals the h^0."""

    @pytest.mark.parametrize("rank, sums", [(1, 539), (2, 11851), (3, 191611)])
    def test_bound_is_at_least_h0(self, rank, sums):
        checked = 0
        for g in range(2, 9):
            for hyper in (False, True):
                c = Curve(g, hyper)
                for inv, s1f, h0 in split_sums(c, rank, range(-2 * g - 2, 4 * g + 3)):
                    for delta in (False, True):
                        r = bound(c, inv, s1f=s1f, delta=delta)
                        assert r.value >= h0, (c, inv, s1f, delta, h0, r)
                        assert not r.exact or r.value == h0, (c, inv, s1f, delta, h0, r)
                    checked += 1
        assert checked == sums

    def test_quotient_bound_is_at_least_h0(self):
        # h0_prop21_bound at every sum it accepts, with sharpening and delta
        # both ways; most sums are unstable (s1 < 0)
        calls = 0
        for g in range(2, 9):
            for hyper in (False, True):
                c = Curve(g, hyper)
                for inv, s1f, h0 in split_sums(c, 3, range(-2 * g - 2, 4 * g + 3)):
                    for delta, sharpen in product((False, True), repeat=2):
                        q = Rank3Query(c, inv, s1f=s1f, use_delta=delta,
                                       use_hyperelliptic_sharpening=sharpen)
                        try:
                            r = h0_prop21_bound(q)
                        except HypothesisFailed:
                            continue
                        assert r.value >= h0, (q, h0, r)
                        calls += 1
        assert calls == 20_860


def _outcome(fn, *args, **kwargs):
    """What a call returns, or the type, ``r`` and message of the exception it
    raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), getattr(exc, "r", None), str(exc)


class TestBound:
    """``bound`` equals the per-rank function, with hyperelliptic sharpening
    exactly on a hyperelliptic curve, and raises what it raises."""

    def test_examples(self):
        r = bound(Curve(3, hyperelliptic=True), BundleInvariants(3, 10, (1, 2)))
        assert (r.value, r.case) == (6, "RANK3-MAIN-SHARP")
        # s1 < 0
        r = bound(Curve(4), BundleInvariants(3, 6, (-3, 0)), s1f=1)
        assert r == h0_rank3_unstable_bound(rank3_query(4, 6, -3, 0, s1f=1))
        assert (r.value, r.case) == (5, "UNSTABLE-SS-QUOTIENT")
        # s2 < 0 <= s1: s1f is the twisted dual's; the dual's quotient (5, 3)
        # gets the rank-2 bound of the curve, hyperelliptic here
        r = bound(Curve(3, hyperelliptic=True), BundleInvariants(3, 4, (4, -1)), s1f=3)
        assert r == h0_rank3_unstable_bound(rank3_query(3, 4, 4, -1, s1f=3, hyperelliptic=True))
        assert (r.value, r.assumptions[2:]) == (2, ("quotient:RANK2-HYP", "serre-dual-reduction"))

    @given(
        g=st.integers(2, 6),
        hyper=st.booleans(),
        d=st.integers(-8, 40),
        s1f=st.one_of(st.none(), st.integers(-7, 7)),
        delta=st.booleans(),
    )
    def test_rank1(self, g, hyper, d, s1f, delta):
        c = Curve(g, hyper)
        r = bound(c, BundleInvariants(1, d), s1f=s1f, delta=delta)
        assert r == h0_line_bound(c, d)

    @given(
        g=st.integers(2, 6),
        hyper=st.booleans(),
        d=st.integers(-8, 30),
        s1=st.integers(-8, 14),
        s1f=st.one_of(st.none(), st.integers(-7, 7)),
        delta=st.booleans(),
    )
    def test_rank2(self, g, hyper, d, s1, s1f, delta):
        c = Curve(g, hyper)
        expected = _outcome(h0_rank2_bound, c, d, s1, use_delta=delta)
        actual = _outcome(
            lambda: bound(c, BundleInvariants(2, d, (s1,)), s1f=s1f, delta=delta)
        )
        assert actual == expected

    @pytest.mark.parametrize(
        "s1_range, s2_range, expected_bound",
        [
            ((0, 2), (0, 2), h0_rank3_semistable_bound),
            ((-2, -1), (-2, 2), h0_rank3_unstable_bound),  # s1 < 0
            ((0, 2), (-2, -1), h0_rank3_unstable_bound),  # s2 < 0 <= s1
        ],
        ids=["semistable", "s1<0", "s2<0<=s1"],
    )
    @given(data=st.data(), g=st.integers(2, 6), hyper=st.booleans(), delta=st.booleans())
    @settings(max_examples=300)
    def test_rank3(self, s1_range, s2_range, expected_bound, data, g, hyper, delta):
        # s_r in [lo*g, hi*g], where hi = -1 stands for -1 itself; s2 is moved
        # away from 0 to the residue of 2*s1 mod 3, keeping its sign
        (lo1, hi1), (lo2, hi2) = s1_range, s2_range
        s1 = data.draw(st.integers(lo1 * g, hi1 * g if hi1 >= 0 else -1))
        s2 = data.draw(st.integers(lo2 * g, hi2 * g if hi2 >= 0 else -1))
        s2 += (2 * s1 - s2) % 3 if s2 >= 0 else -((s2 - 2 * s1) % 3)
        d = s1 + 3 * data.draw(st.integers(-g, 2 * g + 1))
        s1f = data.draw(st.one_of(st.none(), st.integers(-g - 1, g + 1)))
        c = Curve(g, hyper)
        inv = BundleInvariants(3, d, (s1, s2))
        q_args = dict(s1f=s1f, use_delta=delta, use_hyperelliptic_sharpening=hyper)
        expected = _outcome(lambda: expected_bound(Rank3Query(c, inv, **q_args)))
        assert _outcome(bound, c, inv, s1f=s1f, delta=delta) == expected


class TestSlopeBound:
    def test_genus3_value(self):
        assert slope_bound(3, 5).value == 3

    def test_genus2_value(self):
        assert slope_bound(2, 5).value == 4

    def test_floor_vanishes(self):
        assert slope_bound(10, 3).value == 3

    def test_range_enforced(self):
        with pytest.raises(SlopeOutOfRange):
            slope_bound(3, 6)


def _rank3_points(max_genus):
    """(curve, inv, s1f, delta) at every congruence-valid rank-3 point with
    g <= max_genus, both curve types, s1, s2 in [-g, 3g] and d from s1 - 6
    to 6g - s2: semistable with s1f None (and with the least admissible s1f
    and delta), unstable with the least admissible s1f, with and without
    delta."""
    for g in range(2, max_genus + 1):
        for hyper in (False, True):
            c = Curve(g, hyper)
            for s1 in range(-g, 3 * g + 1):
                for s2 in range(-g, 3 * g + 1):
                    if (s2 - 2 * s1) % 3:
                        continue
                    for d in range(s1 - 6, 6 * g - s2 + 1, 3):
                        inv = BundleInvariants(3, d, (s1, s2))
                        if s1 >= 0 and s2 >= 0:
                            yield c, inv, None, False
                            yield c, inv, suggested_min_s1f(inv), True
                            continue
                        for delta in (False, True):
                            yield c, inv, suggested_min_s1f(inv), delta


def _bound_of_dual(c, inv, s1f):
    """The unstable bound of the twisted dual's own query, moved back by the
    Euler characteristic d + 3 - 3g."""
    r = h0_rank3_unstable_bound(Rank3Query(c, serre_dual(c, inv), s1f=s1f))
    value = max(0, r.value + inv.degree + 3 - 3 * c.genus)
    return BoundResult(value, r.case, r.exact, r.assumptions + ("serre-dual-reduction",))


class TestSerreDualPath:
    """s2 < 0 <= s1: s1f is the twisted dual's, checked by ``Rank3Query``."""

    def test_suggested_min_s1f_is_the_least_the_bound_accepts(self):
        points = 0
        for c, inv, s1f, delta in _rank3_points(8):
            s1, s2 = inv.s
            if delta or not s2 < 0 <= s1:
                continue
            assert isinstance(bound(c, inv, s1f=s1f), BoundResult)
            with pytest.raises(HypothesisFailed):
                bound(c, inv, s1f=s1f - 2)
            points += 1
        assert points == 5846

    def test_equals_the_bound_of_the_dual(self):
        # the differential's window: d in [-3, 6g], s1, s2 in [-g-1, 2g+1]
        seen = set()
        for g in range(2, 9):
            for hyper in (False, True):
                c = Curve(g, hyper)
                for d, s1, s2 in product(range(-3, 6 * g + 1), range(2 * g + 2), range(-g - 1, 0)):
                    if (s1 - d) % 3 or (s2 - 2 * d) % 3:
                        continue
                    inv = BundleInvariants(3, d, (s1, s2))
                    dual = serre_dual(c, inv)
                    for s1f in (None, *range(-g - 2, g + 3)):
                        direct = _outcome(
                            lambda: h0_rank3_unstable_bound(Rank3Query(c, inv, s1f=s1f))
                        )
                        expected = _outcome(_bound_of_dual, c, inv, s1f)
                        if isinstance(direct, BoundResult) or direct[0] is MissingS1F:
                            assert direct == expected, (c, inv, s1f)
                        else:  # the s1f rule judged on the dual, whose errors name it
                            assert direct[:2] == expected[:2], (c, inv, s1f)
                            assert direct[2].startswith(f"s1f={s1f} ")
                            assert direct[2].endswith(
                                f" of the twisted dual {(dual.degree, *dual.s)}"
                            )
                        seen.add(direct.case if isinstance(direct, BoundResult) else direct[0])
        # the dual's least s1f, (2*s1 - s2)/3, is positive: F is semistable
        assert seen == {
            "VANISHING", "RR-EXACT", SS, CongruenceViolation, HypothesisFailed, MissingS1F
        }


@st.composite
def _s1f_points(draw):
    """(curve, inv, s1f): congruence-valid rank-3 invariants at g <= 12 in
    both frames of s1f, with s1f in [-3g, 3g]."""
    g = draw(st.integers(2, 12))
    s1 = draw(st.integers(-3 * g, 3 * g))
    s2 = draw(st.integers(-3 * g, 3 * g).map(lambda s: s + (2 * s1 - s) % 3))
    k = draw(st.integers(-3, max(-3, (6 * g - s1 - s2) // 3 + 3)))
    inv = BundleInvariants(3, s1 + 3 * k, (s1, s2))
    return Curve(g, draw(st.booleans())), inv, draw(st.integers(-3 * g, 3 * g))


@settings(max_examples=500)
@given(point=_s1f_points())
def test_rank3_query_accepts_exactly_the_s1f_the_bound_accepts(point):
    c, inv, s1f = point
    query = _outcome(Rank3Query, c, inv, s1f=s1f)
    result = _outcome(bound, c, inv, s1f=s1f)
    if isinstance(query, Rank3Query):
        assert isinstance(result, BoundResult)
        assert s1f >= suggested_min_s1f(inv)
    else:  # the one s1f error, raised by both
        assert query[0] in (CongruenceViolation, HypothesisFailed)
        assert query[2].startswith(f"s1f={s1f} ") and result == query
    least = suggested_min_s1f(inv)
    assert isinstance(Rank3Query(c, inv, s1f=least), Rank3Query)
    for below in (least - 2, least - 1):
        assert not isinstance(_outcome(Rank3Query, c, inv, s1f=below), Rank3Query)


# The functions a bound call runs, from the line bound to the dispatch.
BOUND_PATH = (
    bounds._exact_tail, h0_line_bound, h0_rank2_bound, h0_rank3_semistable_bound,
    bounds._split_sum, h0_prop21_bound, h0_rank3_unstable_bound, bound, slope_bound,
)


def test_bound_path_calls_no_builtin_max_or_min():
    """The bound path compares instead: the builtin max and min cost several
    times a comparison on CPython up to 3.12 (see the ``bounds`` docstring)."""
    calling = [f.__name__ for f in BOUND_PATH if {"max", "min"} & set(f.__code__.co_names)]
    assert calling == []


class TestSharedResults:
    """The bound functions hand out one shared ``BoundResult`` per distinct
    value; a shared result is the result the functions would build afresh."""

    def test_equal_to_fresh_results(self, monkeypatch):
        points = list(_rank3_points(8))
        shared = [_outcome(bound, c, inv, s1f=s1f, delta=delta) for c, inv, s1f, delta in points]
        assert bounds._result.cache_info().hits > 0
        monkeypatch.setattr(bounds, "_result", BoundResult)  # build every result afresh
        for (c, inv, s1f, delta), r in zip(points, shared):
            assert _outcome(bound, c, inv, s1f=s1f, delta=delta) == r
            if isinstance(r, BoundResult):
                assert r == BoundResult(r.value, r.case, r.exact, r.assumptions)
                assert type(r.exact) is bool and type(r.assumptions) is tuple
        values = [r for r in shared if isinstance(r, BoundResult)]
        assert len(values) > 0.9 * len(shared)
        assert {r.case for r in values} >= {
            "VANISHING", "RR-EXACT", "RANK3-LINE-ONLY", "RANK3-LINE-ONLY-DUAL",
            "RANK3-MAIN", "RANK3-MAIN-SHARP", "UNSTABLE-SS-QUOTIENT",
            "UNSTABLE-UNSTABLE-QUOTIENT",
        }

    def test_cache_stays_within_its_size(self):
        maxsize = bounds._result.cache_info().maxsize
        distinct = {
            h0_rank2_bound(Curve(g), 2 * g - 2 + (g % 2), g % 2)
            for g in range(2, 2 * maxsize + 2)
        }
        assert len(distinct) > maxsize
        assert bounds._result.cache_info().currsize <= maxsize

    def test_equal_results_of_separate_calls(self):
        c, inv = Curve(5, True), BundleInvariants(3, 10, (1, 2))
        first = bound(c, inv)
        bounds._result.cache_clear()
        second = bound(c, inv)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        # two inputs with the same result share one instance
        other = bound(c, BundleInvariants(3, 10, (4, 5)))
        assert other == second and other is second

    def test_vanishing_is_one_constant(self):
        assert bound(Curve(4), BundleInvariants(3, 0, (3, 0))) is bounds.VANISHING
        assert h0_line_bound(Curve(4), -1) is bounds.VANISHING
        assert bounds.VANISHING == BoundResult(0, "VANISHING", exact=True)


# Each bound with an exact tail tests ``low <= d <= high`` inline and calls
# the tail only outside that special range.  These are the call sites;
# "rank3-degree" is the row of one degree in ``bounds.semistable_runs``.
TAIL_SITES = ("line", "rank2", "rank3", "rank3-degree", "unstable")


def _rank2_at(c, s1, delta, d):
    return h0_rank2_bound(c, d, s1, use_delta=delta)


def _rank3_at(site, c, s1, s2, d):
    sharp = c.hyperelliptic
    if site == "rank3-degree":  # the runs of a window around d, which never sharpen
        [row] = [r for r in _run_rows(c.genus, s1, s2, range(d - 9, d + 10, 3)) if r[0] == d]
        return BoundResult(*row[1:])
    inv = BundleInvariants(3, d, (s1, s2))
    if site == "unstable":
        return h0_rank3_unstable_bound(Rank3Query(c, inv, s1f=suggested_min_s1f(inv)))
    return h0_rank3_semistable_bound(Rank3Query(c, inv, use_hyperelliptic_sharpening=sharp))


def _special_ranges(site, g):
    """(n, low, high, bound at degree d) for each input of ``site`` at genus
    g whose special range [low, high] is not empty.  The rank n is the step
    between congruent degrees.  Rank-3 input has s1, s2 in [-2g, 2g], and
    s1 < 0 at the unstable site, whose tails it reads itself."""
    for c in (Curve(g), Curve(g, True)):
        if site == "line":
            yield 1, 0, 2 * g - 2, partial(h0_line_bound, c)
        elif site == "rank2":
            for s1, delta in product(range(2 * g - 1), (False, True)):
                yield 2, s1, 4 * g - 4 - s1, partial(_rank2_at, c, s1, delta)
        else:
            s1_range = range(-2 * g, 0) if site == "unstable" else range(2 * g + 1)
            s2_range = range(-2 * g, 2 * g + 1) if site == "unstable" else range(2 * g + 1)
            for s1, s2 in product(s1_range, s2_range):
                if (s2 - 2 * s1) % 3 == 0 and s1 <= 6 * g - 6 - s2:
                    yield 3, s1, 6 * g - 6 - s2, partial(_rank3_at, site, c, s1, s2)


@pytest.mark.parametrize("site", TAIL_SITES)
@pytest.mark.parametrize("g", range(2, 13))
def test_exact_tails_lie_outside_the_special_range(g, site):
    """At the nearest congruent degrees outside [low, high] the bound is the
    exact tail with its value; at low and high it is not a tail."""
    tails = ("VANISHING", "RR-EXACT")
    count = 0
    for n, low, high, at in _special_ranges(site, g):
        assert at(low - n) == BoundResult(0, "VANISHING", True)
        assert at(high + n) == BoundResult(max(0, high + n + n * (1 - g)), "RR-EXACT", True)
        assert at(low).case not in tails
        assert at(high).case not in tails
        count += 1
    assert count >= 2
