import itertools
import json
from contextlib import redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

from clifford3 import (
    BundleInvariants,
    Curve,
    ElmState,
    certified_ranks,
    generic_sequence,
    s2_lower_bound_track,
    seed_state_lemma36,
    seed_state_rank3_extended,
    step,
    trajectory,
)
from clifford3 import cli, elmtrans
from clifford3.errors import HypothesisUnverifiable, RankUnsupported


class TestStep:
    def test_miss_raises_each_sr(self):
        st0 = ElmState(BundleInvariants(3, 3, (0, 0)), ((), ()))
        st1 = step(st0, (False, False))
        assert st1.inv == BundleInvariants(3, 4, (1, 2))
        assert st1.step_count == 1

    def test_hit_lowers_sr(self):
        st0 = ElmState(BundleInvariants(3, 4, (1, 2)), ((), ()))
        st1 = step(st0, (False, True))
        assert st1.inv == BundleInvariants(3, 5, (2, 1))

    def test_rank2_step(self):
        st0 = ElmState(BundleInvariants(2, 2, (0,)), ((),))
        assert step(st0, (False,)).inv == BundleInvariants(2, 3, (1,))
        assert step(st0, (True,)).inv == BundleInvariants(2, 3, (-1,))

    def test_equal_states_hash_equal(self):
        a, b = seed_state_lemma36(Curve(3), 3), seed_state_lemma36(Curve(3), 3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, step(a, (False, False))}) == 2

    def test_choice_arity_checked(self):
        with pytest.raises(ValueError):
            step(ElmState(BundleInvariants(3, 3, (0, 0)), ((), ())), (False,))

    def test_miss_updates_dimension_bounds(self):
        st0 = ElmState(BundleInvariants(3, 3, (0, 0)), ((), (0, 2, 2)))
        st1 = step(st0, (False, False))
        # containing the chosen line imposes n-r = 1 condition
        assert st1.upper(2, 0) == max(0, 2 - 1) == 1
        assert st1.upper(2, 1) == max(2, 2 - 1) == 2
        assert st1.upper(2, 2) is None  # no (2, 3) information to push down

    def test_hit_forgets_dimension_bounds(self):
        st0 = ElmState(BundleInvariants(3, 3, (0, 0)), ((), (0, 2)))
        st1 = step(st0, (False, True))
        assert st1.upper(2, 0) is None and st1.upper(2, 1) is None

    @settings(max_examples=100)
    @given(bits=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=8))
    def test_congruence_preserved_along_any_walk(self, bits):
        state = ElmState(BundleInvariants(3, 3, (0, 0)), ((), ()))
        for b in bits:
            state = step(state, b)  # BundleInvariants validates inside
            d = state.inv.degree
            assert (state.inv.s[0] - d) % 3 == 0
            assert (state.inv.s[1] - 2 * d) % 3 == 0


@st.composite
def drawn_states(draw):
    """A rank-2 or rank-3 state with drawn dimension bounds: each bound is
    the previous one plus an increment from -3 to n-r+2, so some ranks rise
    by more than n-r somewhere and the rule's maxima move, others not."""
    n = draw(st.sampled_from((2, 3)))
    d = draw(st.integers(-6, 12))
    s = [r * d + n * draw(st.integers(-3, 3)) for r in range(1, n)]
    bounds = []
    for r in range(1, n):
        b = [draw(st.integers(-3, 6))]
        for inc in draw(st.lists(st.integers(-3, n - r + 2), max_size=8)):
            b.append(b[-1] + inc)
        bounds.append(tuple(b[: draw(st.integers(0, len(b)))]))
    return ElmState(BundleInvariants(n, d, s), bounds, draw(st.integers(0, 5)))


def literal_step(state, hits):
    """The rule of :func:`step`, written out entry by entry."""
    n = state.inv.rank
    s, bounds = [], []
    for r in range(1, n):
        b = state.sb_dim_upper[r - 1]
        if hits[r - 1]:
            s.append(state.inv.s[r - 1] - (n - r))
            bounds.append(())
        else:
            s.append(state.inv.s[r - 1] + r)
            bounds.append(tuple(max(b[i], b[i + 1] - (n - r)) for i in range(len(b) - 1)))
    return ElmState(BundleInvariants(n, state.inv.degree + 1, s), bounds, state.step_count + 1)


class TestStepRule:
    @settings(max_examples=300, deadline=None)
    @given(start=drawn_states(), data=st.data())
    def test_step_is_the_literal_rule(self, start, data):
        state = start
        for _ in range(data.draw(st.integers(1, 6))):
            hits = data.draw(st.tuples(*[st.booleans()] * (state.inv.rank - 1)))
            new = step(state, hits)
            assert new == literal_step(state, hits)
            assert all(type(b) is tuple for b in new.sb_dim_upper)
            state = new

    def test_both_branches_of_a_miss(self):
        # rank 3, r = 1 reads n - r = 2: rises of at most 2 keep every bound
        st0 = ElmState(BundleInvariants(3, 3, (0, 0)), ((1, 3, 5, 4), (0, 2, 2)))
        st1 = step(st0, (False, False))
        assert st1.sb_dim_upper == ((1, 3, 5), (1, 2))
        assert st1 == literal_step(st0, (False, False))


class TestTrajectory:
    """``trajectory`` and ``generic_sequence`` walk the rule on plain values
    and build no record per step; they must give what iterated :func:`step`
    gives, record for record."""

    @settings(max_examples=300, deadline=None)
    @given(
        start=drawn_states(),
        hit_rate=st.sampled_from((0.0, 0.1, 0.5, 1.0)),
        data=st.data(),
    )
    def test_walk_is_iterated_step(self, start, hit_rate, data):
        # ``step`` is one step of ``trajectory``'s own loop, so the walk is
        # also checked against ``literal_step``, the rule written apart
        n = start.inv.rank
        choices = [
            tuple(data.draw(st.floats(0, 1)) < hit_rate for _ in range(n - 1))
            for _ in range(data.draw(st.integers(0, 30)))
        ]
        self._walks_agree(start, choices)
        for d, s, _ in trajectory(start, choices):
            # the by-construction argument: every walked state passes the
            # checks that step's BundleInvariants would run
            assert BundleInvariants(n, d, s).s == s

    @settings(max_examples=300, deadline=None)
    @given(start=drawn_states(), data=st.data())
    def test_generic_sequence_is_iterated_step(self, start, data):
        # m runs up to one past the longest certified sequence, and is 0
        # only when no sequence is certified
        most = 0
        while certified_ranks(start, most + 1):  # ends past the longest tuple
            most += 1
        m = data.draw(st.integers(min(1, most), most + 1))
        if m > most:
            with pytest.raises(HypothesisUnverifiable):
                generic_sequence(start, m)
            return
        state = start
        for _ in range(m):
            state = step(state, (False,) * (start.inv.rank - 1))
        assert generic_sequence(start, m) == state

    @pytest.mark.parametrize("n", [2, 3])
    def test_generic_sequence_from_the_seeds(self, n):
        for g in range(2, 9):
            start = seed_state_lemma36(Curve(g), n)
            state = start
            for m in range(g + 1):
                assert generic_sequence(start, m) == state
                state = step(state, (False,) * (n - 1))

    def test_non_flat_start_turns_flat(self):
        # a rise above n-r makes the first miss take the rule's maxima; the
        # result rises by at most n-r, so later misses drop the last entry
        start = ElmState(BundleInvariants(2, 2, (0,)), ((0, 3, 3, 4, 5),))
        walk = trajectory(start, [(False,)] * 6)
        assert [sb for _, _, sb in walk] == [
            ((0, 3, 3, 4, 5),), ((2, 3, 3, 4),), ((2, 3, 3),), ((2, 3),), ((2,),), ((),), ((),),
        ]
        start = ElmState(BundleInvariants(3, 3, (0, 0)), ((0, 3, 3, 4, 5), (0, 2, 2)))
        walk = trajectory(start, [(False, False)] * 6)
        assert walk == [
            (3, (0, 0), ((0, 3, 3, 4, 5), (0, 2, 2))),
            (4, (1, 2), ((1, 3, 3, 4), (1, 2))),
            (5, (2, 4), ((1, 3, 3), (1,))),
            (6, (3, 6), ((1, 3), ())),
            (7, (4, 8), ((1,), ())),
            (8, (5, 10), ((), ())),
            (9, (6, 12), ((), ())),
        ]
        state = start
        for d, s, sb in walk[1:]:
            state = step(state, (False, False))
            assert (state.inv.degree, state.inv.s, state.sb_dim_upper) == (d, s, sb)

    @staticmethod
    def _walks_agree(start, choices):
        """The walk equals iterated ``step`` and iterated ``literal_step``."""
        by_step, by_rule = [start], [start]
        for hits in choices:
            by_step.append(step(by_step[-1], hits))
            by_rule.append(literal_step(by_rule[-1], hits))
        assert by_step == by_rule
        walk = trajectory(start, choices)
        assert walk == [(x.inv.degree, x.inv.s, x.sb_dim_upper) for x in by_step]
        return [sb for _, _, sb in walk]

    def test_flat_tuple_runs_past_its_length_then_hits_then_misses(self):
        # on a flat tuple each miss before the first hit drops the last
        # entry, past the length the tuple stays (), and the hit and every
        # step after it give ()
        start = ElmState(BundleInvariants(2, 2, (0,)), ((0, 1, 2),))
        choices = [(False,)] * 5 + [(True,)] + [(False,)] * 2
        assert self._walks_agree(start, choices) == [
            ((0, 1, 2),), ((0, 1),), ((0,),), ((),), ((),), ((),), ((),), ((),), ((),),
        ]
        # rank 3: rank 1 reads rises of at most 2, rank 2 of at most 1; rank 2
        # hits first, while rank 1 still runs out of entries
        start = ElmState(BundleInvariants(3, 3, (0, 0)), ((1, 3, 5), (0, 1, 2, 3)))
        choices = [(False, False), (False, True), (False, False), (False, False),
                   (True, False), (False, False)]
        assert self._walks_agree(start, choices) == [
            ((1, 3, 5), (0, 1, 2, 3)),
            ((1, 3), (0, 1, 2)),
            ((1,), ()),
            ((), ()),
            ((), ()),
            ((), ()),
            ((), ()),
        ]

    def test_hit_on_a_tuple_that_is_not_flat(self):
        # a hit gives () whatever the tuple's rises, and so does every later step
        start = ElmState(BundleInvariants(3, 3, (0, 0)), ((0, 5, 5), (0, 4)))
        assert self._walks_agree(start, [(True, True), (False, False)]) == [
            ((0, 5, 5), (0, 4)), ((), ()), ((), ()),
        ]
        assert self._walks_agree(start, [(False, True), (False, False), (False, False)]) == [
            ((0, 5, 5), (0, 4)), ((3, 5), ()), ((3,), ()), ((), ()),
        ]

    def test_extended_seed_rank2_turns_flat(self):
        # the extended seed's rank-2 (0, 2) rises by 2 > n - r = 1: its first
        # miss takes the rule's maxima and gives the flat (1,), which the next
        # miss cuts to (); rank 1 is flat from the start
        start = seed_state_rank3_extended(Curve(4))
        choices = [(False, False), (False, False), (True, False), (False, True)]
        assert self._walks_agree(start, choices) == [
            ((1, 3, 5, 7), (0, 2)),
            ((1, 3, 5), (1,)),
            ((1, 3), ()),
            ((), ()),
            ((), ()),
        ]
        walk = self._walks_agree(start, [(False, True), (False, False)])
        assert [sb[1] for sb in walk] == [(0, 2), (), ()]

    @pytest.mark.parametrize("start", [
        seed_state_lemma36(Curve(4), 3),
        # not flat at either rank: each first miss takes the rule's maxima, then
        # rank 2 and later rank 1 run into a hit
        ElmState(BundleInvariants(3, 3, (0, 0)), ((0, 5, 5, 9), (0, 4))),
    ])
    def test_int_choices_read_by_truth(self, start):
        # choices are read by their truth, so 1 and 0 give what True and False give
        as_bools = [(False, False), (False, True), (True, False), (False, False)]
        as_ints = [tuple(map(int, hits)) for hits in as_bools]
        walk = self._walks_agree(start, as_bools)
        assert trajectory(start, as_ints) == trajectory(start, as_bools)
        assert walk[2][1] == walk[3][0] == ()
        by_ints = by_bools = start
        for ints, bools in zip(as_ints, as_bools):
            by_ints, by_bools = step(by_ints, ints), step(by_bools, bools)
            assert by_ints == by_bools

    @pytest.mark.parametrize("bad", [(), (False,), (False, True, False)])
    def test_wrong_choice_length_is_steps_error(self, bad):
        start = seed_state_rank3_extended(Curve(4))
        with pytest.raises(ValueError) as by_step:
            step(start, bad)
        with pytest.raises(ValueError) as by_walk:
            trajectory(start, [(False, False), bad])
        assert str(by_walk.value) == str(by_step.value) == "need 2 choices for rank 3"

    def test_empty_walk_is_the_start(self):
        start = seed_state_lemma36(Curve(3), 2)
        assert trajectory(start, []) == [(2, (0,), ((0, 1, 2),))]

    def test_rank1_walk_raises_only_the_degree(self):
        # a rank-1 state has no s_r and no bound tuple; each step of its walk
        # is the empty choice and raises the degree by 1
        start = ElmState(BundleInvariants(1, 3), ())
        assert trajectory(start, [(), (), ()]) == [(3, (), ()), (4, (), ()), (5, (), ()), (6, (), ())]
        assert trajectory(start, []) == [(3, (), ())]
        assert step(start, ()) == ElmState(BundleInvariants(1, 4), (), 1)
        with pytest.raises(ValueError, match="need 0 choices for rank 1"):
            step(start, (False,))


class TestSeeds:
    def test_rank3_seed_values(self):
        c = Curve(3)
        st0 = seed_state_lemma36(c, 3)
        assert st0.inv == BundleInvariants(3, 3, (0, 0))
        assert st0.upper(1, 0) == 1  # n - 2
        assert st0.upper(1, 1) == 3
        assert st0.upper(1, 2) == 5
        assert st0.upper(1, 3) is None  # only g entries recorded

    def test_rank2_seed_values(self):
        st0 = seed_state_lemma36(Curve(2), 2)
        assert st0.inv == BundleInvariants(2, 2, (0,))
        assert st0.upper(1, 0) == 0

    def test_extended_seed_adds_rank2_data(self):
        st0 = seed_state_rank3_extended(Curve(4))
        assert st0.upper(2, 0) == 0 and st0.upper(2, 1) == 2
        assert st0.upper(1, 0) == 1

    def test_rank_restriction(self):
        with pytest.raises(RankUnsupported):
            seed_state_lemma36(Curve(3), 4)


class TestCliSeeds:
    """``clifford3 elmtrans`` walks only the seeds of ``cli._seed`` and reads
    their bounds as flat: each step's s from ``elmtrans._s_column`` and its
    bounds as the seed's first entries, as many as ``elmtrans._lengths``
    gives, with no rule's maxima run.  Both closed forms are checked here
    against ``trajectory``."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_walkable_seed_is_flat(self, n):
        # the entry is built afresh, past the cache, for every genus the CLI accepts
        for g in range(2, cli.MAX_ELMTRANS_GENUS + 1):
            lines, *rest = cli._seed.__wrapped__(n, g)[0].sb_dim_upper
            assert len(lines) == g
            assert {v - u for u, v in zip(lines, lines[1:])} == {n - 1}
            assert rest == [()] * (n - 2)

    @settings(max_examples=300, deadline=None)
    @given(
        start=drawn_states(),
        hit_rate=st.sampled_from((0.0, 0.1, 0.5, 1.0)),
        data=st.data(),
    )
    def test_closed_forms_are_the_walk(self, start, hit_rate, data):
        # ``_s_column`` gives each rank's s_r and ``_lengths`` its tuple's
        # length at every state of the walk, from any start
        n = start.inv.rank
        bits = "".join(
            "1" if data.draw(st.floats(0, 1)) < hit_rate else "0"
            for _ in range(data.draw(st.integers(0, 30)) * (n - 1))
        )
        choices = [tuple(map(int, bits[k : k + n - 1])) for k in range(0, len(bits), n - 1)]
        walk = trajectory(start, choices)
        for r in range(1, n):
            ranks_bits = bits[r - 1 :: n - 1]
            assert list(elmtrans._s_column(n, r, start.inv.s[r - 1], ranks_bits)) == [
                s[r - 1] for _, s, _ in walk
            ]
            assert list(elmtrans._lengths(len(start.sb_dim_upper[r - 1]), ranks_bits)) == [
                len(sb[r - 1]) for _, _, sb in walk
            ]

    @pytest.mark.parametrize("rank, bits", [
        (2, "0001000"),
        # rank 1 misses 4 of its 5 bounds away, then hits; rank 2 misses, then hits
        (3, "0001000110000100"),
    ])
    def test_cli_walk_bytes_are_trajectory_rows(self, rank, bits):
        steps = len(bits) // (rank - 1)
        start = seed_state_lemma36(Curve(5), rank)
        choices = [tuple(map(int, bits[k : k + rank - 1])) for k in range(0, len(bits), rank - 1)]
        expected = "".join(
            json.dumps({
                "step": j, "rank": rank, "d": d, "s": list(s),
                "sb_dim_upper": {f"{r},{i}": v for r, b in enumerate(sb, 1) for i, v in enumerate(b)},
            }) + "\n"
            for j, (d, s, sb) in enumerate(trajectory(start, choices))
        )
        out = StringIO()
        with redirect_stdout(out):
            argv = ["elmtrans", "--rank", str(rank), "--genus", "5", "--steps", str(steps)]
            assert cli.main(argv + ["--choices", bits]) == 0
        assert out.getvalue() == expected


class TestCertifiedRanks:
    def test_line_rank_certified_up_to_genus(self):
        c = Curve(4)
        st0 = seed_state_lemma36(c, 3)
        # (i+1)*2 - 1 < (i+1)*2 holds for every recorded i
        assert 1 in certified_ranks(st0, c.genus)
        assert 1 not in certified_ranks(st0, c.genus + 1)
        assert 2 not in certified_ranks(st0, 1)  # no rank-2 data in the base seed

    def test_extended_seed_certifies_rank2_one_step(self):
        st0 = seed_state_rank3_extended(Curve(4))
        assert certified_ranks(st0, 1) == frozenset({1, 2})
        # (2,1) = 2 fails the strict bound 2*(3-2) = 2 for a second step
        assert certified_ranks(st0, 2) == frozenset({1})


class TestGenericSequence:
    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    def test_s1_equals_m(self, g):
        c = Curve(g)
        for m in range(1, g + 1):
            out = generic_sequence(seed_state_lemma36(c, 3), m)
            assert out.inv.s[0] == m
            assert out.inv.degree == 3 + m

    def test_m_zero_is_identity(self):
        c = Curve(3)
        st0 = seed_state_lemma36(c, 3)
        assert generic_sequence(st0, 0) is st0

    def test_uncertified_m_raises(self):
        c = Curve(3)
        with pytest.raises(HypothesisUnverifiable):
            generic_sequence(seed_state_lemma36(c, 3), c.genus + 1)

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            generic_sequence(seed_state_lemma36(Curve(3), 3), -1)


class TestS2Track:
    def test_table(self):
        assert [s2_lower_bound_track(m) for m in range(7)] == [0, 2, 1, 0, 2, 1, 3]

    def test_congruence_with_degree(self):
        # after m steps the degree is 3 + m, so s2 must be congruent to
        # 2*(3+m) = 2m mod 3
        for m in range(40):
            assert (s2_lower_bound_track(m) - 2 * m) % 3 == 0

    def test_even_m_gives_half(self):
        for m in range(2, 40, 2):
            assert s2_lower_bound_track(m) == m // 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            s2_lower_bound_track(-1)


class TestTwoStepBookkeeping:
    def test_miss_then_hit_reaches_the_two_step_witness(self):
        # one general step from the extended seed raises s2 to 2; a second
        # step hitting a maximal rank-2 subbundle brings it down to 1
        c = Curve(3)
        st0 = seed_state_rank3_extended(c)
        st1 = step(st0, (False, False))
        assert st1.inv.s == (1, 2)
        assert st1.inv.s[1] == s2_lower_bound_track(1)
        st2 = step(st1, (False, True))
        assert st2.inv.s == (2, 1)

    def test_exhaustive_walks_preserve_congruence(self):
        # every choice walk of length <= 4 from the extended seed keeps the
        # stability degrees in their congruence classes
        c = Curve(6)
        choices = list(itertools.product((False, True), repeat=2))
        frontier = [seed_state_rank3_extended(c)]
        for _ in range(4):
            frontier = [step(state, ch) for state in frontier for ch in choices]
            for state in frontier:
                d = state.inv.degree
                assert (state.inv.s[0] - d) % 3 == 0
                assert (state.inv.s[1] - 2 * d) % 3 == 0
