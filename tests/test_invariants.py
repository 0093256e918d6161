import pytest
from hypothesis import given, strategies as st

from clifford3 import (
    BoundResult,
    BundleInvariants,
    Curve,
    Rank3Query,
    h0_hyperelliptic_power,
    serre_dual,
    twist_by_line,
)
from clifford3.errors import (
    CongruenceViolation,
    HypothesisFailed,
    OutOfModeledRange,
    RankUnsupported,
)


class TestCurve:
    def test_canonical_degree(self):
        assert Curve(3).canonical_degree == 4

    def test_rejects_small_genus(self):
        with pytest.raises(ValueError):
            Curve(1)


class TestValidate:
    """Construction validates the rank and the congruences."""

    def test_accepts_valid_rank3(self):
        BundleInvariants(3, 5, (2, 1))

    def test_rejects_congruence_violation(self):
        with pytest.raises(CongruenceViolation) as exc:
            BundleInvariants(3, 5, (1, 1))
        assert exc.value.r == 1

    def test_accepts_rank1(self):
        BundleInvariants(1, 7, ())

    def test_rejects_rank4(self):
        with pytest.raises(RankUnsupported):
            BundleInvariants(4, 0, (0, 0, 0))

    def test_rejects_wrong_s_length(self):
        with pytest.raises(RankUnsupported):
            BundleInvariants(3, 0, (0,))


# every class of invalid input to the two validated records: the call, the
# exception type, its ``r`` (None where the type has none) and its message
INVALID = [
    ("rank0", lambda: BundleInvariants(0, 0, ()), RankUnsupported, None,
     "rank 0 not supported"),
    ("rank0-with-s", lambda: BundleInvariants(0, 0, (0,)), RankUnsupported, None,
     "rank 0 not supported"),
    ("rank4", lambda: BundleInvariants(4, 0, (0, 0, 0)), RankUnsupported, None,
     "rank 4 not supported"),
    ("rank1-one-s", lambda: BundleInvariants(1, 0, (0,)), RankUnsupported, None,
     "rank 1 needs 0 stability degrees, got 1"),
    ("rank2-no-s", lambda: BundleInvariants(2, 0, ()), RankUnsupported, None,
     "rank 2 needs 1 stability degrees, got 0"),
    ("rank3-one-s", lambda: BundleInvariants(3, 0, (0,)), RankUnsupported, None,
     "rank 3 needs 2 stability degrees, got 1"),
    ("list-one-s", lambda: BundleInvariants(3, 5, [2]), RankUnsupported, None,
     "rank 3 needs 2 stability degrees, got 1"),
    ("list-congruence", lambda: BundleInvariants(3, 5, [1, 1]), CongruenceViolation, 1,
     "s_1=1 is not congruent to 1*d=5 mod 3"),
    ("rank2-r1", lambda: BundleInvariants(2, 3, (0,)), CongruenceViolation, 1,
     "s_1=0 is not congruent to 1*d=3 mod 2"),
    ("rank3-r1", lambda: BundleInvariants(3, 5, (1, 1)), CongruenceViolation, 1,
     "s_1=1 is not congruent to 1*d=5 mod 3"),
    ("rank3-r2", lambda: BundleInvariants(3, 5, (2, 2)), CongruenceViolation, 2,
     "s_2=2 is not congruent to 2*d=10 mod 3"),
    ("rank3-r1-before-r2", lambda: BundleInvariants(3, 5, (0, 0)), CongruenceViolation, 1,
     "s_1=0 is not congruent to 1*d=5 mod 3"),
    ("query-rank2", lambda: Rank3Query(Curve(4), BundleInvariants(2, 4, (0,))),
     RankUnsupported, None, "rank-3 query requires rank 3 invariants"),
    ("query-rank2-with-s1f",
     lambda: Rank3Query(Curve(4), BundleInvariants(2, 4, (0,)), s1f=3),
     RankUnsupported, None, "rank-3 query requires rank 3 invariants"),
    ("query-s1f-parity",
     lambda: Rank3Query(Curve(4), BundleInvariants(3, 6, (0, 0)), s1f=3),
     CongruenceViolation, 1, "s1f=3 must have the parity of the quotient degree 4"),
    ("query-s1f-parity-before-minimum",
     lambda: Rank3Query(Curve(4), BundleInvariants(3, 4, (1, 5)), s1f=0),
     CongruenceViolation, 1, "s1f=0 must have the parity of the quotient degree 3"),
    ("query-s1f-below-minimum",
     lambda: Rank3Query(Curve(4), BundleInvariants(3, 4, (1, 5)), s1f=1),
     HypothesisFailed, None, "s1f=1 is below the minimum (2*s2-s1)/3 forced by s2"),
    # s2 < 0 <= s1: judged on the twisted dual (35, -1, 4), whose quotient
    # degree is 23; the input's is 14
    ("query-dual-s1f-parity",
     lambda: Rank3Query(Curve(10), BundleInvariants(3, 19, (4, -1)), s1f=2),
     CongruenceViolation, 1,
     "s1f=2 must have the parity of the quotient degree 23 of the twisted dual (35, -1, 4)"),
    ("query-dual-s1f-below-minimum",
     lambda: Rank3Query(Curve(10), BundleInvariants(3, 19, (4, -1)), s1f=1),
     HypothesisFailed, None,
     "s1f=1 is below the minimum 3 = (2*s1-s2)/3 forced by s1, as s1f of the twisted dual "
     "(35, -1, 4)"),
]


@pytest.mark.parametrize(
    "call, error, r, message", [c[1:] for c in INVALID], ids=[c[0] for c in INVALID]
)
def test_invalid_input_error(call, error, r, message):
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is error
    assert getattr(info.value, "r", None) == r
    assert str(info.value) == message


def test_s1f_of_the_twisted_dual_is_checked_when_the_query_is_built():
    # for s2 < 0 <= s1, s1f describes the twisted dual's quotient, and the
    # input's own rule would judge each of these s1f the other way
    c, inv = Curve(10), BundleInvariants(3, 19, (4, -1))
    assert Rank3Query(c, inv, s1f=3).s1f == 3  # the input's parity of 14 refuses it
    with pytest.raises(CongruenceViolation, match=r"twisted dual \(35, -1, 4\)"):
        Rank3Query(c, inv, s1f=-2)  # the input's least, -2, with its parity
    with pytest.raises(HypothesisFailed, match=r"twisted dual \(14, -1, 1\)"):
        Rank3Query(Curve(4), BundleInvariants(3, 4, (1, -1)), s1f=-7)


class TestSerreDual:
    def test_swaps_stability_degrees(self):
        dual = serre_dual(Curve(3), BundleInvariants(3, 10, (1, 2)))
        assert dual == BundleInvariants(3, 2, (2, 1))

    def test_symmetric_point(self):
        dual = serre_dual(Curve(2), BundleInvariants(3, 6, (0, 0)))
        assert dual.degree == 0 and dual.s == (0, 0)

    @given(
        g=st.integers(2, 6),
        d=st.integers(-12, 12),
        s1=st.integers(-12, 12),
        s2=st.integers(-12, 12),
    )
    def test_involution_and_congruence_preservation(self, g, d, s1, s2):
        if (s1 - d) % 3 or (s2 - 2 * d) % 3:
            return
        c = Curve(g)
        inv = BundleInvariants(3, d, (s1, s2))
        dual = serre_dual(c, inv)  # the constructor checks the congruences
        assert serre_dual(c, dual) == inv

    def test_rank2_involution(self):
        c = Curve(4)
        inv = BundleInvariants(2, 7, (1,))
        assert serre_dual(c, serre_dual(c, inv)) == inv


class TestTwistByLine:
    def test_rank2_degree_bookkeeping(self):
        inv = BundleInvariants(2, 2, (2,))
        assert twist_by_line(inv, 4) == BundleInvariants(2, 10, (2,))

    def test_twist_zero_is_identity(self):
        inv = BundleInvariants(3, 4, (1, 2))
        assert twist_by_line(inv, 0) == inv

    def test_rank3_twist(self):
        inv = BundleInvariants(3, 4, (1, 2))
        assert twist_by_line(inv, 2) == BundleInvariants(3, 10, (1, 2))

    @given(a=st.integers(-10, 10))
    def test_s_unchanged(self, a):
        inv = BundleInvariants(3, 5, (2, 1))
        assert twist_by_line(inv, a).s == inv.s


class TestHyperellipticPower:
    def test_special_range(self):
        assert h0_hyperelliptic_power(Curve(5, True), 3) == 4

    def test_general_point(self):
        assert h0_hyperelliptic_power(Curve(2, True), 0, extra_general_point=True) == 1

    def test_nonspecial(self):
        assert h0_hyperelliptic_power(Curve(3, True), 4) == 6

    def test_general_point_out_of_range(self):
        with pytest.raises(OutOfModeledRange):
            h0_hyperelliptic_power(Curve(3, True), 2, extra_general_point=True)

    def test_requires_hyperelliptic(self):
        with pytest.raises(ValueError):
            h0_hyperelliptic_power(Curve(3), 1)

    @pytest.mark.parametrize("g", [2, 3, 5, 8])
    def test_nondecreasing_and_euler_tail(self, g):
        c = Curve(g, True)
        values = [h0_hyperelliptic_power(c, a) for a in range(3 * g)]
        assert values == sorted(values)
        for a in range(g, 3 * g):
            assert values[a] == 2 * a + 1 - g


class TestBoundResult:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BoundResult(-1, "VANISHING")

    def test_to_dict_roundtrip(self):
        r = BoundResult(4, "RANK3-MAIN", exact=False, assumptions=("x",))
        d = r.to_dict()
        assert d == {"value": 4, "case": "RANK3-MAIN", "exact": False, "assumptions": ["x"]}
        assert BoundResult(d["value"], d["case"], d["exact"], tuple(d["assumptions"])) == r
