"""Input checks of the library that the other tests do not reach: each bad
input raises its documented error class."""
import pytest

from clifford3 import (
    BundleInvariants,
    Curve,
    ElmState,
    Rank3Query,
    certified_ranks,
    family_a,
    family_b,
    family_c,
    h0_hyperelliptic_power,
    seed_state_lemma36,
    slope_bound,
    suggested_min_s1f,
    unstable_sharpness,
)
from clifford3.errors import ParamsOutOfRange, RankUnsupported, UnrealizableF


def _rank2():
    return BundleInvariants(2, 4, (0,))


def _rank3():
    return BundleInvariants(3, 3, (0, 0))


CASES = [
    ("Rank3Query-rank2", lambda: Rank3Query(Curve(4), _rank2()), RankUnsupported),
    ("suggested_min_s1f-rank2", lambda: suggested_min_s1f(_rank2()), RankUnsupported),
    ("slope_bound-genus1", lambda: slope_bound(1, 3), ValueError),
    (
        "h0_hyperelliptic_power-negative",
        lambda: h0_hyperelliptic_power(Curve(5, True), -1),
        ValueError,
    ),
    ("family_a-negative-n", lambda: family_a(5, -1, 0), ParamsOutOfRange),
    ("family_b-genus1", lambda: family_b(1, 2), ParamsOutOfRange),
    ("family_c-genus1", lambda: family_c(1, "E1", 0), ParamsOutOfRange),
    (
        "unstable_sharpness-degree-too-small",
        lambda: unstable_sharpness(5, 2, -4, 0),
        UnrealizableF,
    ),
    (
        "unstable_sharpness-line-below-pencil",
        lambda: unstable_sharpness(5, 5, 8, -4),
        ParamsOutOfRange,
    ),
    ("ElmState-no-bound-tuples", lambda: ElmState(_rank3(), ()), ValueError),
    ("ElmState-one-tuple-too-many", lambda: ElmState(_rank3(), ((), (), ())), ValueError),
    (
        "certified_ranks-negative-m",
        lambda: certified_ranks(seed_state_lemma36(Curve(3), 3), -1),
        ValueError,
    ),
]


@pytest.mark.parametrize(
    "call, error", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_bad_input_raises(call, error):
    with pytest.raises(error):
        call()
