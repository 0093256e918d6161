"""Input checks of the library that the other tests do not reach: each bad
input raises its documented error class."""
import pytest

from clifford3 import (
    BundleInvariants,
    Curve,
    FamilyAParams,
    FamilyCParams,
    Rank3Query,
    h0_hyperelliptic_power,
    slope_bound,
    suggested_min_s1f,
    unstable_sharpness,
)
from clifford3.errors import ParamsOutOfRange, RankUnsupported, UnrealizableF


def _rank2():
    return BundleInvariants(2, 4, (0,))


CASES = [
    ("Rank3Query-rank2", lambda: Rank3Query(Curve(4), _rank2()), RankUnsupported),
    ("suggested_min_s1f-rank2", lambda: suggested_min_s1f(_rank2()), RankUnsupported),
    ("slope_bound-genus1", lambda: slope_bound(1, 3), ValueError),
    (
        "h0_hyperelliptic_power-negative",
        lambda: h0_hyperelliptic_power(Curve(5, True), -1),
        ValueError,
    ),
    ("FamilyAParams-negative-n", lambda: FamilyAParams(5, -1, 0), ParamsOutOfRange),
    ("FamilyCParams-genus1", lambda: FamilyCParams(1, "E1", 0), ParamsOutOfRange),
    (
        "unstable_sharpness-degree-too-small",
        lambda: unstable_sharpness(Curve(5, True), 2, -4, 0),
        UnrealizableF,
    ),
    (
        "unstable_sharpness-line-below-pencil",
        lambda: unstable_sharpness(Curve(5, True), 5, 8, -4),
        ParamsOutOfRange,
    ),
]


@pytest.mark.parametrize(
    "call, error", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_bad_input_raises(call, error):
    with pytest.raises(error):
        call()
