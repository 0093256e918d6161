"""The engine records against test-only dataclass declarations.

``Reference`` keeps the seven records as they were declared with
``dataclasses``: the generated ``__init__``, ``__repr__`` and ``__hash__``,
with a ``__post_init__`` check.  The package imports neither it nor
``dataclasses``.  The property draws each record's arguments positionally
and by keyword and builds both: they must give equal fields, ``repr`` and
hash, or raise the same exception type with the same ``.r`` and message.
"""
import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from clifford3 import (
    BoundResult,
    BundleInvariants,
    Curve,
    ElmState,
    ExampleReport,
    KrawtchoukQuery,
    Rank3Query,
    family_a,
)
from clifford3.errors import (
    CongruenceViolation,
    HypothesisFailed,
    RankUnsupported,
)
from clifford3.invariants import _congruence_violation


class Reference:
    """The seven records with the generated ``__init__`` (test-only)."""

    @dataclasses.dataclass(frozen=True, slots=True)
    class Curve:
        genus: int
        hyperelliptic: bool = False

        def __post_init__(self):
            if self.genus < 2:
                raise ValueError(f"genus must be >= 2, got {self.genus}")

    @dataclasses.dataclass(frozen=True, slots=True)
    class BundleInvariants:
        rank: int
        degree: int
        s: tuple[int, ...] = ()

        def __post_init__(self):
            n, d, s = self.rank, self.degree, self.s
            if type(s) is not tuple:
                s = tuple(s)
                object.__setattr__(self, "s", s)
            if n not in (1, 2, 3):
                raise RankUnsupported(f"rank {n} not supported")
            if len(s) != n - 1:
                raise RankUnsupported(
                    f"rank {n} needs {n - 1} stability degrees, got {len(s)}"
                )
            if n == 3:
                s1, s2 = s
                if (s1 - d) % n:
                    raise _congruence_violation(n, d, 1, s1)
                if (s2 - 2 * d) % n:
                    raise _congruence_violation(n, d, 2, s2)
            elif n == 2 and (s[0] - d) % n:
                raise _congruence_violation(n, d, 1, s[0])

    @dataclasses.dataclass(frozen=True, slots=True)
    class BoundResult:
        value: int
        case: str
        exact: bool = False
        assumptions: tuple[str, ...] = ()

        def __post_init__(self):
            if self.value < 0:
                raise ValueError(f"bound value must be nonnegative, got {self.value}")
            if type(self.assumptions) is not tuple:
                object.__setattr__(self, "assumptions", tuple(self.assumptions))

    @dataclasses.dataclass(frozen=True, slots=True)
    class Rank3Query:
        curve: Curve
        inv: BundleInvariants
        s1f: int | None = None
        use_delta: bool = False
        use_hyperelliptic_sharpening: bool = False

        def __post_init__(self):
            if self.inv.rank != 3:
                raise RankUnsupported("rank-3 query requires rank 3 invariants")
            if self.s1f is None:
                return
            d, (s1, s2) = self.inv.degree, self.inv.s
            dual = s2 < 0 <= s1  # then s1f is the twisted dual's
            if dual:
                d, s1, s2 = 6 * self.curve.genus - 6 - d, s2, s1
            named = f" of the twisted dual {(d, s1, s2)}" if dual else ""
            deg_f = (2 * d + s1) // 3
            least = -((s1 - 2 * s2) // 3)  # ceil((2*s2 - s1)/3)
            least += (least - deg_f) % 2
            if (self.s1f - deg_f) % 2 != 0:
                raise CongruenceViolation(
                    1, f"s1f={self.s1f} must have the parity of the quotient degree {deg_f}{named}"
                )
            if self.s1f < least:
                forced = "(2*s2-s1)/3 forced by s2"  # in the input's s1 and s2
                if dual:
                    forced = f"{(2 * s2 - s1) // 3} = (2*s1-s2)/3 forced by s1, as s1f"
                raise HypothesisFailed(f"s1f={self.s1f} is below the minimum {forced}{named}")

    @dataclasses.dataclass(frozen=True, slots=True)
    class KrawtchoukQuery:
        r: int
        n: int
        N: int

        def __post_init__(self):
            if self.r < 0 or self.n < 0 or self.N < 0:
                raise ValueError("r, n, N must be nonnegative")
            if self.n > self.N:
                raise ValueError(f"need n <= N, got n={self.n}, N={self.N}")

    @dataclasses.dataclass(frozen=True, slots=True)
    class ElmState:
        inv: BundleInvariants
        sb_dim_upper: tuple[tuple[int, ...], ...]
        step_count: int = 0

        def __post_init__(self):
            object.__setattr__(
                self, "sb_dim_upper", tuple(tuple(b) for b in self.sb_dim_upper)
            )
            if len(self.sb_dim_upper) != self.inv.rank - 1:
                raise ValueError(
                    f"need {self.inv.rank - 1} bound tuples for rank {self.inv.rank}"
                )

    @dataclasses.dataclass(frozen=True, slots=True)
    class ExampleReport:
        family: str
        curve: Curve
        inv: BundleInvariants
        exact_h0: int
        bound: BoundResult
        params: tuple[tuple[str, int | str], ...] = ()
        slope: BoundResult | None = None
        notes: tuple[str, ...] = ()

        def __post_init__(self):
            object.__setattr__(self, "params", tuple(self.params))
            object.__setattr__(self, "notes", tuple(self.notes))
            if self.exact_h0 > self.bound.value:
                raise ValueError(
                    f"exact h0 {self.exact_h0} exceeds the bound {self.bound.value}"
                )


RECORDS = [
    Curve, BundleInvariants, BoundResult, Rank3Query, KrawtchoukQuery, ElmState, ExampleReport,
]
IDS = [cls.__name__ for cls in RECORDS]


@st.composite
def _call(draw, params):
    """(args, kwargs) for ``params``, a list of (name, strategy, required):
    a drawn number of leading arguments positionally, the rest by keyword
    in a drawn order, each optional one possibly left out."""
    n_pos = draw(st.integers(0, len(params)))
    args = tuple(draw(strategy) for _, strategy, _ in params[:n_pos])
    kwargs = [
        (name, draw(strategy))
        for name, strategy, required in params[n_pos:]
        if required or draw(st.booleans())
    ]
    return args, dict(draw(st.permutations(kwargs)))


@st.composite
def _stability_degrees(draw, rank, degree):
    """Stability degrees as a tuple or a list, mostly rank - 1 of them; at
    ranks 2 and 3 each one is moved onto its congruence class with even
    odds."""
    size = draw(st.one_of(st.just(max(rank - 1, 0)), st.integers(0, 3)))
    s = [draw(st.integers(-12, 12)) for _ in range(size)]
    if rank in (2, 3):
        for r, sr in enumerate(s[: rank - 1], start=1):
            if draw(st.booleans()):
                s[r - 1] = sr - (sr - r * degree) % rank
    return draw(st.sampled_from([tuple, list]))(s)


@st.composite
def _inv_call(draw):
    rank = draw(st.one_of(st.just(3), st.integers(0, 4)))
    degree = draw(st.integers(-12, 24))
    return draw(_call([
        ("rank", st.just(rank), True),
        ("degree", st.just(degree), True),
        ("s", _stability_degrees(rank, degree), False),
    ]))


@st.composite
def _valid_inv(draw, ranks=(1, 2, 3)):
    """A BundleInvariants of one of ``ranks``, s2 < 0 <= s1 included."""
    rank, d = draw(st.sampled_from(ranks)), draw(st.integers(-12, 24))
    s = [draw(st.integers(-6, 12)) for _ in range(rank - 1)]
    return BundleInvariants(rank, d, tuple(sr - (sr - r * d) % rank for r, sr in enumerate(s, 1)))


@st.composite
def _query_call(draw):
    """Rank3Query arguments; s1f is None, any small integer, or near the
    least admissible one (the twisted dual's for s2 < 0 <= s1), so both
    parities and values below it occur."""
    inv = draw(st.one_of(_valid_inv((3,)), _valid_inv()))
    near = st.nothing()
    if inv.rank == 3:
        s1, s2 = inv.s
        if s2 < 0 <= s1:  # the twisted dual's least
            s1, s2 = s2, s1
        near = st.integers(-6, 6).map(lambda k: k - (s1 - 2 * s2) // 3)
    return draw(_call([
        ("curve", st.builds(Curve, st.integers(2, 8), st.booleans()), True),
        ("inv", st.just(inv), True),
        ("s1f", st.one_of(st.none(), st.integers(-12, 14), near), False),
        ("use_delta", st.booleans(), False),
        ("use_hyperelliptic_sharpening", st.booleans(), False),
    ]))


SMALL = st.integers(-3, 10)


def _list_or_tuple(lists):
    """Each drawn list as it is or as a tuple."""
    return lists.flatmap(lambda b: st.sampled_from([b, tuple(b)]))


CALLS = {
    "Curve": _call([("genus", st.integers(-3, 8), True), ("hyperelliptic", st.booleans(), False)]),
    "BundleInvariants": _inv_call(),
    "BoundResult": _call([
        ("value", SMALL, True),
        ("case", st.sampled_from(["RANK3-MAIN", "RR-EXACT", ""]), True),
        ("exact", st.booleans(), False),
        ("assumptions", _list_or_tuple(st.lists(st.sampled_from(["a", "b"]), max_size=2)), False),
    ]),
    "Rank3Query": _query_call(),
    "KrawtchoukQuery": _call([("r", SMALL, True), ("n", SMALL, True), ("N", SMALL, True)]),
    "ElmState": _call([
        ("inv", _valid_inv(), True),
        ("sb_dim_upper", _list_or_tuple(
            st.lists(_list_or_tuple(st.lists(SMALL, max_size=3)), max_size=3)), True),
        ("step_count", SMALL, False),
    ]),
    "ExampleReport": _call([
        ("family", st.sampled_from(["a", "unstable"]), True),
        ("curve", st.builds(Curve, st.integers(2, 8), st.booleans()), True),
        ("inv", _valid_inv(), True),
        ("exact_h0", SMALL, True),
        ("bound", st.builds(BoundResult, st.integers(0, 8), st.just("RANK3-MAIN")), True),
        ("params", _list_or_tuple(st.lists(st.tuples(st.sampled_from("nkm"), SMALL))), False),
        ("slope", st.none() | st.builds(BoundResult, st.integers(0, 8), st.just("SLOPE")), False),
        ("notes", _list_or_tuple(st.lists(st.sampled_from(["x", "y"]), max_size=2)), False),
    ]),
}


def _outcome(cls, args, kwargs):
    try:
        rec = cls(*args, **kwargs)
    except Exception as exc:  # the exception is the outcome compared
        return ("raised", type(exc), getattr(exc, "r", None), str(exc))
    names = getattr(rec, "_fields", rec.__slots__)  # a reference names its fields in __slots__
    values = [(type(v), v) for v in (getattr(rec, name) for name in names)]
    # every record turns its sequences into tuples, so each one built hashes
    return ("built", values, repr(rec).removeprefix("Reference."), hash(rec))


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_matches_the_generated_init(cls, data):
    args, kwargs = data.draw(CALLS[cls.__name__])
    reference = getattr(Reference, cls.__name__)
    assert _outcome(cls, args, kwargs) == _outcome(reference, args, kwargs)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_signature_lists_the_fields(cls):
    # a field added without an __init__ parameter, or a default changed, fails here
    params = inspect.signature(cls).parameters.values()
    assert tuple(p.name for p in params) == cls._fields
    assert [(p.name, p.default, p.kind) for p in params] == [
        (
            f.name,
            inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        )
        for f in dataclasses.fields(getattr(Reference, cls.__name__))
    ]


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_init_is_the_class_own(cls):
    # per-layer tracing wraps cls.__dict__["__init__"]
    assert inspect.isfunction(cls.__dict__["__init__"])
    assert "__post_init__" not in cls.__dict__


def _inv():
    return BundleInvariants(3, 6, (0, 0))


# a record, a change that keeps it valid, and one its checks reject
REPLACE = [
    (Curve(4, True), {"genus": 5}, {"genus": 1}, ValueError),
    (_inv(), {"degree": 9, "s": [3, 0]}, {"degree": 7}, CongruenceViolation),
    (BoundResult(3, "RANK3-MAIN"), {"assumptions": ["x"]}, {"value": -1}, ValueError),
    (Rank3Query(Curve(4), _inv(), s1f=2), {"s1f": 4}, {"s1f": 3}, CongruenceViolation),
    (KrawtchoukQuery(2, 3, 6), {"n": 6}, {"n": 7}, ValueError),
    (ElmState(_inv(), ((0, 1), ())), {"step_count": 5}, {"sb_dim_upper": ()}, ValueError),
    (family_a(5, 0, 1), {"notes": ("x",)}, {"exact_h0": 8}, ValueError),
]


@pytest.mark.parametrize("rec, change, bad, error", REPLACE, ids=IDS)
def test_replace_checks_and_stores(rec, change, bad, error):
    new = rec._replace(**change)
    fields = {name: getattr(rec, name) for name in rec._fields}
    assert new == type(rec)(**{**fields, **change}) != rec
    with pytest.raises(error):
        rec._replace(**bad)


@pytest.mark.parametrize("rec", [r[0] for r in REPLACE], ids=IDS)
def test_pickle_round_trip(rec):
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec and hash(back) == hash(rec) and repr(back) == repr(rec)
    # the pickle holds the class and the field values, so loading re-runs __init__
    assert rec.__reduce__() == (type(rec), tuple(getattr(rec, name) for name in rec._fields))


def _refusal(act):
    try:
        act()
    except AttributeError as exc:  # FrozenInstanceError is an AttributeError
        return str(exc)
    return None


@pytest.mark.parametrize("rec", [r[0] for r in REPLACE], ids=IDS)
def test_assignment_refused_as_before(rec):
    fields = {name: getattr(rec, name) for name in rec._fields}
    ref = getattr(Reference, type(rec).__name__)(**fields)
    for name in rec._fields:
        for obj in (rec, ref):
            assert _refusal(lambda: setattr(obj, name, 0)) == f"cannot assign to field {name!r}"
            assert _refusal(lambda: delattr(obj, name)) == f"cannot delete field {name!r}"
    # a slotted dataclass raised TypeError from super() for any other name
    assert _refusal(lambda: setattr(rec, "extra", 0)) == "cannot assign to field 'extra'"
    assert _refusal(lambda: delattr(rec, "extra")) == "cannot delete field 'extra'"
    assert {name: getattr(rec, name) for name in rec._fields} == fields
