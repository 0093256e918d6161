"""The engine's frozen value records: immutable, compared and hashed by
value, without a per-instance ``__dict__``."""
import pytest

from clifford3 import (
    BoundResult,
    BundleInvariants,
    Curve,
    ElmState,
    ExampleReport,
    KrawtchoukQuery,
    Rank3Query,
    family_a,
    seed_state_lemma36,
)


def _inv():
    return BundleInvariants(3, 6, (0, 0))


# a builder of equal, separately built instances of each record, and a
# field of it to assign to
RECORDS = [
    (lambda: Curve(4, True), "genus"),
    (_inv, "degree"),
    (lambda: BoundResult(3, "RANK3-MAIN", assumptions=["x"]), "value"),
    (lambda: Rank3Query(Curve(4), _inv(), s1f=2, use_delta=True), "s1f"),
    (lambda: family_a(5, 0, 1), "exact_h0"),
    (lambda: KrawtchoukQuery(2, 3, 6), "r"),
    (lambda: seed_state_lemma36(Curve(3), 3), "step_count"),
]
IDS = [f"{build().__class__.__name__}.{name}" for build, name in RECORDS]


@pytest.mark.parametrize("build, name", RECORDS, ids=IDS)
def test_frozen(build, name):
    rec = build()
    with pytest.raises(AttributeError):
        setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        delattr(rec, name)
    assert rec == build()


@pytest.mark.parametrize("build, name", RECORDS, ids=IDS)
def test_equal_values_compare_and_hash_equal(build, name):
    a, b = build(), build()
    assert a is not b and a == b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("build, name", RECORDS, ids=IDS)
def test_field_tuple_hashes_alike_but_is_not_equal(build, name):
    rec = build()
    values = tuple(getattr(rec, field) for field in rec._fields)
    assert rec != values and values != rec
    assert hash(rec) == hash(values)  # the hash is the field tuple's


@pytest.mark.parametrize("build, name", RECORDS, ids=IDS)
def test_slotted(build, name):
    assert not hasattr(build(), "__dict__")


# each record built from arguments, all distinct, of the types it stores
STORED = [
    (Curve, (4, True)),
    (BundleInvariants, (3, 6, (0, 0))),
    (BoundResult, (3, "RANK3-MAIN", True, ("x",))),
    (Rank3Query, (Curve(4), _inv(), 2, True, False)),
    (KrawtchoukQuery, (2, 3, 6)),
    (ElmState, (_inv(), ((1, 2), ()), 5)),
    (ExampleReport, ("a", Curve(5, True), _inv(), 3, BoundResult(4, "X"), (("n", 0),), None, ("y",))),
]


@pytest.mark.parametrize("cls, args", STORED, ids=[cls.__name__ for cls, _ in STORED])
def test_one_slot_holds_the_fields(cls, args):
    rec = cls(*args)
    assert cls.__dict__["__slots__"] == ()
    assert not hasattr(rec, "__dict__")
    assert rec._values == tuple(getattr(rec, f) for f in rec._fields)
    assert rec._values == args  # each field is stored in its own place
    for f in rec._fields:
        prop = cls.__dict__[f]
        assert isinstance(prop, property) and prop.fset is None and prop.fdel is None


def test_sequences_become_tuples():
    assert BundleInvariants(3, 6, [0, 0]).s == (0, 0)
    assert BoundResult(3, "X", assumptions=["a", "b"]).assumptions == ("a", "b")


def test_replace_on_rank3_query():
    q = Rank3Query(Curve(4), BundleInvariants(3, 6, (0, 0)), s1f=2)
    dual = q._replace(inv=BundleInvariants(3, 12, (0, 0)))
    assert dual.inv.degree == 12 and dual.s1f == 2 and dual.curve == q.curve
    assert q.inv.degree == 6
    with pytest.raises(TypeError, match="unexpected keyword argument 'genus'"):
        q._replace(genus=5)


def test_elm_state_bookkeeping_is_part_of_the_value():
    st = seed_state_lemma36(Curve(3), 3)
    with pytest.raises(TypeError):
        st.sb_dim_upper[0] = (99,)
    with pytest.raises(TypeError):
        st.sb_dim_upper[0][0] = 99
    other = ElmState(st.inv, ((99,), ()), st.step_count)
    assert st != other
    assert {st: 1}[seed_state_lemma36(Curve(3), 3)] == 1


def test_elm_state_sequences_become_tuples():
    inv = BundleInvariants(3, 3, (0, 0))
    a, b = ElmState(inv, [[1, 2], ()]), ElmState(inv, ((1, 2), ()))
    assert a == b and hash(a) == hash(b)
    assert a.sb_dim_upper == ((1, 2), ()) and type(a.sb_dim_upper[0]) is tuple
    with pytest.raises(TypeError):
        a.sb_dim_upper[0] = (99,)
    with pytest.raises(TypeError):
        a.sb_dim_upper[0][0] = 99
    assert a.upper(1, 0) == 1


def test_elm_state_keeps_a_tuple_of_tuples():
    inv = BundleInvariants(3, 3, (0, 0))
    sb = ((1, 3, 5), ())
    assert ElmState(inv, sb).sb_dim_upper is sb
    # any list, outside or inside, is still copied into tuples
    for given in ([(1, 3, 5), ()], ((1, 3, 5), []), [[1, 3, 5], []]):
        st = ElmState(inv, given)
        assert st.sb_dim_upper == sb and st.sb_dim_upper is not given
        assert all(type(b) is tuple for b in st.sb_dim_upper)
        assert st == ElmState(inv, sb) and hash(st) == hash(ElmState(inv, sb))
