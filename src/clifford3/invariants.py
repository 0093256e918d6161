"""Curves, bundle invariants, Serre duality and line-bundle twists.

Everything here is an immutable value; operations are pure functions.

The engine's records derive from the private base :class:`_Record`, whose
one slot ``_values`` holds a record's field tuple.  Each record names its
fields in ``_fields`` and has a hand-written ``__init__``: it checks its
arguments first, then stores the whole tuple with one call of
:func:`_store`, because the record's ``__setattr__`` refuses every
assignment.  Each field reads as a read-only property.  The base class gives
equality and hashing over the field tuple, the ``repr``, pickling and
``_replace``.  The package does not import ``dataclasses``: that module,
with ``inspect``, and one decoration per record were most of the package's
import time.
"""
from __future__ import annotations

from .errors import CongruenceViolation, OutOfModeledRange, RankUnsupported


def _field(i: int) -> property:
    """The read-only property of a record's field ``i``."""
    return property(lambda self: self._values[i])


class _Record:
    """Base of the engine's immutable records.

    A subclass declares ``__slots__ = ()`` and lists two or more field names
    in ``_fields``, in the order of its ``__init__`` parameters; its
    ``__init__`` stores them once, as one tuple, with :func:`_store`.  Each
    field reads as a read-only property of that tuple.  Records of one class
    are equal when their field tuples are, and hash as that tuple.  The
    ``repr`` reads ``Name(field=value, ...)``.  Pickling and :meth:`_replace`
    build the new record through ``__init__``, so its checks run again.
    Assigning or deleting an attribute raises ``AttributeError``.

    A property read is a Python call, dearer than a slot read, so the
    engine's hot readers unpack ``rec._values`` once instead: every function
    of ``bounds`` and ``krawtchouk``, ``cli``'s ``bound`` line, ``elmtrans``
    lines and ``examples --family`` report, and the ``to_dict`` methods.
    ``elmtrans.trajectory`` unpacks it too, though no command runs it.
    Every other reader uses the public fields.
    """

    __slots__ = ("_values",)

    def __init_subclass__(cls):
        for i, name in enumerate(cls._fields):
            setattr(cls, name, _field(i))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = zip(self._fields, self._values)
        return f"{self.__class__.__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __reduce__(self):
        return self.__class__, self._values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        """A new record with ``changes`` applied, checked by ``__init__``."""
        return self.__class__(**dict(zip(self._fields, self._values), **changes))


# The ``__set__`` of the ``_values`` slot: each record's ``__init__`` stores its
# field tuple with one call of it, since ``__setattr__`` refuses assignment.
_store = _Record.__dict__["_values"].__set__


class Curve(_Record):
    """A smooth projective curve of genus >= 2, known only through its genus
    and whether it carries a degree-2 pencil (hyperelliptic)."""

    __slots__ = ()
    _fields = ("genus", "hyperelliptic")

    def __init__(self, genus: int, hyperelliptic: bool = False):
        if genus < 2:
            raise ValueError(f"genus must be >= 2, got {genus}")
        _store(self, (genus, hyperelliptic))

    @property
    def canonical_degree(self) -> int:
        return 2 * self.genus - 2


def _congruence_violation(n: int, d: int, r: int, sr: int) -> CongruenceViolation:
    """The error for s_r != r*d (mod n).  Callers test the congruence inline:
    a check function called for s_1 and s_2 would add about 0.08 us (two
    calls 0.18 us against 0.11 us inline) to a rank-3 construction that
    costs 0.45 us, some 5% of the 1.5 us validated bound call at a middle
    grid point (timeit, fastest of 15 rounds, shared 2-core x86_64, Python
    3.11.7)."""
    return CongruenceViolation(
        r, f"s_{r}={sr} is not congruent to {r}*d={r * d} mod {n}"
    )


class BundleInvariants(_Record):
    """Discrete invariants of a vector bundle: rank n in {1,2,3}, degree d and
    the stability degrees (s_1, ..., s_{n-1}).

    s_r is r*d minus n times the maximal degree of a rank-r subbundle, so
    s_r == r*d (mod n) for any actual bundle.  Construction checks the rank
    and these congruences, raising RankUnsupported or CongruenceViolation.
    Geometric existence of a bundle with these invariants is *not* checked;
    results downstream are conditional on existence.
    """

    __slots__ = ()
    _fields = ("rank", "degree", "s")

    def __init__(self, rank: int, degree: int, s: tuple[int, ...] = ()):
        if type(s) is not tuple:
            s = tuple(s)
        # rank 3 with two stability degrees, the hot case, is tested first
        # and pays only for its congruences; every other input meets the
        # rank checks in their order, so each error is the same
        if rank == 3 and len(s) == 2:
            s1, s2 = s
            if (s1 - degree) % rank:
                raise _congruence_violation(rank, degree, 1, s1)
            if (s2 - 2 * degree) % rank:
                raise _congruence_violation(rank, degree, 2, s2)
        elif rank not in (1, 2, 3):
            raise RankUnsupported(f"rank {rank} not supported")
        elif len(s) != rank - 1:
            raise RankUnsupported(
                f"rank {rank} needs {rank - 1} stability degrees, got {len(s)}"
            )
        elif rank == 2 and (s[0] - degree) % rank:
            raise _congruence_violation(rank, degree, 1, s[0])
        _store(self, (rank, degree, s))


def serre_dual(c: Curve, inv: BundleInvariants) -> BundleInvariants:
    """Invariants of the dual bundle twisted by the canonical bundle.

    Degree maps to n(2g-2) - d and the stability degrees reverse; applying
    twice is the identity.
    """
    return BundleInvariants(
        inv.rank,
        inv.rank * c.canonical_degree - inv.degree,
        tuple(reversed(inv.s)),
    )


def twist_by_line(inv: BundleInvariants, a: int) -> BundleInvariants:
    """Invariants after tensoring with a line bundle of degree a."""
    return BundleInvariants(inv.rank, inv.degree + inv.rank * a, inv.s)


def h0_hyperelliptic_power(c: Curve, a: int, extra_general_point: bool = False) -> int:
    """Exact section count of the a-th power of the degree-2 pencil.

    Returns a+1 for 0 <= a <= g-1 and 2a+1-g for a >= g.  With
    ``extra_general_point`` the bundle is twisted by a general point, which
    keeps the count at a+1 but is only modeled for a <= g-2.
    """
    if not c.hyperelliptic:
        raise ValueError("curve must be hyperelliptic")
    if a < 0:
        raise ValueError("exponent must be nonnegative")
    g = c.genus
    if extra_general_point:
        if a > g - 2:
            raise OutOfModeledRange(
                f"general-point twist modeled only for exponent <= g-2 = {g - 2}"
            )
        return a + 1
    if a <= g - 1:
        return a + 1
    return 2 * a + 1 - g


class BoundResult(_Record):
    """An upper bound on h^0 together with its provenance.

    ``exact`` means the value equals h^0 (forced by vanishing or by a zero
    h^1), not merely bounds it.  ``assumptions`` lists the optional
    hypotheses the bound consumed.

    The bound functions may return one shared instance for equal results,
    so callers compare results with ``==``, never with ``is``.
    """

    __slots__ = ()
    _fields = ("value", "case", "exact", "assumptions")

    def __init__(
        self, value: int, case: str, exact: bool = False, assumptions: tuple[str, ...] = ()
    ):
        if value < 0:
            raise ValueError(f"bound value must be nonnegative, got {value}")
        if type(assumptions) is not tuple:
            assumptions = tuple(assumptions)
        _store(self, (value, case, exact, assumptions))

    def to_dict(self) -> dict:
        value, case, exact, assumptions = self._values
        return {"value": value, "case": case, "exact": exact, "assumptions": list(assumptions)}
