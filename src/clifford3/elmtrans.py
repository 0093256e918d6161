"""Invariant-level calculus of elementary transformations.

A single transformation raises the degree by 1 and moves each stability
degree s_r by exactly -(n-r) or +r, depending on whether the chosen line in
the fibre lies in a maximal rank-r subbundle.  A step's choice is a tuple of
n-1 bools, one per rank r = 1..n-1, True on a hit.  Families of rank-r
subbundles of degree (maximal - i) are tracked only through integer upper
bounds on their dimension, one tuple per rank holding the bounds for
i = 0, 1, ...; a bound past the end of its rank's tuple is unknown.

:func:`trajectory` writes the rule once, a step at a time, on plain values:
a miss adds r to s_r and each bound i becomes max(b[i], b[i+1] - (n-r)), a
hit takes n - r from s_r and leaves no bound.  :func:`step` is the checked
last state of a one-step trajectory, and :func:`generic_sequence` the last
state of an all-miss walk.  ``cli.cmd_elmtrans`` walks only the split seeds,
whose rank-1 bounds rise by exactly n - 1 and whose rank-3 seed knows no
rank-2 bound, so a miss keeps every bound but the last: it reads the closed
forms of the rule on such a seed, ``_s_column`` and ``_lengths``, and cuts
each step's text from the seed's by length.
"""
from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, chain, repeat

from .errors import HypothesisUnverifiable, RankUnsupported
from .invariants import BundleInvariants, Curve, _Record, _store


class ElmState(_Record):
    """Bundle invariants plus dimension bookkeeping for subbundle families.

    ``sb_dim_upper`` holds one tuple per rank r = 1..n-1, and
    ``sb_dim_upper[r-1][i]`` is an upper bound on the dimension of the
    family of rank-r subbundles of degree (maximal - i).  Only the bounds
    for i = 0, 1, ... up to the first unknown one are kept, so a rank with
    no known bound has the empty tuple.  The state is an immutable value:
    the bookkeeping is stored as tuples whatever sequences it is given (a
    tuple of tuples is kept as it is), it is part of the equality and hash,
    and steps return fresh states.
    """

    __slots__ = ()
    _fields = ("inv", "sb_dim_upper", "step_count")

    def __init__(
        self,
        inv: BundleInvariants,
        sb_dim_upper: tuple[tuple[int, ...], ...],
        step_count: int = 0,
    ):
        if type(sb_dim_upper) is not tuple or not all(
            [type(b) is tuple for b in sb_dim_upper]
        ):
            sb_dim_upper = tuple([tuple(b) for b in sb_dim_upper])
        if len(sb_dim_upper) != inv.rank - 1:
            raise ValueError(f"need {inv.rank - 1} bound tuples for rank {inv.rank}")
        _store(self, (inv, sb_dim_upper, step_count))

    def upper(self, r: int, i: int) -> int | None:
        bounds = self.sb_dim_upper[r - 1] if 0 < r < self.inv.rank else ()
        return bounds[i] if 0 <= i < len(bounds) else None


def _s_column(n: int, r: int, s_r: int, bits: str) -> Iterator[int]:
    """s_r at the start and after each step of a rank-n walk whose choices
    for rank r are the string ``bits``, "1" a hit and "0" a miss: the closed
    form of :func:`trajectory`'s s_r, which ``cli`` reads."""
    return accumulate(map({"0": r, "1": r - n}.__getitem__, bits), initial=s_r)


def _lengths(size: int, bits: str) -> Iterator[int]:
    """The length of one rank's bound tuple at the start, ``size``, and after
    each step of its choices ``bits``, as :func:`trajectory` gives it: it
    falls by one a step until the first hit or 0, then stays 0.  On a split
    seed, whose bounds rise by exactly n - 1, each tuple is the seed's first
    entries, so ``cli`` cuts each step's text from the seed's to this
    length."""
    first_hit = bits.find("1")
    if first_hit < 0:
        first_hit = len(bits)
    falls = min(first_hit + 1, size)
    return chain(range(size, size - falls, -1), repeat(0, len(bits) + 1 - falls))


def step(st: ElmState, hits: tuple[bool, ...]) -> ElmState:
    """Apply one elementary transformation; ``hits[r-1]`` is True when the
    chosen line lies in the fibre of a maximal rank-r subbundle.

    Degree rises by 1.  On a miss, s_r gains r and the dimension bound for
    (r, i) becomes max(old(r, i), old(r, i+1) - (n-r)), since containing the
    chosen line imposes n-r conditions, so a rank's tuple loses its last
    entry; on a hit, s_r drops by n-r and the bounds for that rank become
    unknown (there is no rule for that branch).  The result is the last
    state of a one-step :func:`trajectory`, built as a checked record with
    one tuple per rank 1..n-1.
    """
    d, s, sb = trajectory(st, (hits,))[-1]
    return ElmState(BundleInvariants(st.inv.rank, d, s), sb, st.step_count + 1)


def trajectory(
    start: ElmState, choices
) -> list[tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """``(degree, s, sb_dim_upper)`` of ``start`` and of each later state
    when the choices are applied in turn, as :func:`step` would give them.

    Every choice's length is checked first; one of the wrong length raises
    ``ValueError``.  Each step then applies the rule to every rank r, whose
    entry of the choice is read by its truth: a miss adds r to s_r and each
    bound i becomes max(b[i], b[i+1] - (n-r)), so the tuple loses its last
    entry; a hit takes n - r from s_r and gives ``()``.  The states are plain
    values, not records, and are not checked again: a step raises the
    degree by 1 and moves s_r by r or -(n-r), so s_r stays congruent to
    r*d mod n and ``start``'s checks hold for every state.
    """
    inv, sb, _ = start._values
    n, d, s = inv._values
    choices = list(choices)
    if set(map(len, choices)) - {n - 1}:
        raise ValueError(f"need {n - 1} choices for rank {n}")
    walk = [(d, s, sb)]
    for hits in choices:
        d += 1
        s = tuple([s_r - (n - r) if hit else s_r + r for r, s_r, hit in zip(range(1, n), s, hits)])
        # a list gives tuple() the exact length; a generator makes it shrink a
        # larger tuple, which fills CPython's tuple free lists (~4 MB)
        sb = tuple([
            () if hit else tuple([max(u, v - (n - r)) for u, v in zip(b, b[1:])])
            for r, b, hit in zip(range(1, n), sb, hits)
        ])
        walk.append((d, s, sb))
    return walk


def certified_ranks(start: ElmState, m: int) -> frozenset[int]:
    """Ranks r whose recorded dimension bounds verify the genericity
    hypotheses dim < (i+1)(n-r) for i = 0, ..., m-1."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    n = start.inv.rank
    good = set()
    for r in range(1, n):
        b = start.sb_dim_upper[r - 1]
        if all(i < len(b) and b[i] < (i + 1) * (n - r) for i in range(m)):
            good.add(r)
    return frozenset(good)


def generic_sequence(start: ElmState, m: int) -> ElmState:
    """m general transformations: the m-fold composition of :func:`step`
    with the all-miss choice.

    At least one rank must have dimension bounds certifying the genericity
    hypotheses for all m steps; for those ranks the resulting s_r equals
    start plus m*r.  Ranks without certificates are still stepped with the
    all-miss choice, but their values carry no guarantee (use
    :func:`certified_ranks` to tell them apart).
    """
    if m == 0:
        return start
    if not certified_ranks(start, m):
        raise HypothesisUnverifiable(
            f"no rank has dimension bounds certifying {m} generic steps"
        )
    n = start.inv.rank
    d, s, sb = trajectory(start, repeat((False,) * (n - 1), m))[-1]
    return ElmState(BundleInvariants(n, d, s), sb, start.step_count + m)


def seed_state_lemma36(c: Curve, n: int) -> ElmState:
    """Start state for the split bundle with n general degree-1 line-bundle
    summands: degree n, all s_r = 0, and line-subbundle family dimensions
    (i+1)(n-1) - 1 for i = 0, ..., g-1 (no rank-2 bounds at n = 3)."""
    if n not in (2, 3):
        raise RankUnsupported("seed defined for ranks 2 and 3")
    inv = BundleInvariants(n, n, (0,) * (n - 1))
    lines = tuple([(i + 1) * (n - 1) - 1 for i in range(c.genus)])  # exact length, see trajectory
    return ElmState(inv, (lines,) + ((),) * (n - 2))


def seed_state_rank3_extended(c: Curve) -> ElmState:
    """The rank-3 split seed with rank-2 family data added: the three
    coordinate planes give dimension 0 in degree 2, and the degree-1
    rank-2 subbundles form a 2-dimensional family."""
    base = seed_state_lemma36(c, 3)
    return ElmState(base.inv, (base.sb_dim_upper[0], (0, 2)))


def s2_lower_bound_track(m: int) -> int:
    """Certified lower bound on s_2 after m general transformations of the
    rank-3 split seed.

    m = 0 gives 0 (split bundle); m = 1 gives 2, forced because the seed has
    only finitely many maximal rank-2 subbundles.  Beyond that: the smallest
    integer >= (m-3)/2 congruent to 2m mod 3 (which is m/2 for even m).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return 0
    if m == 1:
        return 2
    lb = (m - 2) // 2  # ceil((m-3)/2)
    return lb + ((2 * m - lb) % 3)
