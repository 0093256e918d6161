"""Invariant-level calculus of elementary transformations.

A single transformation raises the degree by 1 and moves each stability
degree s_r by exactly -(n-r) or +r, depending on whether the chosen line in
the fibre lies in a maximal rank-r subbundle.  Families of rank-r subbundles
of degree (maximal - i) are tracked only through integer upper bounds on
their dimension; an absent entry means the bound is unknown.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import HypothesisUnverifiable, RankUnsupported
from .invariants import BundleInvariants, Curve


@dataclass(frozen=True, slots=True)
class StepChoice:
    """Per-rank choice for one transformation step: ``hits_maximal[r-1]`` is
    True when the chosen line lies in the fibre of a maximal rank-r
    subbundle."""

    hits_maximal: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "hits_maximal", tuple(self.hits_maximal))

    @classmethod
    def generic(cls, rank: int) -> "StepChoice":
        """The all-miss choice modeling a general line."""
        return cls((False,) * (rank - 1))


@dataclass(frozen=True, slots=True)
class ElmState:
    """Bundle invariants plus dimension bookkeeping for subbundle families.

    ``sb_dim_upper`` maps (r, i) to an upper bound on the dimension of the
    family of rank-r subbundles of degree (maximal - i); keys that are
    absent carry no information.  States are treated as immutable; steps
    return fresh states.  The hash leaves the mapping out, so equal states
    still hash equal.
    """

    inv: BundleInvariants
    sb_dim_upper: dict[tuple[int, int], int] = field(default_factory=dict, hash=False)
    step_count: int = 0

    def upper(self, r: int, i: int) -> int | None:
        return self.sb_dim_upper.get((r, i))


def step(st: ElmState, ch: StepChoice) -> ElmState:
    """Apply one elementary transformation with the given per-rank choices.

    Degree rises by 1.  On a miss, s_r gains r and the dimension bound for
    (r, i) becomes max(old(r, i), old(r, i+1) - (n-r)), since containing the
    chosen line imposes n-r conditions; on a hit, s_r drops by n-r and the
    bounds for that rank become unknown (there is no rule for that branch).
    """
    n = st.inv.rank
    if len(ch.hits_maximal) != n - 1:
        raise ValueError(f"need {n - 1} choices for rank {n}")
    new_s = []
    new_sb: dict[tuple[int, int], int] = {}
    for r in range(1, n):
        sr = st.inv.s[r - 1]
        if ch.hits_maximal[r - 1]:
            new_s.append(sr - (n - r))
        else:
            new_s.append(sr + r)
            i = 0
            while st.upper(r, i) is not None and st.upper(r, i + 1) is not None:
                new_sb[(r, i)] = max(st.upper(r, i), st.upper(r, i + 1) - (n - r))
                i += 1
    new_inv = BundleInvariants(n, st.inv.degree + 1, tuple(new_s))
    return ElmState(new_inv, new_sb, st.step_count + 1)


def certified_ranks(start: ElmState, m: int) -> frozenset[int]:
    """Ranks r whose recorded dimension bounds verify the genericity
    hypotheses dim < (i+1)(n-r) for i = 0, ..., m-1."""
    n = start.inv.rank
    good = set()
    for r in range(1, n):
        ok = True
        for i in range(m):
            u = start.upper(r, i)
            if u is None or u >= (i + 1) * (n - r):
                ok = False
                break
        if ok:
            good.add(r)
    return frozenset(good)


def generic_sequence(c: Curve, start: ElmState, m: int) -> ElmState:
    """m general transformations: the m-fold composition of :func:`step`
    with the all-miss choice.

    At least one rank must have dimension bounds certifying the genericity
    hypotheses for all m steps; for those ranks the resulting s_r equals
    start plus m*r.  Ranks without certificates are still stepped with the
    all-miss choice, but their values carry no guarantee (use
    :func:`certified_ranks` to tell them apart).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return start
    if not certified_ranks(start, m):
        raise HypothesisUnverifiable(
            f"no rank has dimension bounds certifying {m} generic steps"
        )
    state = start
    for _ in range(m):
        state = step(state, StepChoice.generic(start.inv.rank))
    return state


def seed_state_lemma36(c: Curve, n: int) -> ElmState:
    """Start state for the split bundle with n general degree-1 line-bundle
    summands: degree n, all s_r = 0, and line-subbundle family dimensions
    (i+1)(n-1) - 1 for i = 0, ..., g-1."""
    if n not in (2, 3):
        raise RankUnsupported("seed defined for ranks 2 and 3")
    inv = BundleInvariants(n, n, (0,) * (n - 1))
    sb = {(1, i): (i + 1) * (n - 1) - 1 for i in range(c.genus)}
    return ElmState(inv, sb)


def seed_state_rank3_extended(c: Curve) -> ElmState:
    """The rank-3 split seed with rank-2 family data added: the three
    coordinate planes give dimension 0 in degree 2, and the degree-1
    rank-2 subbundles form a 2-dimensional family."""
    base = seed_state_lemma36(c, 3)
    sb = dict(base.sb_dim_upper)
    sb[(2, 0)] = 0
    sb[(2, 1)] = 2
    return ElmState(base.inv, sb)


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
