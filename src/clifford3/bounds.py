"""The bound engine.

Exact section counts where they are forced (vanishing, zero h^1) and
Clifford-type upper bounds everywhere else: the classical line-bundle bound,
the rank-2 bound (two line bounds when unstable) with its hyperelliptic and
Krawtchouk refinements, the rank-3 semistable bound in stability-degree
form, the quotient and the unstable rank-3 bounds, and the slope bound for
stable bundles of small slope.  The quotient and the unstable bound read
:func:`_split_sum`, the one place for L and F in the extension
0 -> L -> E -> F -> 0 by a maximal line subbundle L: L's line bound plus
F's :func:`h0_rank2_bound`, at every s1f.  :func:`bound` is the one place
that picks the bound for given invariants.

Each refined bound is its base value, lowered by one by the first guard that
holds; the hyperelliptic guard is checked before the Krawtchouk one.
The Krawtchouk guard, :func:`_krawtchouk_refines`, is the rank-2 refinement
of a bundle of degree deg with s1 = t: it holds when t <= g (Nagata), t <= deg
and K_{(deg-t)/2+1}(g, 2g-t) != 0.  The rank-2 bound passes (deg, t) = (d, s1)
of E, the rank-3 semistable bound ((2d+s1)/3, s1f) of F.  The quotient bound
has no rungs of its own: F's rank-2 bound passes the same ((2d+s1)/3, s1f).

All arithmetic is exact; half-integer quantities are floored once, at the
end of each formula.  The functions a bound call runs write no builtin
``max`` or ``min``, only comparisons, and build records positionally: on
CPython 3.11 a keyword call of a record class builds a dict of its keywords
on every call.  Cold paths and callers outside the engine keep keywords.
"""
from __future__ import annotations

from functools import lru_cache

from .errors import (
    CongruenceViolation,
    HypothesisFailed,
    MissingS1F,
    NotSemistable,
    NotUnstable,
    RankUnsupported,
    SlopeOutOfRange,
)
from .invariants import (
    BoundResult,
    BundleInvariants,
    Curve,
    _Record,
    _congruence_violation,
    _store,
)
from .krawtchouk import delta_vanishes

# Every result this module returns is VANISHING or comes from _result, which
# hands out one shared instance per distinct (value, case, exact,
# assumptions).  One pass of the benchmark's rank-3 grid makes 619,168 bound
# calls, 576,136 of them through _result, with 358 distinct results; the cap
# bounds the memory of callers, like the Krawtchouk refinements, that rarely
# repeat one.  Pass ``exact`` as a bool and ``assumptions`` as a tuple,
# always positionally, so that equal results share one key.
_RESULT_CACHE_SIZE = 1024
_result = lru_cache(maxsize=_RESULT_CACHE_SIZE)(BoundResult)
VANISHING = BoundResult(0, "VANISHING", True)


def _exact_tail(d: int, low: int, rr: int) -> BoundResult:
    """The exact count outside a special range [low, high]: 0 below it, the
    Riemann-Roch value ``rr`` above it.  Callers test ``low <= d <= high``
    inline and call this only outside the range, which most points of a
    sweep are not.  The clamp of ``rr`` at 0 only engages for invariants no
    bundle can realize."""
    if d < low:
        return VANISHING
    return _result(rr if rr > 0 else 0, "RR-EXACT", True)


def _krawtchouk_refines(g: int, deg: int, t: int) -> bool:
    """The Krawtchouk guard; t <= deg makes the coefficient's index >= 1."""
    return t <= g and t <= deg and not delta_vanishes(g, deg, t)


def _s1f_frame(g: int, d: int, s1: int, s2: int) -> tuple[int, int, int, int | None]:
    """(d, s1, s2, shift) of the rank-3 bundle whose minimal quotient s1f
    describes: the input, with shift None, or for s2 < 0 <= s1 its twisted
    dual (6g-6-d, s2, s1), whose h^0 plus shift = d + 3 - 3g is the input's."""
    if s2 < 0 <= s1:
        return 6 * g - 6 - d, s2, s1, d + 3 - 3 * g
    return d, s1, s2, None


def _check_s1f(g: int, d: int, s1: int, s2: int, s1f: int) -> None:
    """The s1f rule, on the bundle of :func:`_s1f_frame`: the parity of its
    quotient degree (2d + s1)/3, then the least value (2*s2 - s1)/3, an
    integer for congruence-valid input.  Errors on the twisted dual name it."""
    d, s1, s2, shift = _s1f_frame(g, d, s1, s2)
    dual = "" if shift is None else f" of the twisted dual {(d, s1, s2)}"
    deg_f = (2 * d + s1) // 3
    if (s1f - deg_f) % 2:
        raise CongruenceViolation(
            1, f"s1f={s1f} must have the parity of the quotient degree {deg_f}{dual}"
        )
    least = (2 * s2 - s1) // 3
    if s1f < least:  # in the input's s1 and s2, which the dual swaps
        forced = (f"{least} = (2*s1-s2)/3 forced by s1, as s1f" if dual
                  else "(2*s2-s1)/3 forced by s2")
        raise HypothesisFailed(f"s1f={s1f} is below the minimum {forced}{dual}")


class Rank3Query(_Record):
    """A rank-3 bound request.

    ``s1f`` is the first stability degree of a minimal-degree rank-2
    quotient, when the caller knows it: the input's, or for s2 < 0 <= s1 its
    twisted dual's (:func:`_s1f_frame`).  It is checked here, by
    :func:`_check_s1f`.  Refinements are opt-in flags so that every reported
    value is attributable.  Only the semistable and the quotient bound read
    ``use_hyperelliptic_sharpening``; the unstable bound sharpens its rank-2
    part by the curve alone, as the rank-2 bound does.
    """

    __slots__ = ()
    _fields = ("curve", "inv", "s1f", "use_delta", "use_hyperelliptic_sharpening")

    def __init__(
        self,
        curve: Curve,
        inv: BundleInvariants,
        s1f: int | None = None,
        use_delta: bool = False,
        use_hyperelliptic_sharpening: bool = False,
    ):
        rank, d, s = inv._values
        if rank != 3:
            raise RankUnsupported("rank-3 query requires rank 3 invariants")
        if s1f is not None:
            _check_s1f(curve._values[0], d, *s, s1f)
        _store(self, (curve, inv, s1f, use_delta, use_hyperelliptic_sharpening))


def suggested_min_s1f(inv: BundleInvariants) -> int:
    """The least s1f that :class:`Rank3Query` accepts: (2*s2 - s1)/3, or one
    more for the parity of the quotient degree (2d + s1)/3, on the bundle of
    :func:`_s1f_frame`.  Offered as a hint, never substituted."""
    rank, d, s = inv._values
    if rank != 3:
        raise RankUnsupported("s1f only makes sense for rank 3")
    # any genus gives it: one more adds 4 to the dual's quotient degree
    d, s1, s2, _ = _s1f_frame(1, d, *s)
    least = (2 * s2 - s1) // 3
    return least + (least - (2 * d + s1) // 3) % 2


def h0_line_bound(c: Curve, d: int) -> BoundResult:
    """h^0 of a line bundle of degree d: exact 0 below degree 0, the Clifford
    bound floor(d/2)+1 in the special range, exact d+1-g above 2g-2."""
    g, _ = c._values
    if not 0 <= d <= 2 * g - 2:
        return _exact_tail(d, 0, d + 1 - g)
    return _result(d // 2 + 1, "CLIFFORD-LINE")


def h0_rank2_bound(c: Curve, d: int, s1: int, use_delta: bool = False) -> BoundResult:
    """Upper bound on h^0 of a rank-2 bundle with invariants (d, s1).

    For s1 < 0 the bundle is an extension of a line bundle of degree
    (d + s1)/2 by its maximal line subbundle, of degree (d - s1)/2, and the
    bound is the sum of their line bounds, whose cases it joins by "+"; it
    is exact when both are.  For s1 >= 0 it is exact 0 for d < s1 and exact
    d+2-2g for d > 4g-4-s1; in between it is (d-s1)/2 + 2, lowered by 1 on
    a hyperelliptic curve when s1 > 0, else by 1 if ``use_delta`` and the
    Krawtchouk guard holds at (d, s1).
    """
    g, hyp = c._values
    if (s1 - d) % 2 != 0:
        raise _congruence_violation(2, d, 1, s1)
    if s1 < 0:
        sub_value, sub_case, sub_exact, _ = h0_line_bound(c, (d - s1) // 2)._values
        quo_value, quo_case, quo_exact, _ = h0_line_bound(c, (d + s1) // 2)._values
        return _result(sub_value + quo_value, f"{sub_case}+{quo_case}",
                       sub_exact and quo_exact, ())
    if not s1 <= d <= 4 * g - 4 - s1:
        return _exact_tail(d, s1, d + 2 - 2 * g)
    half = (d - s1) // 2
    if hyp and s1 > 0:
        return _result(half + 1, "RANK2-HYP", False, ("hyperelliptic", "s1>0"))
    if use_delta and _krawtchouk_refines(g, d, s1):
        return _result(half + 1, "RANK2-KRAWTCHOUK", False, ("krawtchouk-refinement",))
    return _result(half + 2, "RANK2-CLIFFORD", False, ())


def _not_semistable(s1: int, s2: int) -> NotSemistable:
    """The error of the semistable bound and its runs for s1 < 0 or s2 < 0."""
    return NotSemistable(f"semistable bound needs s1, s2 >= 0, got {(s1, s2)}")


def h0_rank3_semistable_bound(q: Rank3Query) -> BoundResult:
    """Upper bound on h^0 of a semistable rank-3 bundle from (d, s1, s2).

    Dispatch, in order: exact vanishing below s1; exact d+3-3g above
    6g-6-s2; the line-only tails where the quotient contributes nothing
    (s2 > 2*s1 with d < s2-s1, and its dual); otherwise the main bound
    floor(d/2 - max(2*s2-s1, 2*s1-s2)/6) + 3, sharpened to +2 on a
    hyperelliptic curve (unless s1 = s2 = 0), else with ``use_delta`` when
    the Krawtchouk guard holds at the quotient's ((2d+s1)/3, s1f).
    :func:`semistable_runs` gives the unrefined values over many degrees.
    """
    curve, inv, s1f, use_delta, sharpen = q._values
    _, d, (s1, s2) = inv._values
    if s1 < 0 or s2 < 0:
        raise _not_semistable(s1, s2)
    g, hyp = curve._values
    if not s1 <= d <= 6 * g - 6 - s2:
        return _exact_tail(d, s1, d + 3 - 3 * g)
    if s2 > 2 * s1 and d < s2 - s1:
        return _result((d - s1) // 2 + 1, "RANK3-LINE-ONLY")
    if 2 * s2 < s1 and d > 6 * g - 6 - (s1 - s2):
        return _result((d - s2) // 2 + 1, "RANK3-LINE-ONLY-DUAL")
    # max(2*s2 - s1, 2*s1 - s2), which differ by 3(s2 - s1).  Keep it a
    # comparison: CPython up to 3.12 parses the builtin max's arguments
    # generically, 0.18-0.27 us a call against 0.03-0.04 us for this line
    # (timeit, fastest of 15, shared 2-core x86_64, Python 3.11).
    skew = 2 * s2 - s1 if s2 >= s1 else 2 * s1 - s2
    base = (3 * d - skew) // 6 + 3
    if sharpen and hyp and not s1 == s2 == 0:
        return _result(base - 1, "RANK3-MAIN-SHARP", False, ("hyperelliptic-sharpening",))
    if use_delta and s1f is not None and _krawtchouk_refines(g, (2 * d + s1) // 3, s1f):
        return _result(base - 1, "RANK3-MAIN-SHARP", False, ("krawtchouk-nonzero", f"s1f={s1f}"))
    return _result(base, "RANK3-MAIN")


def semistable_runs(g: int, s1: int, s2: int, degrees: range) -> list[tuple]:
    """The values of :func:`h0_rank3_semistable_bound` on a curve of genus g
    at every degree of ``degrees``, with no refinement, as case runs.

    Each run is (its degrees, case, exact, slope, offset, divisor), a slice
    of ``degrees`` in order, whose value at d is
    (slope*d + offset) // divisor.  For fixed (g, s1, s2) each guard of the
    dispatch holds on one interval of d, so the runs come in the dispatch's
    order of d: VANISHING below s1, RANK3-LINE-ONLY (s2 > 2*s1, d < s2-s1),
    RANK3-MAIN, RANK3-LINE-ONLY-DUAL (2*s2 < s1, d > 6g-6-(s1-s2)) and
    RR-EXACT above 6g-6-s2, empty runs left out.  RR-EXACT is two runs when
    its clamp at 0 engages (d <= 3g-3), which only invariants that no
    bundle realizes reach.  ``degrees`` steps up; the caller checks their
    congruences with s1 and s2.  s1 < 0 or s2 < 0 raises the bound's
    ``NotSemistable``.
    """
    if s1 < 0 or s2 < 0:
        raise _not_semistable(s1, s2)
    top = 6 * g - 5 - s2  # RR-EXACT from here on (and from s1)
    skew = 2 * s2 - s1 if s2 >= s1 else 2 * s1 - s2
    line_end = s2 - s1 if s2 > 2 * s1 else s1
    # the dual's first degree lies below top exactly when 2*s2 < s1
    main_end = 6 * g - 5 - s1 + s2 if 2 * s2 < s1 else top
    # (the least degree past the run, then the run's fields): each run takes
    # the degrees below its end that no earlier run took
    specs = (
        (s1, "VANISHING", True, 0, 0, 1),
        (line_end if line_end < top else top, "RANK3-LINE-ONLY", False, 1, 2 - s1, 2),
        (main_end, "RANK3-MAIN", False, 3, 18 - skew, 6),
        (top, "RANK3-LINE-ONLY-DUAL", False, 1, 2 - s2, 2),
        (3 * g - 2, "RR-EXACT", True, 0, 0, 1),
        (None, "RR-EXACT", True, 1, 3 - 3 * g, 1),
    )
    first, step, count = degrees.start, degrees.step, len(degrees)
    runs, start = [], 0
    for end, case, exact, slope, offset, divisor in specs:
        # the number of degrees below end, in ``count`` at most
        stop = count if end is None else -((first - end) // step)
        if stop > count:
            stop = count
        if stop > start:
            runs.append((degrees[start:stop], case, exact, slope, offset, divisor))
            start = stop
    return runs


def _split_sum(c: Curve, d: int, s1: int, s1f: int, use_delta: bool) -> tuple[int, str, str]:
    """(value, L's case, F's case) for an extension 0 -> L -> E -> F -> 0 of
    F, of degree (2d + s1)/3 with s1(F) = s1f, by a line bundle L of degree
    (d - s1)/3: L's line bound plus F's :func:`h0_rank2_bound` under
    ``use_delta``, at every s1f."""
    line_value, line_case, _, _ = h0_line_bound(c, (d - s1) // 3)._values
    f_value, f_case, _, _ = h0_rank2_bound(c, (2 * d + s1) // 3, s1f, use_delta)._values
    return line_value + f_value, line_case, f_case


# F's rank-2 case -> the quotient bound's case and notes after s1f=<s1f>;
# the degree window keeps F in its special range, so no other case occurs.
_QUOTIENT_CASES = {
    "RANK2-CLIFFORD": ("RANK3-QUOTIENT", ()),
    "RANK2-HYP": ("RANK3-QUOTIENT-SHARP", ("hyperelliptic", "s1f>0")),
    "RANK2-KRAWTCHOUK": ("RANK3-QUOTIENT-KRAWTCHOUK", ("krawtchouk-refinement",)),
}


def h0_prop21_bound(q: Rank3Query) -> BoundResult:
    """Upper bound on h^0 through a minimal-degree rank-2 quotient F with
    known s1f = s1(F): the split sum of :func:`_split_sum`, L's line bound
    plus F's rank-2 bound.  F's rungs are the rank-2 bound's, at (deg, t) =
    (deg F, s1f): hyperelliptic (only with sharpening on) when s1f > 0, else
    Krawtchouk with ``use_delta``.

    Requires s1 <= 2*s2 and the degree window
    max(s1, (3*s1f - s1)/2) <= d <= 6g - 6 - (3*s1f + s1)/2.
    """
    curve, inv, s1f, use_delta, sharpen = q._values
    if s1f is None:
        raise MissingS1F("this bound needs s1f")
    _, d, (s1, s2) = inv._values
    g, hyp = curve._values
    if s1 > 2 * s2:
        raise HypothesisFailed(f"needs s1 <= 2*s2, got s1={s1}, s2={s2}")
    lo2 = 2 * s1 if s1 >= s1f else 3 * s1f - s1  # doubled lower end of the window
    hi2 = 12 * g - 12 - 3 * s1f - s1
    if not lo2 <= 2 * d <= hi2:
        raise HypothesisFailed(f"degree {d} outside the quotient window [{lo2}/2, {hi2}/2]")
    # sharpening gates F's hyperelliptic rung; L's line bound reads only the genus
    f_curve = curve if sharpen or not hyp else Curve(g)
    value, _, f_case = _split_sum(f_curve, d, s1, s1f, use_delta)
    case, notes = _QUOTIENT_CASES[f_case]
    return _result(value, case, False, (f"s1f={s1f}",) + notes)


def h0_rank3_unstable_bound(q: Rank3Query) -> BoundResult:
    """Upper bound on h^0 of a non-semistable rank-3 bundle.

    For s2 < 0 <= s1 it bounds the twisted dual of :func:`_s1f_frame`, which
    ``q.s1f`` describes, and moves the result back by the Euler
    characteristic.  With s1 < 0 the bundle is an extension of its quotient
    F, with s1(F) = s1f, by a maximal line subbundle L, and the value is the
    split sum of :func:`_split_sum` with no Krawtchouk refinement: F's
    :func:`h0_rank2_bound` at every s1f.  The notes name each part's case:
    ``line:<case>``, then ``quotient:<case>``, which for s1f < 0 is
    ``quotient:<sub case>+<quotient case>``.
    """
    curve, inv, s1f, _, _ = q._values
    _, d, (s1, s2) = inv._values
    if s1 >= 0 and s2 >= 0:
        raise NotUnstable(f"unstable bound needs s1 < 0 or s2 < 0, got {(s1, s2)}")
    if s1f is None:
        raise MissingS1F("unstable bound needs s1f")
    g, _ = curve._values
    d, s1, s2, shift = _s1f_frame(g, d, s1, s2)
    if not s1 <= d <= 6 * g - 6 - s2:
        result = _exact_tail(d, s1, d + 3 - 3 * g)
    else:
        value, line_case, f_case = _split_sum(curve, d, s1, s1f, False)
        case = "UNSTABLE-SS-QUOTIENT" if s1f >= 0 else "UNSTABLE-UNSTABLE-QUOTIENT"
        notes = (f"s1f={s1f}", f"line:{line_case}", f"quotient:{f_case}")
        result = _result(value, case, False, notes)
    if shift is None:
        return result
    value, case, exact, notes = result._values
    value += shift
    return _result(value if value > 0 else 0, case, exact, notes + ("serre-dual-reduction",))


def bound(
    curve: Curve, inv: BundleInvariants, *, s1f: int | None = None, delta: bool = False
) -> BoundResult:
    """The bound for ``inv``: the line bound at rank 1, the rank-2 bound at
    rank 2, and at rank 3 the unstable bound when s1 < 0 or s2 < 0, else the
    semistable bound.  ``delta`` turns on the Krawtchouk refinements, ``s1f``
    is read at rank 3 only, and hyperelliptic sharpening follows
    ``curve.hyperelliptic``."""
    rank, d, s = inv._values
    _, hyp = curve._values
    if rank == 1:
        return h0_line_bound(curve, d)
    if rank == 2:
        return h0_rank2_bound(curve, d, s[0], use_delta=delta)
    q = Rank3Query(curve, inv, s1f, delta, hyp)
    s1, s2 = s
    if s1 < 0 or s2 < 0:
        return h0_rank3_unstable_bound(q)
    return h0_rank3_semistable_bound(q)


def slope_bound(g: int, d: int) -> BoundResult:
    """For a stable rank-3 bundle of slope below 2: h^0 <= 3 + floor((d-3)/g).

    Stability is the caller's assertion and is recorded as an assumption.
    """
    if g < 2:
        raise ValueError("genus must be >= 2")
    if d >= 6:
        raise SlopeOutOfRange(f"slope bound needs d < 6, got {d}")
    value = 3 + (d - 3) // g
    return _result(value if value > 0 else 0, "SLOPE", False, ("stable",))
