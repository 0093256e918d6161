"""Sharpness witnesses on hyperelliptic curves.

Three families of rank-3 bundles built from powers of the degree-2 pencil,
general points and general elementary transformations, with their exact
section counts, the applicable bound and a sharpness verdict; plus direct
sums witnessing the unstable bounds.

Each constructor takes plain values and builds the hyperelliptic curve
``Curve(g, hyperelliptic=True)`` of the given genus itself:
``family_a(g, n, k)``, ``family_b(g, m)`` and ``family_c(g, variant, k)``
check their ranges first (``ParamsOutOfRange``), while
``unstable_sharpness(g, dL, dF, s1F)`` builds its curve before its checks.

The stability degrees of the constructed bundles are asserted data of the
constructions (there is no general direct-sum calculus for them); the exact
section counts come only from the two hyperelliptic formulas of the
invariants module.
"""
from __future__ import annotations

from .bounds import Rank3Query, bound, h0_prop21_bound, h0_rank2_bound, slope_bound
from .elmtrans import s2_lower_bound_track
from .errors import ParamsOutOfRange, UnrealizableF
from .invariants import (
    BoundResult,
    BundleInvariants,
    Curve,
    _Record,
    _store,
    h0_hyperelliptic_power,
)


class ExampleReport(_Record):
    """A constructed bundle, its exact section count, the applicable bound and
    whether the bound is attained.  ``params`` are the family's parameters as
    (name, value) pairs, so that the record hashes; ``params`` and ``notes``
    are stored as tuples whatever sequences they are given."""

    __slots__ = ()
    _fields = ("family", "curve", "inv", "exact_h0", "bound", "params", "slope", "notes")

    def __init__(
        self,
        family: str,
        curve: Curve,
        inv: BundleInvariants,
        exact_h0: int,
        bound: BoundResult,
        params: tuple[tuple[str, int | str], ...] = (),
        slope: BoundResult | None = None,
        notes: tuple[str, ...] = (),
    ):
        if exact_h0 > bound.value:
            raise ValueError(f"exact h0 {exact_h0} exceeds the bound {bound.value}")
        _store(self, (family, curve, inv, exact_h0, bound, tuple(params), slope, tuple(notes)))

    @property
    def sharp(self) -> bool:
        return self.exact_h0 == self.bound.value

    def to_dict(self) -> dict:
        family, curve, inv, exact_h0, bound, params, slope, notes = self._values
        genus, _ = curve._values
        rank, degree, s = inv._values
        out = {
            "family": family,
            "genus": genus,
            "params": dict(params),
            "rank": rank,
            "degree": degree,
            "s": list(s),
            "exact_h0": exact_h0,
            "bound": bound.to_dict(),
            "sharp": self.sharp,
            "notes": list(notes),
        }
        if slope is not None:
            out["slope_bound"] = slope.to_dict()
        return out


def family_a(g: int, n: int, k: int) -> ExampleReport:
    """Sum of the (n+k+1)-st pencil power and a twisted rank-2 bundle with
    s1 = m = 4n+2, on the hyperelliptic curve of genus g: both stability
    degrees vanish and the quotient bound with hyperelliptic sharpening is
    attained.  Needs g >= 3, n >= 0, 4n+2 <= g and 0 <= k <= g-2-m/2, checked
    in that order."""
    if g < 3:
        raise ParamsOutOfRange("this family needs genus >= 3")
    if n < 0:
        raise ParamsOutOfRange("n must be nonnegative")
    m = 4 * n + 2
    if m > g:
        raise ParamsOutOfRange(f"needs 4n+2 <= g, got {m} > {g}")
    if not 0 <= k <= g - 2 - m // 2:
        raise ParamsOutOfRange(f"k must lie in [0, {g - 2 - m // 2}], got {k}")
    curve = Curve(g, hyperelliptic=True)
    inv = BundleInvariants(3, 6 * (n + k + 1), (0, 0))
    # rank-2 summand: degree m+4k+2, s1 = m; exact count pinned by matching
    # lower (two twisted point bundles) and upper (rank-2 bound) estimates
    low = 2 * (k + 1)
    up = h0_rank2_bound(curve, m + 4 * k + 2, m).value
    if low != up:
        raise ParamsOutOfRange(
            f"rank-2 summand count not pinned: lower {low}, upper {up}"
        )
    exact = h0_hyperelliptic_power(curve, n + k + 1) + low
    q = Rank3Query(curve, inv, s1f=m, use_hyperelliptic_sharpening=True)
    return ExampleReport(
        "a",
        curve,
        inv,
        exact,
        h0_prop21_bound(q),
        params=(("n", n), ("k", k), ("m", m)),
        notes=("s1 = s2 = 0 and s1f = m are asserted by the construction",),
    )


def family_b(g: int, m: int) -> ExampleReport:
    """m general transformations of the split rank-3 seed on the
    hyperelliptic curve of genus g: degree 3+m, s1 = m, s2 at least the
    certified lower bound; exactly 3 sections, and the quotient bound with
    hyperelliptic sharpening gives exactly 3.  Needs g >= 2 and m even with
    2 <= m <= g; m = 1 is also allowed at g = 2."""
    if g < 2:
        raise ParamsOutOfRange("genus must be >= 2")
    if not (g == 2 and m == 1) and (m % 2 != 0 or not 2 <= m <= g):
        raise ParamsOutOfRange(
            f"m must be even with 2 <= m <= g (or m=1 at g=2), got m={m}"
        )
    curve = Curve(g, hyperelliptic=True)
    inv = BundleInvariants(3, 3 + m, (m, s2_lower_bound_track(m)))
    q = Rank3Query(curve, inv, s1f=m, use_hyperelliptic_sharpening=True)
    return ExampleReport(
        "b",
        curve,
        inv,
        3,
        h0_prop21_bound(q),  # raises HypothesisFailed when the window fails
        params=(("m", m),),
        notes=("s2 is a certified lower bound, sufficient for this bound",),
    )


def family_c(g: int, variant: str, k: int) -> ExampleReport:
    """Twists by the k-th pencil power of the one-step ("E1") and two-step
    ("E2") transformations of the split seed, on the hyperelliptic curve of
    genus g.  E1 attains the sharpened main bound at 3k+3; E2 falls short
    of it by exactly 1, and at k = 0 the slope bound certifies that for
    genus >= 3 while at genus 2 the bound 4 is attainable.  Needs g >= 2,
    variant "E1" or "E2" and 0 <= k <= g-2, checked in that order."""
    if g < 2:
        raise ParamsOutOfRange("genus must be >= 2")
    if variant not in ("E1", "E2"):
        raise ParamsOutOfRange(f"variant must be E1 or E2, got {variant}")
    if not 0 <= k <= g - 2:
        raise ParamsOutOfRange(f"k must lie in [0, {g - 2}], got {k}")
    curve = Curve(g, hyperelliptic=True)
    exact = 3 * (k + 1)  # three twisted point-bundle summands
    slope = None
    notes: tuple[str, ...] = ()
    if variant == "E1":
        inv = BundleInvariants(3, 6 * k + 4, (1, 2))
    else:
        inv = BundleInvariants(3, 6 * k + 5, (2, 1))
        if k == 0:
            slope = slope_bound(g, 5)
            if g >= 3:
                notes = (
                    f"slope bound certifies h0 <= {slope.value} for any stable bundle",
                )
            else:
                notes = (
                    "at genus 2 a stable bundle of degree 5 with h0 = 4 exists; "
                    "its invariants are forced to (2, 1)",
                )
    return ExampleReport(
        "c",
        curve,
        inv,
        exact,
        bound(curve, inv),
        params=(("variant", variant), ("k", k)),
        slope=slope,
        notes=notes,
    )


def stable_pairs_for_degree5_genus2() -> list[tuple[int, int]]:
    """Stable congruence-valid (s1, s2) at genus 2, degree 5 compatible with
    4 sections under the sharpened main bound.  The filter leaves (2, 1)."""
    g, d, target = 2, 5, 4
    curve = Curve(g, hyperelliptic=True)
    out = []
    for s1 in range(1, 3 * g + 1):
        if (s1 - d) % 3 != 0:
            continue
        for s2 in range(1, 3 * g + 1):
            if (s2 - 2 * d) % 3 != 0:
                continue
            if not s1 <= d <= 6 * g - 6 - s2:
                continue
            if bound(curve, BundleInvariants(3, d, (s1, s2))).value >= target:
                out.append((s1, s2))
    return out


def unstable_sharpness(g: int, dL: int, dF: int, s1F: int) -> ExampleReport:
    """Direct sum of a dominant line bundle of degree dL and a rank-2 sum of
    pencil powers realizing (dF, s1F), on the hyperelliptic curve of genus g,
    with its exact section count against the unstable bound.  The curve is
    built first, so g < 2 is the ValueError of ``Curve``.

    dL even gives a pure pencil power; dL odd falls back to a power twisted
    by a general point (only available for (dL-1)/2 <= g-2).
    """
    c = Curve(g, hyperelliptic=True)
    d = dL + dF
    if 3 * dL <= d:
        raise ParamsOutOfRange("line summand must strictly dominate: need 3*dL > dL+dF")
    if dF % 2 != 0 or s1F % 2 != 0 or s1F > 0 or (dF + s1F) % 4 != 0:
        raise UnrealizableF(
            f"no sum of two pencil powers has degree {dF} and s1 {s1F}"
        )
    a = (dF + s1F) // 4
    b = (dF - s1F) // 4
    if a < 0:
        raise UnrealizableF(f"degree {dF} too small for s1 {s1F}")
    if dL < 2 * b:
        raise ParamsOutOfRange("line summand must dominate both pencil factors")
    if dL % 2 == 0:
        h0_line = h0_hyperelliptic_power(c, dL // 2)
        line_desc = f"pencil^{dL // 2}"
    else:
        e = (dL - 1) // 2
        if e > g - 2:
            raise UnrealizableF(
                f"odd degree {dL} needs a general-point twist, only modeled for "
                f"exponent <= g-2 = {g - 2}"
            )
        h0_line = h0_hyperelliptic_power(c, e, extra_general_point=True)
        line_desc = f"pencil^{e}(point)"
    exact = h0_line + h0_hyperelliptic_power(c, a) + h0_hyperelliptic_power(c, b)
    s1 = d - 3 * dL
    s2 = 2 * d - 3 * (dL + 2 * b)
    inv = BundleInvariants(3, d, (s1, s2))
    return ExampleReport(
        "unstable",
        c,
        inv,
        exact,
        bound(c, inv, s1f=s1F),
        params=(("dL", dL), ("dF", dF), ("s1F", s1F)),
        notes=(f"E = {line_desc} + pencil^{a} + pencil^{b}",),
    )


def genus_reports(family: str, g: int) -> list[ExampleReport]:
    """Every valid report of family "a", "b" or "c" at genus g (g >= 2), in
    suite order.  Family "a" needs genus >= 3 and is empty at g = 2."""
    if family == "a":
        return [
            family_a(g, n, k)
            for n in range((g - 2) // 4 + 1)
            for k in range(g - 2 - (4 * n + 2) // 2 + 1)
        ]
    if family == "b":
        ms = [1] if g == 2 else range(2, g + 1, 2)
        return [family_b(g, m) for m in ms]
    if family == "c":
        return [
            family_c(g, variant, k)
            for variant in ("E1", "E2")
            for k in range(g - 1)
        ]
    raise ParamsOutOfRange(f"family must be a, b or c, got {family!r}")


def suite(max_genus: int) -> list[ExampleReport]:
    """All valid family reports up to the given genus: family "a", then "b",
    then "c", each genus by genus from 2."""
    return [r for f in "abc" for g in range(2, max_genus + 1) for r in genus_reports(f, g)]
