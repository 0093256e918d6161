"""Reference values the benchmark checks the program's outputs against.

Everything here is written from the documented formulas, not by calling
the code under test.  The one exception is ``krawtchouk_oracle``: the
package keeps it as the independent, literal polynomial expansion of the
Krawtchouk generating function, and it is used only for N <= 64.

A reference returns the *set* of acceptable results, each a tuple
``(value, case, exact, assumptions)``.  The set has two members only when a
Krawtchouk coefficient decides the result and no oracle covers it; every
other field is still checked.
"""
from __future__ import annotations

from math import comb

ORACLE_MAX_N = 64
UNKNOWN = None


def kraw_closed_2g(r: int, g: int) -> int:
    """K_r(g, 2g): the coefficient of z^r in (1 - z^2)^g, which is
    [r even] (-1)^(r/2) C(g, r/2)."""
    if r % 2:
        return 0
    return (-1) ** (r // 2) * comb(g, r // 2)


def kraw_reference(oracle):
    """A lookup K(r, n, N) -> int or UNKNOWN, from the closed form when
    N = 2n and from ``oracle`` (the literal expansion) when N <= 64."""

    def lookup(r: int, n: int, N: int):
        if N == 2 * n:
            return kraw_closed_2g(r, n)
        if N <= ORACLE_MAX_N:
            return oracle(r, n, N)
        return UNKNOWN

    return lookup


def _zero_or_not(k) -> tuple[bool, ...]:
    """The possible answers to "is the coefficient zero?"."""
    return (True, False) if k is UNKNOWN else (k == 0,)


def line_expected(g: int, d: int) -> set:
    if d < 0:
        return {(0, "VANISHING", True, ())}
    if d > 2 * g - 2:
        return {(d + 1 - g, "RR-EXACT", True, ())}
    return {(d // 2 + 1, "CLIFFORD-LINE", False, ())}


def rank2_expected(g, d, s1, hyperelliptic, use_delta, kval) -> set:
    """Semistable rank 2: exact tails, Clifford (d-s1)/2 + 2, the
    hyperelliptic -1 when s1 > 0, and (d-s1)/2 + 1 + [K = 0] with
    K = K_{(d-s1)/2+1}(g, 2g-s1) when s1 <= g."""
    if d < s1:
        return {(0, "VANISHING", True, ())}
    if d > 4 * g - 4 - s1:
        return {(d + 2 - 2 * g, "RR-EXACT", True, ())}
    half = (d - s1) // 2
    best = (half + 2, "RANK2-CLIFFORD", False, ())
    if hyperelliptic and s1 > 0:
        best = (half + 1, "RANK2-HYP", False, ("hyperelliptic", "s1>0"))
    if not (use_delta and s1 <= g):
        return {best}
    out = set()
    for zero in _zero_or_not(kval(half + 1, g, 2 * g - s1)):
        cand = half + 1 + zero
        if cand < best[0]:
            out.add((cand, "RANK2-KRAWTCHOUK", False, ("krawtchouk-refinement",)))
        else:
            out.add(best)
    return out


def rank3_expected(g, d, s1, s2, hyperelliptic, sharpen, s1f, use_delta, kval) -> set:
    """Semistable rank 3 in stability-degree form: exact tails, the two
    line-only ranges, and floor(d/2 - max(2s2-s1, 2s1-s2)/6) + 3, lowered by
    one by hyperelliptic sharpening or by a nonzero
    K_{(2d+s1-3s1f)/6+1}(g, 2g-s1f)."""
    tail = rank3_tail(g, d, s1, s2)
    if tail is not None:
        return {tail}
    if s2 > 2 * s1 and d < s2 - s1:
        return {((d - s1) // 2 + 1, "RANK3-LINE-ONLY", False, ())}
    if 2 * s2 < s1 and d > 6 * g - 6 - (s1 - s2):
        return {((d - s2) // 2 + 1, "RANK3-LINE-ONLY-DUAL", False, ())}
    base = (3 * d - max(2 * s2 - s1, 2 * s1 - s2)) // 6 + 3
    main = (base, "RANK3-MAIN", False, ())
    if sharpen and hyperelliptic and not (s1 == 0 and s2 == 0):
        return {(base - 1, "RANK3-MAIN-SHARP", False, ("hyperelliptic-sharpening",))}
    num = 2 * d + s1 - 3 * s1f if s1f is not None else -1
    if not (use_delta and s1f is not None and s1f <= g and num >= 0):
        return {main}
    sharp = (base - 1, "RANK3-MAIN-SHARP", False, ("krawtchouk-nonzero", f"s1f={s1f}"))
    return {main if zero else sharp for zero in _zero_or_not(kval(num // 6 + 1, g, 2 * g - s1f))}


def prop21_expected(g, d, s1, s1f, hyperelliptic, sharpen, use_delta, kval) -> set:
    """Rank 3 through a minimal quotient: floor((d-s1f)/2) + 3, lowered to
    + 2 by hyperelliptic sharpening (s1f > 0) or to + 2 + [K = 0]."""
    half = (d - s1f) // 2
    tag = f"s1f={s1f}"
    best = (half + 3, "RANK3-QUOTIENT", False, (tag,))
    if sharpen and hyperelliptic and s1f > 0:
        best = (half + 2, "RANK3-QUOTIENT-SHARP", False, (tag, "hyperelliptic", "s1f>0"))
    if not (use_delta and s1f <= g):
        return {best}
    num = 2 * d + s1 - 3 * s1f
    out = set()
    for zero in _zero_or_not(kval(num // 6 + 1, g, 2 * g - s1f)):
        cand = half + 2 + zero
        if cand < best[0]:
            out.add((cand, "RANK3-QUOTIENT-KRAWTCHOUK", False, (tag, "krawtchouk-refinement")))
        else:
            out.add(best)
    return out


def rank3_tail(g: int, d: int, s1: int, s2: int):
    """The exact value forced outside [s1, 6g-6-s2], or None inside."""
    if d < s1:
        return (0, "VANISHING", True, ())
    if d > 6 * g - 6 - s2:
        return (max(0, d + 3 - 3 * g), "RR-EXACT", True, ())
    return None


def min_s1f(d: int, s1: int, s2: int) -> int:
    """Smallest admissible s1f: at least (2*s2 - s1)/3, with the parity of
    the quotient degree (2d + s1)/3."""
    t = -((-(2 * s2 - s1)) // 3)
    return t + (t - (2 * d + s1) // 3) % 2


def elmtrans_states(rank: int, steps: int, bits: str) -> list[tuple[int, list[int]]]:
    """(degree, s) after each step from the split seed of degree ``rank``:
    a miss raises s_r by r, a hit lowers it by rank - r."""
    s = [0] * (rank - 1)
    out = [(rank, list(s))]
    for k in range(steps):
        chunk = bits[k * (rank - 1) : (k + 1) * (rank - 1)]
        s = [v - (rank - r) if b == "1" else v + r for r, (v, b) in enumerate(zip(s, chunk), 1)]
        out.append((rank + k + 1, list(s)))
    return out


def suite_size(max_genus: int) -> dict[str, int]:
    """Number of reports per family in ``suite(max_genus)``, from the
    families' parameter ranges."""
    a = sum(
        g - 2 * n - 2 for g in range(3, max_genus + 1) for n in range((g - 2) // 4 + 1)
    )
    b = sum(1 if g == 2 else g // 2 for g in range(2, max_genus + 1))
    c = sum(2 * (g - 1) for g in range(2, max_genus + 1))
    return {"a": a, "b": b, "c": c}


def suite_row_problem(row: dict) -> str | None:
    """The paper's claims for one suite row: exact h0 never exceeds the
    bound and the sharp flag matches; family a attains n + 3k + 4, family b
    attains 3, family c has 3k + 3 sections with E1 sharp and E2 one short."""
    exact, bound, sharp = row["exact_h0"], row["bound"], row["sharp"]
    if exact > bound:
        return f"exact_h0 {exact} > bound {bound}"
    if sharp != (exact == bound):
        return "sharp flag inconsistent with the values"
    fam = row["family"]
    if fam == "a" and not (sharp and exact == row["n"] + 3 * row["k"] + 4):
        return "family a not sharp at n + 3k + 4"
    if fam == "b" and not (sharp and exact == 3):
        return "family b not sharp at 3"
    if fam == "c":
        if exact != 3 * row["k"] + 3:
            return "family c exact count is not 3k + 3"
        if row["variant"] == "E1" and not sharp:
            return "family c E1 not sharp"
        if row["variant"] == "E2" and bound - exact != 1:
            return "family c E2 gap is not 1"
    if fam == "unstable" and not sharp:
        return "split sum does not attain the unstable bound"
    if fam not in ("a", "b", "c", "unstable"):
        return f"unknown family {fam!r}"
    return None
