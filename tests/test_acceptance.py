"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
appear; under plain ``pytest`` they show up in the captured output of any
failing criterion.
"""
import itertools
import random
import time

from clifford3 import (
    BundleInvariants,
    Curve,
    KrawtchoukQuery,
    Rank3Query,
    family_a,
    family_c,
    generic_sequence,
    h0_rank2_bound,
    h0_rank3_semistable_bound,
    krawtchouk,
    krawtchouk_oracle,
    s2_lower_bound_track,
    seed_state_lemma36,
    seed_state_rank3_extended,
    stable_pairs_for_degree5_genus2,
    step,
    unstable_sharpness,
)

_KNOWN_CASES = {
    "VANISHING",
    "RR-EXACT",
    "RANK3-LINE-ONLY",
    "RANK3-LINE-ONLY-DUAL",
    "RANK3-MAIN",
    "RANK3-MAIN-SHARP",
}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _rank3_grid(g: int):
    """Congruence-valid semistable (s1, s2) pairs with s1, s2 <= 3g."""
    for s1 in range(0, 3 * g + 1):
        for s2 in range(0, 3 * g + 1):
            if (s2 - 2 * s1) % 3 == 0:
                yield s1, s2


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    cases = 0
    ok = True
    for N in range(31):
        for n in range(N + 1):
            for r in range(N + 1):
                q = KrawtchoukQuery(r, n, N)
                if krawtchouk(q) != krawtchouk_oracle(q):
                    ok = False
                cases += 1
    elapsed = time.perf_counter() - t0
    _report(1, ok and elapsed < 1.0, f"{cases} coefficient cases in {elapsed:.2f}s")


def test_criterion_2_duality_identity():
    t0 = time.perf_counter()
    cases = 0
    ok = True
    for g in range(2, 7):
        c = Curve(g)
        for s1, s2 in _rank3_grid(g):
            for d in range(s1, 6 * g - 6 - s2 + 1, 3):
                v = h0_rank3_semistable_bound(
                    Rank3Query(c, BundleInvariants(3, d, (s1, s2)))
                ).value
                dv = h0_rank3_semistable_bound(
                    Rank3Query(c, BundleInvariants(3, 6 * g - 6 - d, (s2, s1)))
                ).value
                if v != (d + 3 - 3 * g) + dv:
                    ok = False
                cases += 1
    elapsed = time.perf_counter() - t0
    _report(2, ok and elapsed < 5.0, f"{cases} duality cases in {elapsed:.2f}s")


def test_criterion_3_totality():
    cases = 0
    ok = True
    for g in range(2, 7):
        c = Curve(g)
        for s1, s2 in _rank3_grid(g):
            for d in range(s1 - 6, 6 * g - 6 - s2 + 7, 3):
                r = h0_rank3_semistable_bound(
                    Rank3Query(c, BundleInvariants(3, d, (s1, s2)))
                )
                if r.case not in _KNOWN_CASES:
                    ok = False
                if d < s1:
                    if not (r.value == 0 and r.exact):
                        ok = False
                elif d > 6 * g - 6 - s2:
                    if not (r.value == max(0, d + 3 - 3 * g) and r.exact):
                        ok = False
                cases += 1
    _report(3, ok, f"{cases} dispatch cases, exact tails verified")


def test_criterion_4_family_a_sharpness():
    t0 = time.perf_counter()
    cases = 0
    ok = True
    for g in range(3, 9):
        for n in range((g - 2) // 4 + 1):
            for k in range(g - 2 - (4 * n + 2) // 2 + 1):
                r = family_a(g, n, k)
                if not (r.sharp and r.exact_h0 == n + 3 * k + 4):
                    ok = False
                cases += 1
    elapsed = time.perf_counter() - t0
    _report(4, ok and elapsed < 1.0, f"{cases} family-a cases in {elapsed:.2f}s")


def test_criterion_5_family_c_values():
    ok = True
    details = []
    for g in range(2, 9):
        for k in range(g - 1):
            r1 = family_c(g, "E1", k)
            if not (r1.sharp and r1.exact_h0 == 3 * k + 3):
                ok = False
                details.append(f"E1 g={g} k={k}")
            r2 = family_c(g, "E2", k)
            if r2.bound.value - r2.exact_h0 != 1:
                ok = False
                details.append(f"E2 g={g} k={k}")
    slope = family_c(3, "E2", 0).slope
    if slope is None or slope.value != 3:
        ok = False
        details.append("slope certificate")
    if stable_pairs_for_degree5_genus2() != [(2, 1)]:
        ok = False
        details.append("genus-2 pair filter")
    _report(5, ok, "E1 sharp, E2 gap 1, slope 3, unique pair (2,1)"
            if ok else "; ".join(details))


def test_criterion_6_transformation_calculus():
    ok = True
    details = []
    # s1 = m along the certified generic sequences
    for g in range(2, 7):
        c = Curve(g)
        for m in range(1, g + 1):
            out = generic_sequence(seed_state_lemma36(c, 3), m)
            if out.inv.s[0] != m or out.inv.degree != 3 + m:
                ok = False
                details.append(f"generic g={g} m={m}")
    # the tracked lower bound matches the one- and two-step witnesses
    c = Curve(6)
    st1 = step(seed_state_rank3_extended(c), (False, False))
    if st1.inv.s != (1, 2) or s2_lower_bound_track(1) != 2:
        ok = False
        details.append("one-step witness")
    st2 = step(st1, (False, True))
    if st2.inv.s != (2, 1):
        ok = False
        details.append("two-step witness")
    # exhaustive choice walks never violate the congruence invariants
    walks = 0
    choices = list(itertools.product((False, True), repeat=2))
    frontier = [seed_state_rank3_extended(c)]
    for _ in range(6):
        frontier = [step(state, ch) for state in frontier for ch in choices]
        for state in frontier:
            d = state.inv.degree
            if (state.inv.s[0] - d) % 3 or (state.inv.s[1] - 2 * d) % 3:
                ok = False
                details.append("congruence violated")
        walks = len(frontier)
    _report(6, ok, f"generic s1=m, witness track, {walks} length-6 walks congruent"
            if ok else "; ".join(details))


def test_criterion_7_rank2_grid():
    cases = 0
    ok = True
    for g in range(2, 7):
        plain, hyper = Curve(g), Curve(g, hyperelliptic=True)
        for s1 in range(0, 2 * g + 1):
            for d in range(s1 - 4, 4 * g - 4 - s1 + 5, 2):
                r = h0_rank2_bound(plain, d, s1)
                if d < s1 and not (r.value == 0 and r.exact):
                    ok = False
                if d > 4 * g - 4 - s1 and d >= s1 and not (
                    r.value == d + 2 - 2 * g and r.exact
                ):
                    ok = False
                if s1 > 0 and s1 <= d <= 4 * g - 4 - s1:
                    rh = h0_rank2_bound(hyper, d, s1)
                    if rh.value != (d - s1) // 2 + 1:
                        ok = False
                cases += 1
    _report(7, ok, f"{cases} rank-2 grid cases (tails exact, hyperelliptic window)")


def test_criterion_8_unstable_split_sharpness():
    rng = random.Random(20260824)
    ok = True
    checked = 0
    while checked < 20:
        g = rng.randint(2, 8)
        b = rng.randint(0, g - 1)
        a = rng.randint(0, b)
        e_lo = b + 1 if a == b else b
        if e_lo > g - 1:
            continue
        e = rng.randint(e_lo, g - 1)
        # report construction asserts exact <= bound internally
        r = unstable_sharpness(g, 2 * e, 2 * a + 2 * b, 2 * a - 2 * b)
        if not (r.exact_h0 <= r.bound.value and r.sharp):
            ok = False
        checked += 1
    _report(8, ok, f"{checked} random split sums, all within and attaining the bound")
