import importlib
from math import comb
from operator import mul

import pytest

from clifford3 import KrawtchoukQuery, delta_vanishes, krawtchouk, krawtchouk_oracle
from clifford3.errors import CongruenceViolation, IndexNegative, OracleRangeExceeded


def _alternating_sums_at_half(max_n):
    """(n, [K_r(n, 2n) for r = 0..2n+1]) for n = 0..max_n by the alternating
    sum sum_j (-1)^j C(n,j) C(n, r-j), the engine's definition, which it no
    longer runs at N = 2n.  The binomials come from Pascal's rule, so
    ``math.comb`` plays no part (test-only)."""
    row = [1]
    for n in range(max_n + 1):
        if n:
            row = [a + b for a, b in zip([0, *row], [*row, 0])]
        signed = [-c if j % 2 else c for j, c in enumerate(row)]
        sums = []
        for r in range(2 * n + 2):
            lo, hi = max(0, r - n), min(n, r)
            sums.append(sum(map(mul, signed[lo:hi + 1], row[r - hi:r - lo + 1][::-1])))
        yield n, sums


class TestClosedForm:
    def test_constant_term_is_one(self):
        for N in range(8):
            for n in range(N + 1):
                assert krawtchouk(KrawtchoukQuery(0, n, N)) == 1

    def test_linear_coefficient(self):
        assert krawtchouk(KrawtchoukQuery(1, 3, 10)) == 4

    def test_squared_difference(self):
        # (1-z)^2 (1+z)^2 = 1 - 2 z^2 + z^4
        assert krawtchouk(KrawtchoukQuery(2, 2, 4)) == -2
        assert krawtchouk(KrawtchoukQuery(1, 2, 4)) == 0
        assert krawtchouk(KrawtchoukQuery(4, 2, 4)) == 1

    def test_zero_beyond_degree(self):
        assert krawtchouk(KrawtchoukQuery(11, 3, 10)) == 0

    def test_pure_binomial_row(self):
        for N in range(21):
            for r in range(N + 1):
                assert krawtchouk(KrawtchoukQuery(r, 0, N)) == comb(N, r)

    def test_row_sums(self):
        # z = 1 kills every row with n >= 1; n = 0 sums to 2^N
        for N in range(21):
            for n in range(N + 1):
                total = sum(krawtchouk(KrawtchoukQuery(r, n, N)) for r in range(N + 1))
                assert total == (0 if n >= 1 else 2**N)

    def test_alternating_sums(self):
        # z = -1 kills every row with n < N
        for N in range(21):
            for n in range(N):
                total = sum(
                    (-1) ** r * krawtchouk(KrawtchoukQuery(r, n, N)) for r in range(N + 1)
                )
                assert total == 0

    def test_n_equals_half_of_N(self):
        # (1-z)^g (1+z)^g = (1-z^2)^g, checked past the oracle's N <= 64
        cases = [(r, g) for g in range(2, 81) for r in range(2 * g + 1)]
        for g in (128, 256):
            cases += [(r, g) for r in (*range(0, 2 * g + 1, 7), g, 2 * g - 1, 2 * g)]
        for r, g in cases:
            want = 0 if r % 2 else (-1) ** (r // 2) * comb(g, r // 2)
            assert krawtchouk(KrawtchoukQuery(r, g, 2 * g)) == want, (r, g)

    def test_half_of_N_matches_the_alternating_sum(self):
        for n, sums in _alternating_sums_at_half(300):
            for r, want in enumerate(sums):
                assert krawtchouk(KrawtchoukQuery(r, n, 2 * n)) == want, (r, n)

    def test_half_of_N_takes_at_most_one_binomial(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return comb(a, b)

        # the package exports the function under the module's name
        module = importlib.import_module("clifford3.krawtchouk")
        monkeypatch.setattr(module, "comb", counted)
        for n in (0, 1, 2, 7, 64, 300):
            for r in range(2 * n + 2):
                calls.clear()
                krawtchouk(KrawtchoukQuery(r, n, 2 * n))
                assert len(calls) <= 1, (r, n, calls)

    def test_rejects_bad_query(self):
        with pytest.raises(ValueError):
            KrawtchoukQuery(0, 5, 4)
        with pytest.raises(ValueError):
            KrawtchoukQuery(-1, 0, 4)


class TestOracle:
    def test_matches_closed_form_on_grid(self):
        for N in range(31):
            for n in range(N + 1):
                for r in range(N + 1):
                    q = KrawtchoukQuery(r, n, N)
                    assert krawtchouk(q) == krawtchouk_oracle(q)

    def test_top_coefficient(self):
        assert krawtchouk_oracle(KrawtchoukQuery(4, 2, 4)) == 1

    def test_pure_sum_factor(self):
        assert krawtchouk_oracle(KrawtchoukQuery(3, 0, 3)) == 1

    def test_range_cap(self):
        with pytest.raises(OracleRangeExceeded):
            krawtchouk_oracle(KrawtchoukQuery(0, 0, 65))


class TestDeltaVanishes:
    # delta_vanishes(g, deg, t) tests K_{(deg-t)/2+1}(g, 2g-t) of a rank-2
    # bundle of degree deg with s1 = t
    def test_index_beyond_degree_vanishes(self):
        # index (12-0)/2 + 1 = 7 exceeds N = 2g = 6
        assert delta_vanishes(3, 12, 0) is True

    def test_oracle_checked_value(self):
        # index (7-1)/2 + 1 = 4; coefficient of z^4 in (1-z)^3 (1+z)^2
        expected = krawtchouk_oracle(KrawtchoukQuery(4, 3, 5))
        assert delta_vanishes(3, 7, 1) is (expected == 0)

    def test_squared_difference_zero(self):
        # index (4-0)/2 + 1 = 3: z^3 in (1-z)^2 (1+z)^2 = 1 - 2 z^2 + z^4
        assert delta_vanishes(2, 4, 0) is True

    def test_at_s1f_zero_matches_the_alternating_sum(self):
        # t = 0 gives N = 2g, the one-binomial path, at every index 0..2g+1
        sums = dict(_alternating_sums_at_half(12))
        for g in range(2, 13):
            for deg in range(-2, 4 * g + 1, 2):
                want = sums[g][deg // 2 + 1] == 0
                assert delta_vanishes(g, deg, 0) is want, (g, deg)

    def test_rejects_nondivisible_index(self):
        # an odd deg - t leaves the index (deg-t)/2 + 1 fractional
        with pytest.raises(CongruenceViolation) as exc:
            delta_vanishes(3, 7, 0)
        assert exc.value.r == 1

    def test_negative_index(self):
        # index (0-4)/2 + 1 = -1
        with pytest.raises(IndexNegative):
            delta_vanishes(3, 0, 4)
