import pytest

from clifford3 import KrawtchoukQuery, delta_vanishes, krawtchouk, krawtchouk_oracle
from clifford3.errors import CongruenceViolation, IndexNegative, OracleRangeExceeded


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
        from math import comb

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
        from math import comb

        cases = [(r, g) for g in range(2, 81) for r in range(2 * g + 1)]
        for g in (128, 256):
            cases += [(r, g) for r in (*range(0, 2 * g + 1, 7), g, 2 * g - 1, 2 * g)]
        for r, g in cases:
            want = 0 if r % 2 else (-1) ** (r // 2) * comb(g, r // 2)
            assert krawtchouk(KrawtchoukQuery(r, g, 2 * g)) == want, (r, g)

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
    def test_index_beyond_degree_vanishes(self):
        # index (2*20+0-0)/6 + 1 = 7 exceeds N = 2g = 6
        assert delta_vanishes(3, 18, 0, 0) is True

    def test_oracle_checked_value(self):
        # index (20+1-3)/6 + 1 = 4; coefficient of z^4 in (1-z)^3 (1+z)^2
        expected = krawtchouk_oracle(KrawtchoukQuery(4, 3, 5))
        assert delta_vanishes(3, 10, 1, 1) is (expected == 0)

    def test_squared_difference_zero(self):
        assert delta_vanishes(2, 6, 0, 0) is True

    def test_rejects_nondivisible_index(self):
        with pytest.raises(CongruenceViolation):
            delta_vanishes(3, 10, 0, 1)

    def test_negative_index(self):
        with pytest.raises(IndexNegative):
            delta_vanishes(3, 0, 0, 4)
