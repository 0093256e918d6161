from itertools import product

import pytest
from hypothesis import assume, given, strategies as st

from clifford3 import (
    BoundResult,
    BundleInvariants,
    Curve,
    ExampleReport,
    family_a,
    family_b,
    family_c,
    genus_reports,
    stable_pairs_for_degree5_genus2,
    suite,
    unstable_sharpness,
)
from clifford3.errors import HypothesisFailed, ParamsOutOfRange, UnrealizableF


class TestParams:
    def test_family_a_ranges(self):
        family_a(5, 0, 2)
        with pytest.raises(ParamsOutOfRange):
            family_a(2, 0, 0)  # genus too small
        with pytest.raises(ParamsOutOfRange):
            family_a(5, 1, 0)  # 4n+2 = 6 > g
        with pytest.raises(ParamsOutOfRange):
            family_a(5, 0, 3)  # k beyond g-2-m/2

    def test_family_b_ranges(self):
        family_b(4, 2)
        family_b(2, 1)  # the one odd value allowed, at genus 2
        with pytest.raises(ParamsOutOfRange):
            family_b(4, 3)
        with pytest.raises(ParamsOutOfRange):
            family_b(4, 6)
        with pytest.raises(ParamsOutOfRange):
            family_b(3, 1)

    def test_family_c_ranges(self):
        family_c(3, "E1", 0)
        with pytest.raises(ParamsOutOfRange):
            family_c(3, "E3", 0)
        with pytest.raises(ParamsOutOfRange):
            family_c(3, "E1", 2)


class TestExampleReport:
    def _bound(self, v):
        return BoundResult(v, "RANK3-MAIN")

    def test_rejects_exact_above_bound(self):
        with pytest.raises(ValueError):
            ExampleReport(
                "a", Curve(3, True), BundleInvariants(3, 6, (0, 0)), 7, self._bound(6)
            )

    def test_to_dict(self):
        r = ExampleReport(
            "a", Curve(3, True), BundleInvariants(3, 6, (0, 0)), 5, self._bound(6)
        )
        d = r.to_dict()
        assert d["genus"] == 3 and d["sharp"] is False and d["bound"]["value"] == 6

    def test_list_params_and_notes_are_stored_as_tuples(self):
        args = ("a", Curve(3, True), BundleInvariants(3, 6, (0, 0)), 5, self._bound(6))
        r = ExampleReport(*args, params=[("n", 0)], notes=["x"])
        assert r.params == (("n", 0),) and r.notes == ("x",)
        assert r == ExampleReport(*args, params=(("n", 0),), notes=("x",))
        assert hash(r) == hash(ExampleReport(*args, params=(("n", 0),), notes=("x",)))


class TestFamilyA:
    def test_known_value(self):
        r = family_a(5, 0, 2)
        assert r.exact_h0 == 10 and r.bound.value == 10 and r.sharp
        assert r.inv == BundleInvariants(3, 18, (0, 0))
        assert r.params == (("n", 0), ("k", 2), ("m", 2))
        assert r.to_dict()["params"] == {"n": 0, "k": 2, "m": 2}

    def test_sharp_across_small_genus(self):
        for g in range(3, 9):
            for n in range((g - 2) // 4 + 1):
                for k in range(g - 2 - (4 * n + 2) // 2 + 1):
                    r = family_a(g, n, k)
                    assert r.sharp
                    assert r.exact_h0 == n + 3 * k + 4


class TestFamilyB:
    def test_even_m(self):
        r = family_b(4, 2)
        assert r.exact_h0 == 3 and r.sharp
        assert r.inv == BundleInvariants(3, 5, (2, 1))

    def test_genus2_m1(self):
        r = family_b(2, 1)
        assert r.exact_h0 == 3 and r.sharp
        assert r.inv == BundleInvariants(3, 4, (1, 2))

    def test_genus2_m2_fails_the_window(self):
        with pytest.raises(HypothesisFailed):
            family_b(2, 2)


class TestFamilyC:
    def test_e1_sharp(self):
        r = family_c(3, "E1", 0)
        assert r.exact_h0 == 3 and r.bound.value == 3 and r.sharp
        r = family_c(3, "E1", 1)
        assert r.exact_h0 == 6 and r.sharp

    def test_e2_gap_one(self):
        for g in (3, 4, 5):
            for k in range(g - 1):
                r = family_c(g, "E2", k)
                assert r.bound.value - r.exact_h0 == 1 and not r.sharp

    def test_e2_slope_certificate_at_k0(self):
        r = family_c(3, "E2", 0)
        assert r.slope is not None and r.slope.value == 3
        assert r.slope.value == r.exact_h0  # the gap to the main bound is real

    def test_e2_genus2_note(self):
        r = family_c(2, "E2", 0)
        assert r.slope is not None and r.slope.value == 4
        assert any("genus 2" in n for n in r.notes)

    def test_degree5_genus2_pair_is_unique(self):
        assert stable_pairs_for_degree5_genus2() == [(2, 1)]


class TestUnstableSharpness:
    def test_unstable_quotient_witness(self):
        # pencil^2 + pencil^0 + pencil^1 at genus 3
        r = unstable_sharpness(3, 4, 2, -2)
        assert r.exact_h0 == 6 and r.sharp
        assert r.inv == BundleInvariants(3, 6, (-6, -6))

    def test_semistable_quotient_witness(self):
        # pencil^2 + pencil^1 + pencil^1 at genus 3
        r = unstable_sharpness(3, 4, 4, 0)
        assert r.exact_h0 == 7 and r.sharp
        assert r.inv == BundleInvariants(3, 8, (-4, -2))

    def test_odd_line_degree_uses_a_general_point(self):
        r = unstable_sharpness(4, 5, 2, -2)
        assert r.exact_h0 == 6 and r.sharp
        assert any("point" in n for n in r.notes)

    def test_odd_line_degree_out_of_modeled_range(self):
        with pytest.raises(UnrealizableF):
            unstable_sharpness(2, 3, 0, 0)

    def test_unrealizable_f(self):
        with pytest.raises(UnrealizableF):
            unstable_sharpness(3, 6, 3, -1)  # odd degree
        with pytest.raises(UnrealizableF):
            unstable_sharpness(3, 6, 2, 2)  # positive s1F
        with pytest.raises(UnrealizableF):
            unstable_sharpness(3, 6, 2, 0)  # (dF + s1F) % 4 != 0

    def test_dominance_required(self):
        with pytest.raises(ParamsOutOfRange):
            unstable_sharpness(3, 2, 4, 0)

    def test_every_report_has_the_forced_s1f_and_is_sharp(self):
        # every report with dL, dF in [0, 4g-2] and s1F in [-(4g-2), 0] at
        # g = 2..15; the family takes dF = 2a + 2b and s1F = 2a - 2b with
        # 0 <= a <= b.  3*s1F = 2*s2 - s1 is the s1f forced when s1 + s2 < 0.
        reports = 0
        for g in range(2, 16):
            top = 4 * g - 2
            for dL, b in product(range(top + 1), range(top // 2 + 1)):
                for a in range(min(b, top // 2 - b) + 1):
                    try:
                        r = unstable_sharpness(g, dL, 2 * a + 2 * b, 2 * a - 2 * b)
                    except (ParamsOutOfRange, UnrealizableF):
                        continue
                    s1, s2 = r.inv.s
                    assert 3 * (2 * a - 2 * b) == 2 * s2 - s1, r
                    assert r.sharp, r
                    reports += 1
        assert reports == 18578


class TestSuite:
    def test_reports_are_valid_and_family_a_sharp(self):
        reports = suite(40)
        assert reports
        families = {r.family for r in reports}
        assert families == {"a", "b", "c"}
        for r in reports:
            assert r.exact_h0 <= r.bound.value
            if r.family in ("a", "b"):
                assert r.sharp

    @pytest.mark.parametrize("max_genus", range(-1, 13))
    def test_suite_is_the_genus_blocks_in_order(self, max_genus):
        assert suite(max_genus) == [
            r
            for f in "abc"
            for g in range(2, max_genus + 1)
            for r in genus_reports(f, g)
        ]

    def test_genus_reports_of_one_genus(self):
        assert genus_reports("a", 2) == []
        assert [r.params for r in genus_reports("b", 2)] == [(("m", 1),)]
        for family in "abc":
            assert {r.curve.genus for r in genus_reports(family, 7)} == {7}
            assert {r.family for r in genus_reports(family, 7)} == {family}
        with pytest.raises(ParamsOutOfRange):
            genus_reports("unstable", 5)


class TestUnstableWithinBound:
    @given(data=st.data(), g=st.integers(2, 40))
    def test_split_sums_to_genus_40(self, data, g):
        # drawn as acceptance criterion 8 draws them: pencil^e + pencil^a +
        # pencil^b with a <= b <= e < g and the line summand dominant
        b = data.draw(st.integers(0, g - 1))
        a = data.draw(st.integers(0, b))
        e_lo = b + 1 if a == b else b
        assume(e_lo <= g - 1)
        e = data.draw(st.integers(e_lo, g - 1))
        r = unstable_sharpness(g, 2 * e, 2 * a + 2 * b, 2 * a - 2 * b)
        assert r.exact_h0 <= r.bound.value
