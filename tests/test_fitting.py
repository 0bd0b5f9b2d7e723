import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspgrowth import (
    ResourceLimitError,
    ValidationError,
    d_tower_series,
    exponent_checks,
    fit_exponent,
    match_verdict,
    psl2_order,
    su_order,
)
from cuspgrowth import fitting
from cuspgrowth.primes import primes_in_range

PRIMES_TO_5000 = primes_in_range(2, 5000)


class TestFitExponent:
    def test_pure_cube_law(self):
        fit = fit_exponent([(j, j**3) for j in (2, 3, 5, 7, 11)])
        assert abs(fit.slope - 3.0) < 1e-9
        assert fit.residual < 1e-18
        assert fit.points_used == 5

    def test_constant_factor_moves_only_the_intercept(self):
        primes = primes_in_range(2, 31)
        plain = fit_exponent([(j, j**3) for j in primes])
        scaled = fit_exponent([(j, 2 * j**3) for j in primes])
        assert abs(scaled.slope - plain.slope) < 1e-9
        assert abs(scaled.intercept - plain.intercept - math.log(2)) < 1e-9

    def test_su3_dimension_slope(self):
        pairs = [(q, su_order(3, q).order) for q in primes_in_range(53, 199)]
        fit = fit_exponent(pairs)
        assert abs(fit.slope - 8.0) <= 0.05

    def test_needs_two_points(self):
        with pytest.raises(ValidationError, match="at least 2"):
            fit_exponent([(2, 8)])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError, match="positive"):
            fit_exponent([(2, 8), (0, 1)])
        with pytest.raises(ValidationError, match="positive"):
            fit_exponent([(2, 8), (3, -27)])

    def test_rejects_degenerate_x(self):
        with pytest.raises(ValidationError, match="coincide"):
            fit_exponent([(2, 8), (2, 16)])


class TestMatchVerdict:
    def test_match_and_mismatch(self):
        assert match_verdict(3.01, 3.0, 0.05) == "MATCH"
        assert match_verdict(3.2, 3.0, 0.05) == "MISMATCH"

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValidationError):
            match_verdict(3.0, 3.0, 0.0)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf])
    def test_tolerance_must_be_finite(self, tolerance):
        with pytest.raises(ValidationError, match="finite"):
            match_verdict(3.0, 3.0, tolerance)


class TestExponentChecks:
    RANGE = (5, 199)
    PRIMES = primes_in_range(*RANGE)

    def test_n2_targets_and_tolerances(self):
        records = exponent_checks(2, 2, *self.RANGE)
        assert [(r["name"], r["target"], r["tolerance"]) for r in records] == [
            ("su3_order_vs_q", 8.0, 0.05),
            ("psl2_order_vs_q", 3.0, 0.05),
            ("cusp_index_vs_q", 5.0, 0.05),
            ("b1_vs_vol", 3 / 8, 0.02),
            ("cusps_vs_vol", 5 / 8, 0.02),
        ]
        assert all(r["verdict"] == "MATCH" for r in records)
        assert all(r["points"] == len(self.PRIMES) for r in records)
        assert all("stated_rate" not in r for r in records)

    def test_n3_flags_the_divergence_from_the_stated_rate(self):
        records = {r["name"]: r for r in exponent_checks(3, 2, *self.RANGE)}
        assert records["su4_order_vs_q"]["tolerance"] == 0.1
        cusps = records["cusps_vs_vol"]
        assert cusps["target"] == 10 / 15
        assert abs(cusps["slope"] - 2 / 3) <= 0.02
        assert cusps["verdict"] == "MATCH"
        assert cusps["stated_rate"] == 0.4
        assert cusps["stated_rate_verdict"] == "DIVERGES_FROM_STATED_RATE"
        assert "diverges" in cusps["note"]
        assert all("stated_rate" not in r for name, r in records.items()
                   if name != "cusps_vs_vol")

    def test_stated_rate_verdict_uses_the_tolerance(self):
        # Within a tolerance of 0.3, 2/3 and 2/5 no longer differ.
        cusps = exponent_checks(3, 2, *self.RANGE, 0.3)[-1]
        assert cusps["stated_rate_verdict"] == "MATCHES_STATED_RATE"

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf])
    def test_non_finite_tolerance_is_refused_before_the_series(self, monkeypatch, tolerance):
        def series(*args):
            raise AssertionError("the D-tower series was built")

        monkeypatch.setattr(fitting, "_d_tower_columns", series)
        with pytest.raises(ValidationError, match="finite"):
            exponent_checks(2, 2, *self.RANGE, tolerance)

    def test_tolerance_overrides_every_check(self):
        records = exponent_checks(2, 2, *self.RANGE, 1e-9)
        assert all(r["tolerance"] == 1e-9 for r in records)
        assert any(r["verdict"] == "MISMATCH" for r in records)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from([2, 3]), st.integers(2, 6))
    def test_slopes_equal_fit_exponent_bit_for_bit(self, data, n, genus):
        # A range [lo, hi] within [2, 5000] holding the primes i..j of
        # PRIMES_TO_5000, 2 to 200 of them.
        i = data.draw(st.integers(0, len(PRIMES_TO_5000) - 2))
        j = data.draw(st.integers(i + 1, min(i + 199, len(PRIMES_TO_5000) - 1)))
        bounds = [1, *PRIMES_TO_5000, 5001]
        lo = data.draw(st.integers(bounds[i] + 1, bounds[i + 1]))
        hi = data.draw(st.integers(bounds[j + 1], bounds[j + 2] - 1))
        primes = PRIMES_TO_5000[i:j + 1]
        series = d_tower_series(n, genus, primes)
        pairs = [
            [(d.q, d.vol_proxy) for d in series],
            [(d.q, psl2_order(d.q)) for d in series],
            [(d.q, d.cusp_proxy) for d in series],
            [(d.vol_proxy, d.b1_proxy) for d in series],
            [(d.vol_proxy, d.cusp_proxy) for d in series],
        ]
        records = exponent_checks(n, genus, lo, hi)
        assert [r["slope"] for r in records] == [fit_exponent(p).slope for p in pairs]
        assert all(r["points"] == len(primes) for r in records)

    def test_one_prime_is_too_few_points(self):
        for lo, hi, count in ((5, 6, 1), (50, 5, 0), (24, 28, 0)):
            with pytest.raises(ValidationError) as err:
                exponent_checks(2, 2, lo, hi)
            assert str(err.value) == f"need at least 2 primes in [{lo}, {hi}], got {count}"
        with pytest.raises(ValidationError, match="at least 2 points, got 1"):
            fit_exponent([(5, 125)])

    def test_refusals_come_cap_range_tolerance_then_model(self):
        with pytest.raises(ResourceLimitError):
            exponent_checks(4, 1, 50, 103, math.nan, cap=102)
        with pytest.raises(ValidationError, match="need at least 2 primes"):
            exponent_checks(4, 1, 50, 5, math.nan)
        with pytest.raises(ValidationError, match="finite"):
            exponent_checks(4, 1, 5, 199, math.nan)
        with pytest.raises(ValidationError, match="n = 2 and n = 3"):
            exponent_checks(4, 1, 5, 199)
