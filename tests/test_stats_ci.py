"""Tests for confidence intervals (paper equations 1-2)."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.errors import InsufficientSamplesError, StatisticsError
from repro.stats.ci import (
    Z_SCORES,
    ConfidenceInterval,
    intervals_overlap,
    nonparametric_median_ci,
    parametric_mean_ci,
    z_score,
)


class TestZScore:
    def test_95_percent(self):
        assert z_score(0.95) == pytest.approx(1.96, abs=1e-3)

    def test_99_percent(self):
        assert z_score(0.99) == pytest.approx(2.576, abs=1e-3)

    def test_arbitrary_level_via_scipy(self):
        assert z_score(0.98) == pytest.approx(2.326, abs=1e-2)

    def test_table_levels_are_exact(self):
        for confidence, score in Z_SCORES.items():
            assert z_score(confidence) == score

    @pytest.mark.parametrize("confidence", [0.8, 0.951, 0.995])
    def test_off_table_levels_match_normal_quantile(self, confidence):
        # Levels near a table entry must not snap to it: 0.995 is
        # 2.807, not the 0.99 score 2.5758.
        expected = float(scipy_stats.norm.ppf(0.5 + confidence / 2.0))
        assert z_score(confidence) == expected

    def test_invalid_confidence(self):
        with pytest.raises(StatisticsError):
            z_score(1.0)


class TestNonparametricCI:
    def test_paper_example_shape(self, rng):
        """A sampled median of ~20 with a tight CI around it."""
        samples = rng.normal(20.0, 0.5, size=200)
        interval = nonparametric_median_ci(samples)
        assert interval.contains(float(np.median(samples)))
        assert interval.kind == "nonparametric-median"
        assert 19 < interval.point < 21

    def test_bounds_are_order_statistics(self):
        samples = list(range(1, 101))  # 1..100, median 50.5
        interval = nonparametric_median_ci(samples, confidence=0.95)
        n, z = 100, 1.96
        lower_rank = int(np.floor((n - z * np.sqrt(n)) / 2))
        upper_rank = int(np.ceil(1 + (n + z * np.sqrt(n)) / 2))
        assert interval.lower == float(lower_rank)      # value == rank
        assert interval.upper == float(upper_rank)

    def test_median_always_inside(self, rng):
        for _ in range(20):
            samples = rng.exponential(10.0, size=30)
            interval = nonparametric_median_ci(samples)
            assert interval.contains(float(np.median(samples)))

    def test_too_few_samples_raise(self):
        with pytest.raises(InsufficientSamplesError):
            nonparametric_median_ci([1.0, 2.0, 3.0])

    def test_higher_confidence_wider(self, rng):
        samples = rng.normal(100, 10, size=200)
        narrow = nonparametric_median_ci(samples, confidence=0.90)
        wide = nonparametric_median_ci(samples, confidence=0.99)
        assert wide.width >= narrow.width

    def test_coverage_on_known_distribution(self):
        """~95% of CIs on exponential samples must contain the true
        median (a property-style coverage check)."""
        true_median = 10.0 * np.log(2.0)
        hits = 0
        trials = 300
        rng = np.random.default_rng(0)
        for _ in range(trials):
            samples = rng.exponential(10.0, size=50)
            interval = nonparametric_median_ci(samples)
            if interval.contains(true_median):
                hits += 1
        assert hits / trials > 0.88


class TestParametricCI:
    def test_mean_inside(self, rng):
        samples = rng.normal(50, 5, size=100)
        interval = parametric_mean_ci(samples)
        assert interval.contains(float(np.mean(samples)))

    def test_width_shrinks_with_n(self, rng):
        small = parametric_mean_ci(rng.normal(50, 5, size=20))
        large = parametric_mean_ci(rng.normal(50, 5, size=2000))
        assert large.width < small.width

    def test_zero_variance_collapses(self):
        interval = parametric_mean_ci([5.0] * 10)
        assert interval.width == pytest.approx(0.0)


class TestIntervalOperations:
    def make(self, lower, upper):
        return ConfidenceInterval(
            point=(lower + upper) / 2, lower=lower, upper=upper,
            confidence=0.95, kind="test")

    def test_overlap_symmetric(self):
        a, b = self.make(0, 10), self.make(5, 15)
        assert a.overlaps(b) and b.overlaps(a)
        assert intervals_overlap(a, b)

    def test_disjoint(self):
        a, b = self.make(0, 10), self.make(11, 20)
        assert not a.overlaps(b)

    def test_touching_counts_as_overlap(self):
        a, b = self.make(0, 10), self.make(10, 20)
        assert a.overlaps(b)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(StatisticsError):
            self.make(10, 0)

    def test_relative_error(self):
        interval = ConfidenceInterval(
            point=100.0, lower=99.0, upper=101.0,
            confidence=0.95, kind="test")
        assert interval.relative_error() == pytest.approx(0.01)

    def test_format_readable(self):
        interval = self.make(19.8, 20.2)
        assert "[19.80, 20.20]" in interval.format("us")

    def test_nan_input_rejected(self):
        with pytest.raises(StatisticsError):
            nonparametric_median_ci([1.0, float("nan")] * 20)
