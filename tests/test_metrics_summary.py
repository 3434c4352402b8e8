"""Unit tests for latency summaries and histograms."""

import numpy as np
import pytest

from repro.metrics.histogram import Histogram, cdf_points
from repro.metrics.summary import summarize


class TestSummarize:
    def test_summary_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.count == 5
        assert summary.mean == 3.0
        assert summary.p50 == 3.0
        assert summary.max == 5.0

    def test_percentiles_ordered(self):
        samples = np.random.default_rng(1).lognormal(0, 1, 2_000)
        summary = summarize(samples)
        assert (
            summary.p50
            <= summary.p90
            <= summary.p95
            <= summary.p99
            <= summary.p999
            <= summary.max
        )

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 10, 99, 100, 1000, 1001])
    def test_percentiles_equal_one_call_per_quantile(self, size):
        data = np.random.default_rng(size).lognormal(size=size)
        s = summarize(data)
        ordered = np.sort(data)
        expected = [
            float(np.percentile(ordered, q, method="lower"))
            for q in (50, 90, 95, 99, 99.9)
        ]
        got = [s.p50, s.p90, s.p95, s.p99, s.p999]
        assert [type(value) for value in got] == [float] * 5
        assert got == expected

    def test_tail_ratio(self):
        summary = summarize([1.0] * 90 + [100.0] * 10)
        assert summary.tail_ratio > 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_scaled(self):
        summary = summarize([1.0, 2.0]).scaled(1000.0)
        assert summary.mean == 1500.0
        assert summary.count == 2

    def test_as_dict(self):
        data = summarize([1.0]).as_dict()
        assert set(data) == {
            "count", "mean", "p50", "p90", "p95", "p99", "p999", "max",
        }


class TestHistogram:
    def test_counts_cover_all_samples(self):
        samples = np.random.default_rng(2).lognormal(0, 0.5, 500)
        histogram = Histogram.from_samples(samples, num_bins=20)
        assert histogram.total == 500

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Histogram.from_samples([0.0, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Histogram.from_samples([])

    def test_constant_samples(self):
        histogram = Histogram.from_samples([2.0, 2.0, 2.0], num_bins=5)
        assert histogram.total == 3

    def test_densities_sum_to_one(self):
        histogram = Histogram.from_samples([1.0, 2.0, 4.0, 8.0], num_bins=8)
        assert histogram.densities().sum() == pytest.approx(1.0)

    def test_mode_bin(self):
        histogram = Histogram.from_samples([1.0, 1.01, 1.02, 100.0], num_bins=10)
        low, high = histogram.mode_bin()
        assert low <= 1.02 and high < 100.0


class TestCdfPoints:
    def test_endpoints(self):
        points = cdf_points([1.0, 2.0, 3.0], num_points=5)
        assert points[0] == (1.0, 0.0)
        assert points[-1] == (3.0, 1.0)

    def test_monotone(self):
        samples = np.random.default_rng(3).exponential(1.0, 300)
        points = cdf_points(samples, num_points=50)
        values = [value for value, _ in points]
        assert values == sorted(values)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            cdf_points([], num_points=5)
        with pytest.raises(ValueError):
            cdf_points([1.0], num_points=1)
