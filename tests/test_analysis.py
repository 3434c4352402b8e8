"""Unit tests for distribution fitting and statistics helpers."""

import numpy as np
import pytest

from repro.analysis.distributions import fit_exponential, fit_lognormal
from repro.analysis.stats import linear_fit


class TestFitLognormal:
    def test_recovers_parameters(self):
        rng = np.random.default_rng(0)
        samples = rng.lognormal(mean=-2.0, sigma=0.6, size=20_000)
        fit = fit_lognormal(samples)
        assert fit.mu == pytest.approx(-2.0, abs=0.05)
        assert fit.sigma == pytest.approx(0.6, abs=0.05)
        assert fit.ks_distance < 0.02

    def test_mean_median_consistency(self):
        rng = np.random.default_rng(1)
        samples = rng.lognormal(-1.0, 0.5, 10_000)
        fit = fit_lognormal(samples)
        assert fit.mean() > fit.median()  # right skew
        assert fit.median() == pytest.approx(np.exp(-1.0), rel=0.05)

    def test_percentile(self):
        fit = fit_lognormal(np.random.default_rng(2).lognormal(0, 1, 5_000))
        assert fit.percentile(99) > fit.percentile(50)

    def test_lognormal_beats_exponential_on_lognormal_data(self):
        rng = np.random.default_rng(3)
        samples = rng.lognormal(-3.0, 0.8, 5_000)
        assert fit_lognormal(samples).ks_distance < fit_exponential(
            samples
        ).ks_distance

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_lognormal([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_lognormal([])

    def test_constant_samples(self):
        fit = fit_lognormal([2.0] * 10)
        assert fit.median() == pytest.approx(2.0)


class TestFitExponential:
    def test_recovers_rate(self):
        rng = np.random.default_rng(4)
        samples = rng.exponential(scale=0.25, size=20_000)
        fit = fit_exponential(samples)
        assert fit.rate == pytest.approx(4.0, rel=0.05)
        assert fit.mean() == pytest.approx(0.25, rel=0.05)
        assert fit.ks_distance < 0.02


class TestLinearFit:
    def test_exact_line(self):
        x = [0.0, 1.0, 2.0, 3.0]
        y = [1.0, 3.0, 5.0, 7.0]
        intercept, slope, r_squared = linear_fit(x, y)
        assert intercept == pytest.approx(1.0)
        assert slope == pytest.approx(2.0)
        assert r_squared == pytest.approx(1.0)

    def test_noisy_line(self):
        rng = np.random.default_rng(7)
        x = np.linspace(0, 10, 200)
        y = 0.5 + 2.0 * x + rng.normal(0, 0.1, 200)
        intercept, slope, r_squared = linear_fit(x, y)
        assert slope == pytest.approx(2.0, abs=0.05)
        assert r_squared > 0.99

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            linear_fit([1.0], [1.0])
        with pytest.raises(ValueError):
            linear_fit([1.0, 2.0], [1.0])
