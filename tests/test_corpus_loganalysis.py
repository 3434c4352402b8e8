"""Tests for query-log analysis utilities."""

import numpy as np
import pytest

from repro.corpus.loganalysis import (
    estimate_popularity_exponent,
    profile_query_log,
    traffic_concentration,
)


class TestEstimatePopularityExponent:
    def test_recovers_generator_exponent(self, small_query_log):
        rng = np.random.default_rng(0)
        stream = small_query_log.sample_stream(60_000, rng)
        exponent, r_squared = estimate_popularity_exponent(
            [q.query_id for q in stream]
        )
        assert exponent == pytest.approx(
            small_query_log.popularity_exponent, abs=0.2
        )
        assert r_squared > 0.9

    def test_uniform_stream_gives_near_zero(self):
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 50, size=20_000)
        exponent, _ = estimate_popularity_exponent(ids)
        assert abs(exponent) < 0.15

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_popularity_exponent([])

    def test_tiny_stream_rejected(self):
        with pytest.raises(ValueError):
            estimate_popularity_exponent([0, 1, 2])


class TestTrafficConcentration:
    def test_zipf_head_dominates(self, small_query_log):
        rng = np.random.default_rng(2)
        stream = small_query_log.sample_stream(30_000, rng)
        shares = traffic_concentration(
            [q.query_id for q in stream], [0.01, 0.10, 1.0]
        )
        assert shares[0] > 0.03  # top 1% of uniques > 3% of traffic
        assert shares[0] < shares[1] < shares[2]
        assert shares[2] == pytest.approx(1.0)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            traffic_concentration([0, 1], [0.0])
        with pytest.raises(ValueError):
            traffic_concentration([], [0.5])


class TestProfileQueryLog:
    def test_profile_fields(self, small_query_log):
        profile = profile_query_log(small_query_log, stream_length=30_000)
        assert profile.num_unique_queries == len(small_query_log)
        assert profile.mean_terms_per_query > 1.0
        assert sum(profile.term_count_mix.values()) == pytest.approx(1.0)
        assert (
            profile.top_1pct_traffic_share
            < profile.top_10pct_traffic_share
            <= 1.0
        )

    def test_invalid_stream_length(self, small_query_log):
        with pytest.raises(ValueError):
            profile_query_log(small_query_log, stream_length=0)
