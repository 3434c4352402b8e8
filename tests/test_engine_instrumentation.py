"""Tests for timing instrumentation."""

import pytest

from repro.engine.instrumentation import ComponentTimings


class TestComponentTimings:
    def test_slowest_shard(self):
        timings = ComponentTimings(shard_seconds=[0.1, 0.5, 0.2])
        assert timings.slowest_shard_seconds == 0.5

    def test_skew(self):
        timings = ComponentTimings(shard_seconds=[0.1, 0.5, 0.2])
        assert timings.skew_seconds == pytest.approx(0.4)

    def test_empty_shards(self):
        timings = ComponentTimings()
        assert timings.slowest_shard_seconds == 0.0
        assert timings.skew_seconds == 0.0

    def test_single_shard_no_skew(self):
        """Regression: one shard has no straggler, so skew is 0.0."""
        assert ComponentTimings(shard_seconds=[0.3]).skew_seconds == 0.0
