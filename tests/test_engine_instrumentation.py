"""Tests for timing instrumentation."""

import time

import pytest

from repro.engine.instrumentation import ComponentTimings, Timer


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.01
        assert timer.elapsed < 0.5

    def test_nested_timers_independent(self):
        with Timer() as outer:
            with Timer() as inner:
                time.sleep(0.005)
        assert outer.elapsed >= inner.elapsed

    def test_elapsed_zero_before_use(self):
        assert Timer().elapsed == 0.0

    def test_exit_without_enter_does_not_raise(self):
        """Regression: __exit__ before __enter__ must stay silent.

        Raising from __exit__ would replace whatever exception is
        already propagating out of the with-body.
        """
        timer = Timer()
        timer.__exit__(None, None, None)
        assert timer.elapsed == 0.0

    def test_body_exception_not_masked(self):
        class BodyError(Exception):
            pass

        timer = Timer()
        timer._start = None  # simulate a half-initialized timer
        with pytest.raises(BodyError):
            try:
                raise BodyError()
            finally:
                # Mirrors interpreter behaviour on `with` teardown: if
                # __exit__ raised here, BodyError would be replaced.
                timer.__exit__(BodyError, BodyError(), None)

    def test_reusable(self):
        timer = Timer()
        with timer:
            pass
        first = timer.elapsed
        with timer:
            time.sleep(0.005)
        assert timer.elapsed >= 0.005
        assert timer.elapsed != first


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
