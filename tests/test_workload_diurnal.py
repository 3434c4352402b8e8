"""Tests for the diurnal + flash-crowd trace generator."""

import numpy as np
import pytest

from repro.sim.random import RandomStreams
from repro.workload.diurnal import DiurnalArrivals, FlashCrowd


def make_day(**overrides):
    params = dict(
        base_qps=5.0,
        peak_qps=40.0,
        period_s=3_600.0,
        peak_time_s=2_000.0,
    )
    params.update(overrides)
    return DiurnalArrivals(**params)


class TestFlashCrowd:
    def test_multiplier_shape(self):
        crowd = FlashCrowd(
            start_s=100.0, magnitude=3.0, ramp_s=10.0, hold_s=20.0,
            decay_s=10.0,
        )
        t = np.array([0.0, 99.9, 105.0, 115.0, 129.9, 135.0, 140.0, 500.0])
        factor = crowd.multiplier_at(t)
        assert factor[0] == 1.0 and factor[1] == 1.0  # before
        assert factor[2] == pytest.approx(2.0)  # mid-ramp
        assert factor[3] == 3.0  # hold
        assert factor[4] == pytest.approx(3.0, abs=0.05)  # hold end
        assert factor[5] == pytest.approx(2.0)  # mid-decay
        assert factor[6] == 1.0 and factor[7] == 1.0  # after
        assert crowd.end_s == 140.0

    def test_validation(self):
        with pytest.raises(ValueError, match="magnitude"):
            FlashCrowd(start_s=0.0, magnitude=0.5)
        with pytest.raises(ValueError, match="start_s"):
            FlashCrowd(start_s=-1.0, magnitude=2.0)


class TestEnvelope:
    def test_trough_and_peak(self):
        day = make_day()
        assert float(day.envelope_qps(2_000.0)) == pytest.approx(40.0)
        trough = 2_000.0 - 1_800.0  # half a period from the peak
        assert float(day.envelope_qps(trough)) == pytest.approx(5.0)
        assert day.peak_envelope_qps() == pytest.approx(40.0, rel=0.01)

    def test_flash_crowd_multiplies_envelope(self):
        crowd = FlashCrowd(
            start_s=2_000.0, magnitude=2.0, ramp_s=1.0, hold_s=50.0,
            decay_s=1.0,
        )
        day = make_day(flash_crowds=(crowd,))
        assert float(day.envelope_qps(2_020.0)) == pytest.approx(
            80.0, rel=1e-3
        )
        assert day.peak_envelope_qps() == pytest.approx(80.0, rel=0.01)

    def test_mean_envelope_between_base_and_peak(self):
        day = make_day()
        mean = day.mean_envelope_qps()
        assert 5.0 < mean < 40.0


class TestDeterminism:
    def test_same_seed_identical_arrivals(self):
        day = make_day()
        a = day.arrival_times(2_000, np.random.default_rng(42))
        b = day.arrival_times(2_000, np.random.default_rng(42))
        assert np.array_equal(a, b)
        t1 = day.realize_trace(1_800.0, np.random.default_rng(7))
        t2 = day.realize_trace(1_800.0, np.random.default_rng(7))
        assert np.array_equal(t1, t2)

    def test_different_seeds_differ(self):
        day = make_day()
        a = day.arrival_times(500, np.random.default_rng(1))
        b = day.arrival_times(500, np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_unrelated_streams_do_not_perturb_arrivals(self):
        """The repro.sim.random contract: arrivals drawn from a named
        stream are identical no matter what other streams are consumed
        (partition count, imbalance draws, demand sampling...)."""
        day = make_day()

        def trace_with_extra_consumption(num_extra_streams):
            streams = RandomStreams(1234)
            for i in range(num_extra_streams):
                streams.stream(f"imbalance-{i}").random(1000)
            return day.realize_trace(1_200.0, streams.stream("arrivals"))

        baseline = trace_with_extra_consumption(0)
        for partitions in (2, 8):
            assert np.array_equal(
                baseline, trace_with_extra_consumption(partitions)
            )


class TestThinning:
    def test_sorted_positive_within_horizon(self):
        day = make_day()
        times = day.realize_trace(1_800.0, np.random.default_rng(0))
        assert times.size > 0
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0.0
        assert times[-1] < 1_800.0

    def test_arrival_times_returns_exact_count(self):
        day = make_day()
        times = day.arrival_times(777, np.random.default_rng(0))
        assert times.size == 777
        assert np.all(np.diff(times) >= 0)

    def test_realized_rate_tracks_envelope(self):
        """Windowed arrival counts match the deterministic envelope."""
        day = make_day()
        times = day.realize_trace(3_600.0, np.random.default_rng(5))
        for window in ((1_800.0, 2_200.0), (100.0, 500.0)):
            lo, hi = window
            count = int(np.sum((times >= lo) & (times < hi)))
            grid = np.linspace(lo, hi, 200)
            expected = float(np.trapezoid(day.envelope_qps(grid), grid))
            assert count == pytest.approx(expected, rel=0.15)

    def test_flash_crowd_adds_arrivals(self):
        crowd = FlashCrowd(
            start_s=500.0, magnitude=3.0, ramp_s=30.0, hold_s=200.0,
            decay_s=30.0,
        )
        plain = make_day()
        flashy = make_day(flash_crowds=(crowd,))
        t_plain = plain.realize_trace(1_000.0, np.random.default_rng(9))
        t_flash = flashy.realize_trace(1_000.0, np.random.default_rng(9))
        in_window = lambda t: int(np.sum((t >= 500.0) & (t < 760.0)))  # noqa: E731
        assert in_window(t_flash) > 2 * in_window(t_plain)

    def test_bursty_modulation_is_deterministic_and_sorted(self):
        day = make_day(
            burst_multiplier=2.5,
            mean_burst_dwell_s=2.0,
            mean_base_dwell_s=10.0,
        )
        a = day.realize_trace(600.0, np.random.default_rng(3))
        b = day.realize_trace(600.0, np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_day(base_qps=0.0)
        with pytest.raises(ValueError):
            make_day(peak_qps=4.0)  # below base
        with pytest.raises(ValueError):
            make_day(period_s=-1.0)
        with pytest.raises(ValueError):
            make_day(burst_multiplier=0.5)
