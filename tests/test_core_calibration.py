"""Tests for native → simulator calibration."""

import numpy as np
import pytest

from repro.core.calibration import (
    calibrate_from_measurements,
    calibrate_isn,
    demand_model_from_calibration,
    lognormal_model_from_measurements,
)
from repro.engine.driver import QueryMeasurement
from repro.engine.isn import IndexServingNode
from repro.index.partitioner import partition_index


def make_measurement(query_id, volume, seconds, terms=2):
    return QueryMeasurement(
        query_id=query_id,
        text="q",
        num_raw_terms=terms,
        service_seconds=seconds,
        matched_volume=volume,
        num_hits=10,
    )


class TestCalibrateFromMeasurements:
    def test_recovers_exact_affine_model(self):
        measurements = [
            make_measurement(i, volume, 0.002 + 1e-5 * volume)
            for i, volume in enumerate([10, 100, 500, 1_000, 2_000])
        ]
        calibration = calibrate_from_measurements(measurements)
        assert calibration.base_seconds == pytest.approx(0.002, rel=1e-6)
        assert calibration.per_posting_seconds == pytest.approx(1e-5, rel=1e-6)
        assert calibration.r_squared == pytest.approx(1.0)
        assert calibration.num_measurements == 5

    def test_volume_explains_the_variance_under_noise(self):
        # Affine service times plus seeded timer noise of about a third
        # of the signal's spread: the fit recovers the coefficients and
        # attributes most of the variance to the postings volume.
        rng = np.random.default_rng(7)
        volumes = rng.integers(50, 5_000, size=60)
        noise = rng.normal(0.0, 1e-4, size=60)
        measurements = [
            make_measurement(i, int(volume), 2e-4 + 2e-7 * int(volume) + float(error))
            for i, (volume, error) in enumerate(zip(volumes, noise))
        ]
        calibration = calibrate_from_measurements(measurements)
        assert calibration.num_measurements == 60
        assert calibration.base_seconds == pytest.approx(2e-4, rel=0.25)
        assert calibration.per_posting_seconds == pytest.approx(2e-7, rel=0.1)
        assert 0.8 < calibration.r_squared < 1.0

    def test_predicted_demand(self):
        measurements = [
            make_measurement(i, volume, 0.001 + 2e-6 * volume)
            for i, volume in enumerate([0, 1_000])
        ]
        calibration = calibrate_from_measurements(measurements)
        assert calibration.predicted_demand(500) == pytest.approx(
            0.002, rel=1e-6
        )

    def test_negative_coefficients_clamped(self):
        measurements = [
            make_measurement(0, 100, 0.01),
            make_measurement(1, 200, 0.001),  # nonsense slope
        ]
        calibration = calibrate_from_measurements(measurements)
        assert calibration.per_posting_seconds >= 0.0
        assert calibration.base_seconds >= 0.0

    def test_too_few_measurements(self):
        with pytest.raises(ValueError):
            calibrate_from_measurements([make_measurement(0, 1, 0.1)])


class TestCalibrateIsn:
    def test_end_to_end_calibration(self, small_collection, small_query_log):
        # Medians of 5 repeats: the 300-document corpus has sub-ms
        # service times, where scheduler noise on a loaded machine is
        # proportionally large.
        with IndexServingNode(partition_index(small_collection, 1)) as isn:
            calibration = calibrate_isn(
                isn, small_query_log, num_queries=60, repeats=5
            )
        # Structure only: how much of the variance the postings volume
        # explains on live timings is a wall-clock reading (a fixed
        # per-query cost dominates this corpus), so the R² claim is the
        # deterministic noisy-affine case above.
        assert calibration.num_measurements == 60
        assert calibration.per_posting_seconds >= 0
        assert calibration.base_seconds >= 0
        assert calibration.service_summary.mean > 0

    def test_invalid_num_queries(self, small_collection, small_query_log):
        with IndexServingNode(partition_index(small_collection, 1)) as isn:
            with pytest.raises(ValueError):
                calibrate_isn(isn, small_query_log, num_queries=0)


class TestDemandModels:
    def test_demand_model_from_calibration(
        self, small_index, small_query_log, rng
    ):
        measurements = [
            make_measurement(i, volume, 0.001 + 1e-6 * volume)
            for i, volume in enumerate([10, 100, 1_000])
        ]
        calibration = calibrate_from_measurements(measurements)
        model = demand_model_from_calibration(
            calibration, small_index, small_query_log
        )
        draws = model.demands(50, rng)
        assert np.all(draws >= calibration.base_seconds)

    def test_lognormal_model(self, rng):
        source = np.random.default_rng(0).lognormal(-4.0, 0.5, 400)
        measurements = [
            make_measurement(i, 100, float(seconds))
            for i, seconds in enumerate(source)
        ]
        model = lognormal_model_from_measurements(measurements)
        assert model.mean_demand() == pytest.approx(source.mean(), rel=0.1)
