"""Tests for the analytical capacity model and provisioning planner."""

import numpy as np
import pytest

from repro.capacity import (
    CapacityModel,
    CapacityPrediction,
    ServiceTimeProfile,
    peak_replicas,
    static_replica_hours,
)
from repro.cluster.server import PartitionModelConfig
from repro.servers.spec import ServerSpec
from repro.workload.diurnal import DiurnalArrivals
from repro.workload.servicetime import LognormalDemand

DEMAND = LognormalDemand(mu=-4.6, sigma=0.8)

SPEC = ServerSpec(
    name="test-node",
    num_cores=2,
    core_speed=0.5,
    idle_power_watts=30.0,
    peak_power_watts=90.0,
)


@pytest.fixture(scope="module")
def model():
    return CapacityModel(
        profile=ServiceTimeProfile.from_demand_model(DEMAND), spec=SPEC
    )


class TestServiceTimeProfile:
    def test_from_demand_model_is_deterministic(self):
        a = ServiceTimeProfile.from_demand_model(DEMAND)
        b = ServiceTimeProfile.from_demand_model(DEMAND)
        assert np.array_equal(a.samples, b.samples)

    def test_moments_match_the_parametric_model(self):
        profile = ServiceTimeProfile.from_demand_model(DEMAND)
        assert profile.mean == pytest.approx(DEMAND.mean_demand(), rel=0.02)
        assert profile.quantile(0.5) == pytest.approx(
            np.exp(DEMAND.mu), rel=0.05
        )
        assert profile.scv > 0.5  # heavy-tailed, not deterministic

    def test_from_measurements(self):
        profile = ServiceTimeProfile.from_measurements([0.01, 0.02, 0.03])
        assert profile.mean == pytest.approx(0.02)

    def test_validation(self):
        with pytest.raises(ValueError, match="two samples"):
            ServiceTimeProfile(samples=np.array([0.01]))
        with pytest.raises(ValueError, match="non-negative"):
            ServiceTimeProfile(samples=np.array([0.01, -0.5]))
        with pytest.raises(ValueError, match="quantile"):
            ServiceTimeProfile.from_demand_model(DEMAND).quantile(1.5)


class TestPredict:
    def test_prediction_fields(self, model):
        pred = model.predict(20.0)
        assert isinstance(pred, CapacityPrediction)
        assert pred.stable
        assert 0.0 < pred.utilization < 1.0
        assert 0.0 < pred.p50_s < pred.p95_s < pred.p99_s
        assert pred.as_dict()["p99_s"] == pred.p99_s

    def test_latency_monotone_in_load(self, model):
        sat = model.saturation_qps(1, 1)
        p99s = [
            model.predict(sat * f).p99_s for f in (0.2, 0.4, 0.6, 0.8)
        ]
        assert p99s == sorted(p99s)

    def test_replicas_reduce_latency(self, model):
        qps = 0.7 * model.saturation_qps(1, 1)
        single = model.predict(qps, replicas=1)
        doubled = model.predict(qps, replicas=2)
        assert doubled.p99_s < single.p99_s
        assert doubled.utilization == pytest.approx(
            single.utilization / 2.0
        )

    def test_unstable_beyond_saturation(self, model):
        qps = 1.1 * model.saturation_qps(1, 1)
        pred = model.predict(qps)
        assert not pred.stable
        assert pred.p99_s == float("inf")

    def test_deterministic(self, model):
        a = model.predict(30.0, shards=4, replicas=2)
        b = model.predict(30.0, shards=4, replicas=2)
        assert a == b

    def test_merge_revisit_raises_the_wait(self):
        """A nonzero merge step re-queues at the core bank in the DES;
        the model must charge that second visit."""
        profile = ServiceTimeProfile.from_demand_model(DEMAND)
        with_merge = CapacityModel(profile=profile, spec=SPEC)
        flat = CapacityModel(
            profile=profile,
            spec=SPEC,
            partitioning=PartitionModelConfig(
                merge_base=0.0, merge_per_partition=0.0
            ),
        )
        qps = 0.6 * with_merge.saturation_qps(1, 1)
        assert (
            with_merge.predict(qps).mean_wait_s
            > 1.5 * flat.predict(qps).mean_wait_s
        )

    def test_validation(self, model):
        with pytest.raises(ValueError, match="qps"):
            model.predict(0.0)
        with pytest.raises(ValueError, match="shards"):
            model.predict(10.0, shards=0)
        with pytest.raises(ValueError, match="replicas"):
            model.predict(10.0, replicas=-1)


class TestPredictVsDes:
    def test_p99_tracks_the_simulator(self, model):
        """One mid-load point against the DES (the full sweep is the
        fig27 benchmark's job)."""
        from repro.api import ClusterConfig, ClusterModel

        qps = 0.5 * model.saturation_qps(1, 1)
        predicted = model.predict(qps).p99_s
        pooled = np.concatenate(
            [
                ClusterModel(ClusterConfig(num_servers=1, spec=SPEC))
                .run(
                    rate_qps=qps,
                    num_queries=10_000,
                    demand=DEMAND,
                    seed=seed,
                )
                .latencies(0.05)
                for seed in (1, 2)
            ]
        )
        des = float(np.quantile(pooled, 0.99))
        assert predicted == pytest.approx(des, rel=0.2)


class TestReplicasForSlo:
    def test_returns_minimal_count(self, model):
        qps = 2.5 * model.saturation_qps(1, 1)
        slo = 0.25
        needed = model.replicas_for_slo(qps, slo)
        assert model.predict(qps, replicas=needed).p99_s <= slo
        if needed > 1:
            worse = model.predict(qps, replicas=needed - 1)
            assert not worse.stable or worse.p99_s > slo

    def test_impossible_slo_raises(self, model):
        # Below the unloaded service floor: no fleet size can meet it.
        with pytest.raises(ValueError, match="no replica count"):
            model.replicas_for_slo(10.0, 1e-4, max_replicas=8)

    def test_validation(self, model):
        with pytest.raises(ValueError, match="p99_slo_s"):
            model.replicas_for_slo(10.0, 0.0)


class TestAvailabilityAwarePlanning:
    """N+k sizing under an MTTF/MTTR replica fault model."""

    MTTF_S = 150.0
    MTTR_S = 50.0  # availability 0.75

    def test_attainment_is_a_probability(self, model):
        qps = 1.5 * model.saturation_qps(1, 1)
        for replicas in (2, 3, 4):
            attainment = model.attainment(qps, 0.25, replicas=replicas)
            assert 0.0 <= attainment <= 1.0

    def test_attainment_zero_when_unstable(self, model):
        qps = 2.0 * model.saturation_qps(1, 1)
        assert model.attainment(qps, 0.25, replicas=1) == 0.0

    def test_attainment_improves_with_replicas(self, model):
        qps = 1.5 * model.saturation_qps(1, 1)
        assert model.attainment(qps, 0.25, replicas=4) >= model.attainment(
            qps, 0.25, replicas=2
        )

    def test_expected_attainment_below_ideal(self, model):
        qps = 1.5 * model.saturation_qps(1, 1)
        ideal = model.attainment(qps, 0.25, replicas=3)
        expected = model.expected_slo_attainment(
            qps, 0.25, 1, 3, self.MTTF_S, self.MTTR_S
        )
        assert 0.0 <= expected < ideal

    def test_expected_attainment_monotone_in_replicas(self, model):
        qps = 1.5 * model.saturation_qps(1, 1)
        values = [
            model.expected_slo_attainment(
                qps, 0.25, 1, n, self.MTTF_S, self.MTTR_S
            )
            for n in range(2, 8)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_replicas_for_slo_adds_spares(self, model):
        qps = 2.5 * model.saturation_qps(1, 1)
        naive = model.replicas_for_slo(qps, 0.25)
        planned = model.replicas_for_slo(
            qps, 0.25, mttf_s=self.MTTF_S, mttr_s=self.MTTR_S
        )
        assert planned > naive
        assert (
            model.expected_slo_attainment(
                qps, 0.25, 1, planned, self.MTTF_S, self.MTTR_S
            )
            >= 0.99
        )
        if planned > 1:
            assert (
                model.expected_slo_attainment(
                    qps, 0.25, 1, planned - 1, self.MTTF_S, self.MTTR_S
                )
                < 0.99
            )

    def test_perfect_availability_matches_naive(self, model):
        # MTTR ~ 0: replicas are effectively always up, so the
        # availability-aware plan collapses to the load-only sizing.
        qps = 2.5 * model.saturation_qps(1, 1)
        naive = model.replicas_for_slo(qps, 0.25)
        planned = model.replicas_for_slo(
            qps, 0.25, mttf_s=1e12, mttr_s=1e-9, attainment_target=0.99
        )
        assert planned == naive

    def test_both_or_neither_validation(self, model):
        with pytest.raises(ValueError, match="mttf_s and mttr_s"):
            model.replicas_for_slo(10.0, 0.25, mttf_s=100.0)
        with pytest.raises(ValueError, match="mttf_s and mttr_s"):
            model.replicas_for_slo(10.0, 0.25, mttr_s=100.0)

    def test_unreachable_target_raises(self, model):
        # Availability so poor that no fleet within the cap meets the
        # target.
        with pytest.raises(ValueError, match="no replica count"):
            model.replicas_for_slo(
                2.0 * model.saturation_qps(1, 1),
                0.25,
                max_replicas=4,
                mttf_s=1.0,
                mttr_s=100.0,
            )


class TestProvisioningPlan:
    @pytest.fixture(scope="class")
    def day(self):
        return DiurnalArrivals(
            base_qps=10.0,
            peak_qps=120.0,
            period_s=3_600.0,
            peak_time_s=1_800.0,
        )

    def test_peak_replicas_covers_the_peak(self, model, day):
        static_n = peak_replicas(model, day, 0.3, horizon_s=3_600.0)
        peak = day.peak_envelope_qps(3_600.0)
        assert model.predict(1.1 * peak, replicas=static_n).p99_s <= 0.3

    def test_static_replica_hours(self):
        assert static_replica_hours(4, 1_800.0) == pytest.approx(2.0)
