"""Tests for the DES replica autoscaler and its scaling policies."""

import numpy as np
import pytest

from repro.capacity.model import CapacityModel, ServiceTimeProfile
from repro.metrics.summary import EMPTY_SUMMARY
from repro.obs.registry import MetricsRegistry
from repro.resilience.admission import OverloadPolicy
from repro.servers.spec import ServerSpec
from repro.sim.autoscale import (
    AutoscaleConfig,
    AutoscaleObservation,
    AutoscaleResult,
    ModelPolicy,
    ReactivePolicy,
    StaticPolicy,
    run_autoscaled_cluster,
)
from repro.workload.diurnal import DiurnalArrivals
from repro.workload.servicetime import LognormalDemand

DEMAND = LognormalDemand(mu=-4.6, sigma=0.8)

SPEC = ServerSpec(
    name="autoscale-test-node",
    num_cores=2,
    core_speed=0.5,
    idle_power_watts=30.0,
    peak_power_watts=90.0,
)


def observation(**overrides):
    params = dict(
        now=600.0,
        interval_s=60.0,
        arrival_rate_qps=50.0,
        previous_rate_qps=50.0,
        active_replicas=4,
        provisioned_replicas=4,
        utilization=0.5,
    )
    params.update(overrides)
    return AutoscaleObservation(**params)


def make_trace(horizon_s=600.0, base_qps=15.0, peak_qps=60.0, seed=0):
    """A short diurnal day realized into (arrival_times, demands)."""
    day = DiurnalArrivals(
        base_qps=base_qps,
        peak_qps=peak_qps,
        period_s=horizon_s,
        peak_time_s=horizon_s / 2.0,
    )
    rng = np.random.default_rng(seed)
    times = day.realize_trace(horizon_s, rng)
    demands = DEMAND.demands(times.size, rng)
    return times, demands


def make_config(**overrides):
    params = dict(
        spec=SPEC,
        initial_replicas=2,
        min_replicas=1,
        max_replicas=8,
        warmup_s=30.0,
        control_interval_s=20.0,
        scale_down_cooldown_s=60.0,
        scale_down_stability=2,
    )
    params.update(overrides)
    return AutoscaleConfig(**params)


class TestPolicies:
    def test_static_pins_the_count(self):
        policy = StaticPolicy(replicas=5)
        assert policy.desired_replicas(observation(utilization=0.05)) == 5
        assert policy.desired_replicas(observation(utilization=0.95)) == 5
        with pytest.raises(ValueError):
            StaticPolicy(replicas=0)

    def test_reactive_target_tracking(self):
        policy = ReactivePolicy(target_utilization=0.5)
        # 4 active at 75% busy against a 50% target -> ceil(6) = 6.
        assert policy.desired_replicas(observation(utilization=0.75)) == 6
        # At the target exactly, hold.
        assert policy.desired_replicas(observation(utilization=0.5)) == 4
        # Idle fleet collapses toward one replica, never zero.
        assert policy.desired_replicas(observation(utilization=0.0)) == 1
        with pytest.raises(ValueError):
            ReactivePolicy(target_utilization=1.5)

    def test_model_policy_extrapolates_rising_rate(self):
        model = CapacityModel(
            profile=ServiceTimeProfile.from_demand_model(DEMAND), spec=SPEC
        )
        policy = ModelPolicy(
            model=model, p99_slo_s=0.25, lookahead_s=600.0, headroom=1.0
        )
        flat = policy.desired_replicas(
            observation(arrival_rate_qps=40.0, previous_rate_qps=40.0)
        )
        rising = policy.desired_replicas(
            observation(arrival_rate_qps=40.0, previous_rate_qps=10.0)
        )
        # Rising: 40 + (30/60)*600 = 340 qps predicted vs 40 flat.
        assert rising > flat
        # A falling rate must not extrapolate below the current rate.
        falling = policy.desired_replicas(
            observation(arrival_rate_qps=40.0, previous_rate_qps=80.0)
        )
        assert falling == flat
        with pytest.raises(ValueError):
            ModelPolicy(model=model, p99_slo_s=0.0)


class TestConfigValidation:
    def test_replica_bounds(self):
        with pytest.raises(ValueError, match="min_replicas"):
            make_config(min_replicas=5, max_replicas=2)
        with pytest.raises(ValueError, match="initial_replicas"):
            make_config(initial_replicas=9, max_replicas=8)
        with pytest.raises(ValueError, match="control_interval_s"):
            make_config(control_interval_s=0.0)
        with pytest.raises(ValueError, match="scale_down_stability"):
            make_config(scale_down_stability=0)


class TestRunAutoscaledCluster:
    @pytest.fixture(scope="class")
    def trace(self):
        return make_trace()

    def test_deterministic_under_seed(self, trace):
        times, demands = trace
        config = make_config()
        policy = ReactivePolicy(target_utilization=0.5)
        a = run_autoscaled_cluster(config, policy, times, demands, seed=3)
        b = run_autoscaled_cluster(config, policy, times, demands, seed=3)
        assert np.array_equal(a.latencies(), b.latencies())
        assert a.row_spans == b.row_spans
        assert a.timeline == b.timeline

    def test_static_policy_never_scales(self, trace):
        times, demands = trace
        config = make_config(initial_replicas=4)
        result = run_autoscaled_cluster(
            config, StaticPolicy(replicas=4), times, demands
        )
        assert result.scale_up_events == 0
        assert result.scale_down_events == 0
        assert result.max_provisioned() == 4
        assert result.replica_hours() == pytest.approx(
            4 * result.horizon_s / 3600.0
        )

    def test_bounds_are_enforced(self, trace):
        times, demands = trace
        config = make_config(initial_replicas=2, max_replicas=3)

        class GreedyPolicy:
            name = "greedy"

            def desired_replicas(self, obs):
                return 100

        result = run_autoscaled_cluster(
            config, GreedyPolicy(), times, demands
        )
        assert result.max_provisioned() == 3
        assert all(s.provisioned <= 3 for s in result.timeline)

    def test_min_replicas_floor(self, trace):
        times, demands = trace
        config = make_config(
            initial_replicas=2, min_replicas=2, scale_down_cooldown_s=0.0,
            scale_down_stability=1,
        )

        class ShrinkPolicy:
            name = "shrink"

            def desired_replicas(self, obs):
                return 1

        result = run_autoscaled_cluster(
            config, ShrinkPolicy(), times, demands
        )
        assert all(s.provisioned >= 2 for s in result.timeline)
        assert result.scale_down_events == 0

    def test_scale_down_needs_cooldown_and_stability(self, trace):
        """One shrink request is not enough; the streak plus the
        cooldown gate the retirement, and newest rows retire first."""
        times, demands = trace
        config = make_config(
            initial_replicas=1,
            scale_down_cooldown_s=120.0,
            scale_down_stability=3,
        )

        class UpThenDown:
            name = "up-then-down"

            def desired_replicas(self, obs):
                return 4 if obs.now < 100.0 else 1

        result = run_autoscaled_cluster(
            config, UpThenDown(), times, demands
        )
        assert result.scale_up_events >= 1
        assert result.scale_down_events >= 1
        down_tick = next(
            s for s in result.timeline if s.provisioned < 4 and s.now > 100.0
        )
        # The scale-up lands at the first tick (t=20 s); with a 120 s
        # cooldown and a 3-interval stability streak after the first
        # shrink request (t=100 s), the earliest legal retirement is
        # t=140 s — and shrink requests at 100/120 s must not retire.
        assert down_tick.now >= 140.0
        held = [s for s in result.timeline if 100.0 <= s.now < down_tick.now]
        assert all(s.provisioned == 4 for s in held)
        # Newest-first retirement: the earliest-launched row survives.
        retire_times = [r for _, r in result.row_spans]
        assert result.row_spans[0][1] == max(retire_times)

    def test_warmup_delays_dispatchability(self, trace):
        times, demands = trace
        config = make_config(initial_replicas=1, warmup_s=100.0)

        class BigBang:
            name = "big-bang"

            def desired_replicas(self, obs):
                return 4

        result = run_autoscaled_cluster(config, BigBang(), times, demands)
        first_grow = next(s for s in result.timeline if s.provisioned == 4)
        # Paid for immediately, dispatchable only after the warm-up.
        assert first_grow.active < 4
        warmed = next(
            s
            for s in result.timeline
            if s.now >= first_grow.now + config.warmup_s
        )
        assert warmed.active == 4

    def test_metrics_registry_records_activity(self, trace):
        times, demands = trace
        config = make_config(
            initial_replicas=1, scale_down_cooldown_s=40.0,
            scale_down_stability=1,
        )
        metrics = MetricsRegistry()

        class Sawtooth:
            name = "sawtooth"

            def desired_replicas(self, obs):
                return 3 if (obs.now // 100.0) % 2 == 0 else 1

        result = run_autoscaled_cluster(
            config, Sawtooth(), times, demands, metrics=metrics
        )
        snapshot = metrics.snapshot()
        value = lambda name: snapshot[f"autoscale.{name}"]["value"]  # noqa: E731
        assert value("scale_up_events") == result.scale_up_events
        assert value("scale_down_events") == result.scale_down_events
        assert value("replicas_launched") == len(result.row_spans)
        retired_early = sum(
            1 for _, r in result.row_spans if r < result.horizon_s
        )
        assert value("replicas_retired") == retired_early
        last = result.timeline[-1]
        assert value("provisioned_replicas") == last.provisioned
        assert value("active_replicas") == last.active

    def test_admission_control_sheds_under_overload(self):
        """A deliberately tiny fleet behind a strict admission policy
        sheds instead of queueing without bound, and sheds count
        against SLO attainment."""
        times, demands = make_trace(
            horizon_s=300.0, base_qps=80.0, peak_qps=160.0
        )
        config = make_config(
            initial_replicas=1,
            max_replicas=1,
            overload=OverloadPolicy(max_concurrency=8, queue_limit=4),
        )
        policy = StaticPolicy(replicas=1)
        result = run_autoscaled_cluster(config, policy, times, demands)
        assert result.shed_count > 0
        assert len(result.records) == times.size
        # Sheds are SLO misses even if every served query was fast.
        served_within = np.sum(result.latencies() <= 10.0)
        assert result.slo_attainment(10.0) == pytest.approx(
            served_within / times.size
        )
        metrics = MetricsRegistry()
        again = run_autoscaled_cluster(
            config, policy, times, demands, metrics=metrics
        )
        assert (
            metrics.snapshot()["autoscale.sheds"]["value"]
            == again.shed_count
        )

    def test_summary_of_unserved_run_is_nan(self):
        """A run that served nothing summarizes like a fully shed
        fan-out run (NaN gap), not with an error."""
        result = AutoscaleResult(
            records=[],
            timeline=[],
            horizon_s=1.0,
            policy_name="static",
            row_spans=(),
            scale_up_events=0,
            scale_down_events=0,
        )
        assert result.summary() is EMPTY_SUMMARY

    def test_input_validation(self, trace):
        times, demands = trace
        config = make_config()
        policy = StaticPolicy(replicas=2)
        with pytest.raises(ValueError, match="align"):
            run_autoscaled_cluster(config, policy, times, demands[:-1])
        with pytest.raises(ValueError, match="empty"):
            run_autoscaled_cluster(
                config, policy, np.array([]), np.array([])
            )

    def test_unordered_or_non_finite_trace_rejected(self):
        # The control loop counts arrivals with a binary search over
        # ``arrival_times``; an unsorted trace used to run regardless.
        config = make_config()
        policy = StaticPolicy(replicas=2)
        good = np.full(3, 0.01)
        with pytest.raises(ValueError, match="non-decreasing"):
            run_autoscaled_cluster(
                config, policy, np.array([3.0, 1.0, 2.0]), good
            )
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                run_autoscaled_cluster(
                    config, policy, np.array([1.0, 2.0, bad]), good
                )
            with pytest.raises(ValueError, match="finite"):
                run_autoscaled_cluster(
                    config, policy, np.array([1.0, 2.0, 3.0]),
                    np.array([0.01, bad, 0.01]),
                )

    def test_replica_hours_track_spans(self, trace):
        times, demands = trace
        config = make_config()
        result = run_autoscaled_cluster(
            config, ReactivePolicy(target_utilization=0.5), times, demands
        )
        expected = (
            sum(r - l for l, r in result.row_spans) / 3600.0  # noqa: E741
        )
        assert result.replica_hours() == pytest.approx(expected)
        assert isinstance(result, AutoscaleResult)
        assert result.policy_name == "reactive"
