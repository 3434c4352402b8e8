"""Unit tests for the resilience subsystem (admission, breakers, faults).

The state machines are clock-agnostic, so every test drives them with
explicit ``now`` values — no sleeping, no wall-clock flakiness.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.registry import MetricsRegistry
from repro.resilience.admission import (
    SHED_CAPACITY,
    SHED_CODEL,
    SHED_QUEUE_FULL,
    AdmissionController,
    AimdConfig,
    BlockingAdmissionGate,
    OverloadPolicy,
    ShedResponse,
)
from repro.resilience.breaker import (
    BreakerBoard,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
)
from repro.resilience.faults import (
    ErrorBurst,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    ShardCrash,
    ShardSlowdown,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the image
    HAVE_HYPOTHESIS = False


class TestShedResponse:
    def test_satisfies_query_outcome_protocol(self):
        from repro.api import QueryOutcome

        response = ShedResponse(reason=SHED_CAPACITY, latency_s=0.001)
        assert isinstance(response, QueryOutcome)
        assert response.coverage == 0.0
        assert response.doc_ids() == []
        assert response.hits == ()
        assert response.shed is True

    def test_real_outcomes_do_not_read_as_shed(self):
        class Served:
            pass

        assert getattr(Served(), "shed", False) is False


class TestOverloadPolicy:
    def test_default_policy_is_inert(self):
        assert OverloadPolicy().enabled is False

    def test_any_mechanism_enables(self):
        assert OverloadPolicy(max_concurrency=4).enabled
        assert OverloadPolicy(aimd=AimdConfig()).enabled

    def test_inert_policy_rejected_by_controller(self):
        with pytest.raises(ValueError, match="inert"):
            AdmissionController(OverloadPolicy())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_concurrency": 0},
            {"queue_limit": -1},
            {"codel_target_delay_s": 0.0},
            {"codel_interval_s": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OverloadPolicy(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_limit": 0.5},
            {"max_limit": 2.0, "initial_limit": 4.0},
            {"cooldown_s": -1.0},
            {"baseline_latency_s": 0.0},
        ],
    )
    def test_aimd_validation(self, kwargs):
        with pytest.raises(ValueError):
            AimdConfig(**kwargs)


class TestAdmissionController:
    def test_hard_limit_admits_up_to_capacity(self):
        controller = AdmissionController(OverloadPolicy(max_concurrency=2))
        assert controller.decide(0.0) == "admit"
        controller.admit(0.0)
        assert controller.decide(0.0) == "admit"
        controller.admit(0.0)
        assert controller.decide(0.0) == SHED_CAPACITY

    def test_queue_then_shed(self):
        controller = AdmissionController(
            OverloadPolicy(max_concurrency=1, queue_limit=1)
        )
        controller.admit(0.0)
        assert controller.decide(0.0) == "queue"
        controller.enqueue(0.0)
        assert controller.decide(0.0) == SHED_QUEUE_FULL

    def test_complete_frees_a_slot(self):
        controller = AdmissionController(OverloadPolicy(max_concurrency=1))
        controller.admit(0.0)
        controller.complete(0.01, 0.01)
        assert controller.decide(0.02) == "admit"
        assert controller.served_count == 1

    def test_dequeue_without_codel_always_admits(self):
        controller = AdmissionController(
            OverloadPolicy(max_concurrency=1, queue_limit=4)
        )
        controller.enqueue(0.0)
        assert controller.dequeue(10.0, enqueued_at=0.0) is True

    def test_codel_drops_after_standing_interval(self):
        policy = OverloadPolicy(
            max_concurrency=1,
            queue_limit=10,
            codel_target_delay_s=0.01,
            codel_interval_s=0.1,
        )
        controller = AdmissionController(policy)
        # Delay above target, but the excursion just started: admitted.
        controller.enqueue(0.0)
        assert controller.dequeue(0.05, enqueued_at=0.0) is True
        # Still above target a full interval later: dropping begins.
        controller.enqueue(0.05)
        assert controller.dequeue(0.2, enqueued_at=0.05) is False
        assert controller.shed_count == 1
        # A query whose wait is back under target resets the controller.
        controller.enqueue(0.2)
        assert controller.dequeue(0.205, enqueued_at=0.2) is True
        controller.enqueue(0.21)
        assert controller.dequeue(0.25, enqueued_at=0.21) is True

    def test_aimd_decrease_on_slow_latency(self):
        aimd = AimdConfig(
            initial_limit=10.0,
            baseline_latency_s=0.01,
            cooldown_s=0.0,
        )
        controller = AdmissionController(OverloadPolicy(aimd=aimd))
        controller.admit(0.0)
        controller.complete(0.1, latency_s=0.05)  # 5x baseline
        assert controller.limit == pytest.approx(7.0)

    def test_aimd_additive_increase_scaled_by_limit(self):
        aimd = AimdConfig(initial_limit=10.0, baseline_latency_s=0.01)
        controller = AdmissionController(OverloadPolicy(aimd=aimd))
        controller.admit(0.0)
        controller.complete(0.1, latency_s=0.01)
        assert controller.limit == pytest.approx(10.0 + 1.0 / 10.0)

    def test_aimd_cooldown_coalesces_decreases(self):
        aimd = AimdConfig(
            initial_limit=16.0, baseline_latency_s=0.01, cooldown_s=1.0
        )
        controller = AdmissionController(OverloadPolicy(aimd=aimd))
        for step in range(3):
            controller.admit(0.0)
            controller.complete(0.1 + step * 0.01, latency_s=0.5)
        # One congestion event, not three.
        assert controller.limit == pytest.approx(16.0 * 0.7)

    def test_aimd_first_sample_seeds_baseline(self):
        controller = AdmissionController(
            OverloadPolicy(aimd=AimdConfig(initial_limit=8.0))
        )
        controller.admit(0.0)
        controller.complete(0.0, latency_s=0.4)  # seeds, never judged
        assert controller.limit == pytest.approx(8.0)
        controller.admit(0.0)
        controller.complete(1.0, latency_s=0.41)  # healthy vs 0.4 baseline
        assert controller.limit > 8.0

    def test_hard_cap_ceils_adaptive_limit(self):
        policy = OverloadPolicy(
            max_concurrency=4,
            aimd=AimdConfig(initial_limit=32.0, baseline_latency_s=0.01),
        )
        controller = AdmissionController(policy)
        assert controller.limit == 4.0
        assert controller.aimd_limit == 32.0


def _simulate_aimd(capacity: int, steps: int = 4000):
    """Drive the limiter against a backend with a hard knee.

    Below ``capacity`` concurrent queries the backend answers at its
    base latency; above it, latency scales with the overload factor —
    a crude but monotone congestion signal.
    """
    base = 0.01
    aimd = AimdConfig(
        initial_limit=1.0,
        max_limit=512.0,
        baseline_latency_s=base,
        cooldown_s=0.04,
    )
    controller = AdmissionController(OverloadPolicy(aimd=aimd))
    now = 0.0
    trajectory = []
    for _ in range(steps):
        now += base
        concurrency = controller.limit
        if concurrency <= capacity:
            latency = base
        else:
            latency = base * 3.0 * (concurrency / capacity)
        controller.admit(now)
        controller.complete(now, latency)
        trajectory.append(controller.limit)
    return trajectory


class TestAimdConvergence:
    """The limiter must find the backend's true sustainable concurrency."""

    if HAVE_HYPOTHESIS:

        @given(capacity=st.integers(min_value=4, max_value=96))
        @settings(max_examples=25, deadline=None)
        def test_limit_converges_to_capacity(self, capacity):
            trajectory = _simulate_aimd(capacity)
            tail = trajectory[-500:]
            mean_limit = sum(tail) / len(tail)
            assert capacity / 2.0 <= mean_limit <= capacity * 1.5, (
                f"limit settled at {mean_limit:.1f} for capacity {capacity}"
            )
            assert max(tail) <= capacity * 2.0

    else:  # pragma: no cover - exercised only without hypothesis

        @pytest.mark.parametrize("capacity", [4, 12, 33, 96])
        def test_limit_converges_to_capacity(self, capacity):
            trajectory = _simulate_aimd(capacity)
            tail = trajectory[-500:]
            mean_limit = sum(tail) / len(tail)
            assert capacity / 2.0 <= mean_limit <= capacity * 1.5
            assert max(tail) <= capacity * 2.0

    def test_limit_never_leaves_bounds(self):
        trajectory = _simulate_aimd(8)
        assert all(1.0 <= limit <= 512.0 for limit in trajectory)


class TestBlockingGate:
    def test_admit_and_release(self):
        gate = BlockingAdmissionGate(OverloadPolicy(max_concurrency=1))
        assert gate.acquire() is None
        gate.release(0.01)
        assert gate.controller.in_flight == 0
        assert gate.controller.served_count == 1

    def test_shed_at_capacity(self):
        gate = BlockingAdmissionGate(OverloadPolicy(max_concurrency=1))
        assert gate.acquire() is None
        assert gate.acquire() == SHED_CAPACITY
        assert gate.controller.shed_count == 1


CFG = BreakerConfig(
    failure_threshold=3,
    recovery_time_s=1.0,
    half_open_probes=1,
    success_threshold=1,
)


class TestCircuitBreakerTransitions:
    """Exhaustive walk of the closed/open/half-open state machine."""

    def test_closed_allows(self):
        breaker = CircuitBreaker(CFG)
        assert breaker.state(0.0) is BreakerState.CLOSED
        assert breaker.allow(0.0) is True

    def test_closed_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(CFG)
        for _ in range(CFG.failure_threshold - 1):
            breaker.record_failure(0.0)
        assert breaker.state(0.0) is BreakerState.CLOSED
        assert breaker.trips == 0

    def test_closed_trips_at_threshold(self):
        breaker = CircuitBreaker(CFG)
        for _ in range(CFG.failure_threshold):
            breaker.record_failure(0.0)
        assert breaker.state(0.0) is BreakerState.OPEN
        assert breaker.trips == 1

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(CFG)
        for _ in range(CFG.failure_threshold - 1):
            breaker.record_failure(0.0)
        breaker.record_success(0.0)
        for _ in range(CFG.failure_threshold - 1):
            breaker.record_failure(0.0)
        assert breaker.state(0.0) is BreakerState.CLOSED

    def test_open_blocks_until_recovery(self):
        breaker = CircuitBreaker(CFG)
        for _ in range(CFG.failure_threshold):
            breaker.record_failure(0.0)
        assert breaker.allow(0.5) is False
        assert breaker.state(0.99) is BreakerState.OPEN

    def test_open_ignores_late_failures(self):
        breaker = CircuitBreaker(CFG)
        for _ in range(CFG.failure_threshold):
            breaker.record_failure(0.0)
        breaker.record_failure(0.5)  # straggler from before the trip
        assert breaker.trips == 1
        # The recovery clock was not restarted by the late failure.
        assert breaker.state(1.0) is BreakerState.HALF_OPEN

    def test_open_goes_half_open_after_recovery(self):
        breaker = CircuitBreaker(CFG)
        for _ in range(CFG.failure_threshold):
            breaker.record_failure(0.0)
        assert breaker.state(1.0) is BreakerState.HALF_OPEN

    def test_half_open_bounds_probes(self):
        breaker = CircuitBreaker(CFG)
        for _ in range(CFG.failure_threshold):
            breaker.record_failure(0.0)
        assert breaker.allow(1.0) is True  # reserves the only probe slot
        assert breaker.allow(1.0) is False

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(CFG)
        for _ in range(CFG.failure_threshold):
            breaker.record_failure(0.0)
        assert breaker.allow(1.0) is True
        breaker.record_success(1.01)
        assert breaker.state(1.01) is BreakerState.CLOSED
        assert breaker.allow(1.02) is True

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(CFG)
        for _ in range(CFG.failure_threshold):
            breaker.record_failure(0.0)
        assert breaker.allow(1.0) is True
        breaker.record_failure(1.01)
        assert breaker.state(1.01) is BreakerState.OPEN
        assert breaker.trips == 2
        # Recovery clock restarted at the failed probe.
        assert breaker.state(1.5) is BreakerState.OPEN
        assert breaker.state(2.5) is BreakerState.HALF_OPEN

    def test_multi_probe_success_threshold(self):
        config = BreakerConfig(
            failure_threshold=1,
            recovery_time_s=1.0,
            half_open_probes=2,
            success_threshold=2,
        )
        breaker = CircuitBreaker(config)
        breaker.record_failure(0.0)
        assert breaker.allow(1.0) is True
        assert breaker.allow(1.0) is True
        assert breaker.allow(1.0) is False  # both probe slots taken
        breaker.record_success(1.1)
        assert breaker.state(1.1) is BreakerState.HALF_OPEN
        breaker.record_success(1.2)
        assert breaker.state(1.2) is BreakerState.CLOSED

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"recovery_time_s": 0.0},
            {"half_open_probes": 0},
            {"success_threshold": 0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            BreakerConfig(**kwargs)


class TestHalfOpenConcurrency:
    """Concurrent requests race a half-open breaker's single probe slot.

    ``allow`` both checks and *reserves* the slot under the breaker's
    lock, so exactly one of N simultaneous callers is admitted as the
    probe; the losers are refused — the fan-out turns that refusal into
    an open-breaker skip — and the breaker's fate rides entirely on
    the winner's outcome.
    """

    RACERS = 8

    def _tripped_half_open(self) -> CircuitBreaker:
        breaker = CircuitBreaker(CFG)
        for _ in range(CFG.failure_threshold):
            breaker.record_failure(0.0)
        assert breaker.state(1.0) is BreakerState.HALF_OPEN
        return breaker

    def _race_allow(self, breaker: CircuitBreaker, now: float):
        barrier = threading.Barrier(self.RACERS)
        outcomes = [None] * self.RACERS

        def racer(slot: int) -> None:
            barrier.wait()
            outcomes[slot] = breaker.allow(now)

        threads = [
            threading.Thread(target=racer, args=(slot,))
            for slot in range(self.RACERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return outcomes

    def test_exactly_one_concurrent_probe_admitted(self):
        breaker = self._tripped_half_open()
        outcomes = self._race_allow(breaker, 1.0)
        assert sum(outcomes) == 1
        # The losers' refusals left the breaker half-open, still
        # waiting on the in-flight probe.
        assert breaker.state(1.0) is BreakerState.HALF_OPEN

    def test_winner_success_closes_for_everyone(self):
        breaker = self._tripped_half_open()
        self._race_allow(breaker, 1.0)
        breaker.record_success(1.01)
        assert breaker.state(1.01) is BreakerState.CLOSED
        assert all(self._race_allow(breaker, 1.02))

    def test_winner_failure_keeps_losers_fenced(self):
        breaker = self._tripped_half_open()
        self._race_allow(breaker, 1.0)
        breaker.record_failure(1.01)
        assert breaker.state(1.01) is BreakerState.OPEN
        # Re-racing during the restarted recovery window admits no one.
        assert not any(self._race_allow(breaker, 1.5))


class TestBreakerBoard:
    def test_lazy_per_key_breakers(self):
        board = BreakerBoard(CFG)
        assert board.breaker(0) is board.breaker(0)
        assert board.breaker(0) is not board.breaker(1)

    def test_trips_aggregate(self):
        board = BreakerBoard(CFG)
        for _ in range(CFG.failure_threshold):
            board.breaker((0, 1)).record_failure(0.0)
        for _ in range(CFG.failure_threshold):
            board.breaker((2, 0)).record_failure(0.0)
        assert board.trips == 2
        states = board.states(0.0)
        assert states[(0, 1)] is BreakerState.OPEN
        assert states[(2, 0)] is BreakerState.OPEN

    def test_export_gauges_encodes_states(self):
        board = BreakerBoard(CFG)
        board.breaker(0)  # closed
        for _ in range(CFG.failure_threshold):
            board.breaker(1).record_failure(0.0)  # open
        metrics = MetricsRegistry()
        board.export_gauges(metrics, "isn.breaker", now=0.0)
        snapshot = metrics.snapshot()
        assert snapshot["isn.breaker.0.state"]["value"] == 0.0
        assert snapshot["isn.breaker.1.state"]["value"] == 2.0

    def test_export_gauges_joins_tuple_keys(self):
        board = BreakerBoard(CFG)
        board.breaker((3, 1))
        metrics = MetricsRegistry()
        board.export_gauges(metrics, "fanout.breaker", now=0.0)
        assert "fanout.breaker.3-1.state" in metrics.snapshot()


class TestFaultPlan:
    def test_default_plan_is_inert(self):
        assert FaultPlan().enabled is False

    def test_lists_coerced_to_tuples(self):
        plan = FaultPlan(
            crashes=[ShardCrash(shard=0, start_s=0.0, duration_s=1.0)]
        )
        assert isinstance(plan.crashes, tuple)
        assert plan.enabled

    def test_crash_windows_sorted_and_filtered(self):
        plan = FaultPlan(
            crashes=(
                ShardCrash(shard=1, start_s=2.0, duration_s=1.0),
                ShardCrash(shard=1, start_s=0.0, duration_s=0.5),
                ShardCrash(shard=0, start_s=0.0, duration_s=9.0),
            )
        )
        assert plan.crash_windows(1) == ((0.0, 0.5), (2.0, 3.0))
        assert plan.crashed(1, None, 2.5)
        assert not plan.crashed(1, None, 1.0)

    def test_replica_scoping(self):
        crash = ShardCrash(shard=1, start_s=0.0, duration_s=1.0, replica=0)
        plan = FaultPlan(crashes=(crash,))
        assert plan.crashed(1, 0, 0.5)
        assert not plan.crashed(1, 1, 0.5)
        # Replica-agnostic queries match replica-scoped faults.
        assert plan.crashed(1, None, 0.5)

    def test_overlapping_slowdowns_multiply(self):
        plan = FaultPlan(
            slowdowns=(
                ShardSlowdown(shard=0, start_s=0.0, duration_s=2.0, factor=2.0),
                ShardSlowdown(shard=0, start_s=1.0, duration_s=2.0, factor=3.0),
            )
        )
        assert plan.slowdown_factor(0, None, 0.5) == pytest.approx(2.0)
        assert plan.slowdown_factor(0, None, 1.5) == pytest.approx(6.0)
        assert plan.slowdown_factor(0, None, 2.5) == pytest.approx(3.0)
        assert plan.slowdown_factor(1, None, 1.5) == pytest.approx(1.0)

    def test_error_rates_compose(self):
        plan = FaultPlan(
            error_bursts=(
                ErrorBurst(
                    shard=0, start_s=0.0, duration_s=1.0, error_rate=0.5
                ),
                ErrorBurst(
                    shard=0, start_s=0.0, duration_s=1.0, error_rate=0.5
                ),
            )
        )
        assert plan.error_rate(0, None, 0.5) == pytest.approx(0.75)
        assert plan.error_rate(0, None, 2.0) == 0.0

    def test_flapping_shard_builder(self):
        plan = FaultPlan.flapping_shard(
            2, period_s=1.0, duty=0.25, horizon_s=3.0
        )
        assert plan.crash_windows(2) == (
            (0.0, 0.25),
            (1.0, 1.25),
            (2.0, 2.25),
        )
        with pytest.raises(ValueError):
            FaultPlan.flapping_shard(0, period_s=1.0, duty=1.5, horizon_s=1.0)

    def test_describe_lists_every_fault(self):
        plan = FaultPlan(
            crashes=(ShardCrash(shard=1, start_s=0.0, duration_s=1.0),),
            slowdowns=(
                ShardSlowdown(shard=0, start_s=0.0, duration_s=1.0, factor=2.0),
            ),
            error_bursts=(
                ErrorBurst(
                    shard=2, start_s=0.5, duration_s=1.0, error_rate=0.1
                ),
            ),
        )
        text = "\n".join(plan.describe())
        assert "crash" in text and "shard 1" in text
        assert "slowdown" in text and "x2" in text
        assert "errors" in text and "p=0.1" in text
        assert FaultPlan().describe() == ["(no faults)"]

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ShardCrash(shard=0, start_s=-1.0, duration_s=1.0),
            lambda: ShardCrash(shard=0, start_s=0.0, duration_s=0.0),
            lambda: ShardSlowdown(
                shard=0, start_s=0.0, duration_s=1.0, factor=0.5
            ),
            lambda: ErrorBurst(
                shard=0, start_s=0.0, duration_s=1.0, error_rate=0.0
            ),
            lambda: ErrorBurst(
                shard=0, start_s=0.0, duration_s=1.0, error_rate=1.5
            ),
        ],
    )
    def test_fault_validation(self, factory):
        with pytest.raises(ValueError):
            factory()


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestFaultInjector:
    def test_crash_raises_injected_fault(self):
        clock = FakeClock()
        plan = FaultPlan(
            crashes=(ShardCrash(shard=1, start_s=0.0, duration_s=1.0),)
        )
        injector = FaultInjector(plan, clock=clock)
        clock.now += 0.5
        with pytest.raises(InjectedFault) as excinfo:
            injector.before_search(1)
        assert excinfo.value.kind == "crash"
        assert excinfo.value.shard == 1
        assert injector.injected_crashes == 1
        injector.before_search(0)  # healthy shard unaffected

    def test_crash_window_expires(self):
        clock = FakeClock()
        plan = FaultPlan(
            crashes=(ShardCrash(shard=1, start_s=0.0, duration_s=1.0),)
        )
        injector = FaultInjector(plan, clock=clock)
        clock.now += 1.5
        injector.before_search(1)  # restarted, no raise
        assert injector.injected_crashes == 0

    def test_error_burst_is_deterministic_per_seed(self):
        def draws(seed):
            clock = FakeClock()
            plan = FaultPlan(
                error_bursts=(
                    ErrorBurst(
                        shard=0, start_s=0.0, duration_s=10.0, error_rate=0.5
                    ),
                ),
                seed=seed,
            )
            injector = FaultInjector(plan, clock=clock)
            outcomes = []
            for _ in range(50):
                clock.now += 0.01
                try:
                    injector.before_search(0)
                    outcomes.append(False)
                except InjectedFault:
                    outcomes.append(True)
            return outcomes

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)

    def test_certain_error_burst_always_raises(self):
        clock = FakeClock()
        plan = FaultPlan(
            error_bursts=(
                ErrorBurst(
                    shard=0, start_s=0.0, duration_s=1.0, error_rate=1.0
                ),
            )
        )
        injector = FaultInjector(plan, clock=clock)
        clock.now += 0.5
        with pytest.raises(InjectedFault) as excinfo:
            injector.before_search(0)
        assert excinfo.value.kind == "error"
        assert injector.injected_errors == 1

    def test_slowdown_pads_service_time(self):
        clock = FakeClock()
        plan = FaultPlan(
            slowdowns=(
                ShardSlowdown(shard=0, start_s=0.0, duration_s=10.0, factor=3.0),
            )
        )
        injector = FaultInjector(plan, clock=clock)
        clock.now += 1.0
        injector.slowdown_sleep(0, service_elapsed_s=0.001)
        assert injector.injected_slowdowns == 1
        injector.slowdown_sleep(1, service_elapsed_s=0.001)  # healthy shard
        assert injector.injected_slowdowns == 1

    def test_start_reanchors_epoch(self):
        clock = FakeClock()
        plan = FaultPlan(
            crashes=(ShardCrash(shard=0, start_s=0.0, duration_s=1.0),)
        )
        injector = FaultInjector(plan, clock=clock)
        clock.now += 5.0
        injector.before_search(0)  # past the window
        injector.start()
        with pytest.raises(InjectedFault):
            injector.before_search(0)  # window restarted
