"""Tail-tolerance policy + native ISN hedging under injected stragglers.

The straggler is deterministic: a wrapper around a real shard searcher
sleeps (or fails) on scripted attempts, so every assertion about hedge
firing, loser cancellation, retries, and coverage is exact rather than
statistical.
"""

import threading
import time

import pytest

from repro.engine.hedging import (
    DISABLED_POLICY,
    HedgingPolicy,
    ShardLatencyTracker,
)
from repro.engine.isn import IndexServingNode
from repro.index.partitioner import partition_index
from repro.obs import MetricsRegistry
from repro.search.executor import SearchCancelled

#: Long enough to dwarf shard service time (~1 ms on the test corpus)
#: and every hedge delay below, short enough to keep the suite fast.
STRAGGLE_S = 0.25


class ScriptedSearcher:
    """Delegates to a real shard searcher, misbehaving on scripted attempts.

    ``slow`` attempts sleep for ``delay_s`` before proceeding (checking
    their cancellation token on wake, like a real traversal reaching a
    cancellation point); ``failing`` attempts raise ``RuntimeError``.
    Attempt numbers restart at every :meth:`begin_query`.
    """

    def __init__(self, inner, delay_s=STRAGGLE_S):
        self._inner = inner
        self._delay_s = delay_s
        self._slow = set()
        self._failing = set()
        self._attempt = 0
        self._lock = threading.Lock()
        self.cancelled_attempts = 0
        self.calls = 0

    def begin_query(self, slow=(), failing=()):
        with self._lock:
            self._slow = set(slow)
            self._failing = set(failing)
            self._attempt = 0

    def search(self, query, cancel=None):
        with self._lock:
            attempt = self._attempt
            self._attempt += 1
            self.calls += 1
        if attempt in self._failing:
            raise RuntimeError(f"scripted failure on attempt {attempt}")
        if attempt in self._slow:
            time.sleep(self._delay_s)
            if cancel is not None and cancel.is_set():
                with self._lock:
                    self.cancelled_attempts += 1
                raise SearchCancelled(f"attempt {attempt} cancelled")
        return self._inner.search(query, cancel=cancel)


def _wait_for_cancellations(scripted, count, timeout=5.0):
    """Block until ``count`` scripted losers observed their cancellation."""
    # time.monotonic, not time.time: a wall-clock step (NTP, DST) would
    # stretch or cut the wait window.
    deadline = time.monotonic() + timeout
    while scripted.cancelled_attempts < count and time.monotonic() < deadline:
        time.sleep(0.005)
    assert scripted.cancelled_attempts >= count


@pytest.fixture(scope="module")
def partitioned(small_collection):
    return partition_index(small_collection, 2)


@pytest.fixture()
def hedged_node(partitioned):
    """Factory: an ISN with a given policy and a scripted shard 0."""
    nodes = []

    def build(policy, metrics=None):
        node = IndexServingNode(partitioned, hedging=policy, metrics=metrics)
        scripted = ScriptedSearcher(node._searchers[0])
        node._searchers[0] = scripted
        nodes.append(node)
        return node, scripted

    yield build
    for node in nodes:
        node.close()


class TestShardLatencyTracker:
    def test_quantile_of_window(self):
        tracker = ShardLatencyTracker(window=8)
        for value in [1.0, 2.0, 3.0, 4.0]:
            tracker.observe(value)
        assert len(tracker) == 4
        assert tracker.quantile(0.5) == 3.0
        assert tracker.quantile(0.99) == 4.0

    def test_window_evicts_oldest(self):
        tracker = ShardLatencyTracker(window=4)
        for value in [100.0, 100.0, 100.0, 100.0, 1.0, 1.0, 1.0, 1.0]:
            tracker.observe(value)
        assert len(tracker) == 4
        assert tracker.quantile(0.9) == 1.0

    def test_empty_tracker_has_no_quantile(self):
        assert ShardLatencyTracker().quantile(0.95) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardLatencyTracker(window=0)
        with pytest.raises(ValueError):
            ShardLatencyTracker().observe(-1.0)
        with pytest.raises(ValueError):
            ShardLatencyTracker().quantile(1.0)


class TestHedgingPolicy:
    def test_default_policy_is_inert(self):
        assert not DISABLED_POLICY.enabled
        assert not DISABLED_POLICY.hedges_enabled
        assert DISABLED_POLICY.resolve_hedge_delay() is None

    def test_mechanisms_enable_independently(self):
        assert HedgingPolicy(hedge_delay_s=0.01).enabled
        assert HedgingPolicy(hedge_quantile=0.95).enabled
        assert HedgingPolicy(deadline_s=0.1).enabled
        assert not HedgingPolicy(deadline_s=0.1).hedges_enabled
        # max_hedges=0 disables hedging even with a delay configured.
        assert not HedgingPolicy(hedge_delay_s=0.01, max_hedges=0).enabled

    def test_validation(self):
        for bad in (
            dict(hedge_delay_s=0.0),
            dict(hedge_quantile=1.0),
            dict(deadline_s=-1.0),
            dict(max_hedges=-1),
            dict(max_retries=-1),
            dict(retry_backoff_s=-0.1),
            dict(retry_backoff_multiplier=0.5),
            dict(min_quantile_samples=0),
        ):
            with pytest.raises(ValueError):
                HedgingPolicy(**bad)

    def test_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            HedgingPolicy(0.01)  # noqa: the point under test

    def test_quantile_delay_needs_warmup(self):
        policy = HedgingPolicy(
            hedge_delay_s=0.05, hedge_quantile=0.5, min_quantile_samples=4
        )
        tracker = ShardLatencyTracker()
        # Cold tracker: fall back to the fixed delay.
        assert policy.resolve_hedge_delay(tracker) == 0.05
        for _ in range(4):
            tracker.observe(0.002)
        # Warmed up: the observed quantile takes over.
        assert policy.resolve_hedge_delay(tracker) == pytest.approx(0.002)

    def test_retry_backoff_grows_exponentially(self):
        policy = HedgingPolicy(
            deadline_s=1.0, retry_backoff_s=0.01, retry_backoff_multiplier=3.0
        )
        assert policy.retry_delay(0) == pytest.approx(0.01)
        assert policy.retry_delay(2) == pytest.approx(0.09)
        with pytest.raises(ValueError):
            policy.retry_delay(-1)


class TestNativeHedging:
    def test_slow_primary_is_hedged_and_hedge_wins(
        self, hedged_node, small_query_log
    ):
        node, scripted = hedged_node(HedgingPolicy(hedge_delay_s=0.02))
        scripted.begin_query(slow={0})
        response = node.execute(small_query_log[0].text)
        assert response.hedges_issued == 1
        assert response.hedges_won == 1
        assert response.deadline_misses == 0
        assert response.coverage == 1.0
        # The hedge answered well before the straggler would have.
        assert response.latency_s < STRAGGLE_S

    def test_hedged_results_match_plain_fanout(
        self, partitioned, hedged_node, small_query_log
    ):
        node, scripted = hedged_node(HedgingPolicy(hedge_delay_s=0.02))
        with IndexServingNode(partitioned) as plain:
            for round_number, query in enumerate(list(small_query_log)[:5]):
                scripted.begin_query(slow={0})
                hedged = node.execute(query.text)
                assert hedged.hedges_won == 1
                assert hedged.doc_ids() == plain.execute(query.text).doc_ids()
                # Wait for the cancelled loser to drain so sleeping
                # threads from past rounds never starve the pool.
                _wait_for_cancellations(scripted, round_number + 1)

    def test_winner_cancels_loser(self, hedged_node, small_query_log):
        node, scripted = hedged_node(HedgingPolicy(hedge_delay_s=0.02))
        scripted.begin_query(slow={0})
        response = node.execute(small_query_log[0].text)
        assert response.hedges_won == 1
        # The losing primary is still asleep when execute() returns; it
        # observes its cancellation token at the next cancellation
        # point (waking up) and abandons the attempt.
        deadline = time.monotonic() + 5.0
        while scripted.cancelled_attempts == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert scripted.cancelled_attempts == 1

    def test_deadline_miss_degrades_coverage(
        self, hedged_node, small_query_log
    ):
        metrics = MetricsRegistry()
        node, scripted = hedged_node(
            HedgingPolicy(deadline_s=0.03, max_hedges=0), metrics=metrics
        )
        scripted.begin_query(slow={0, 1})  # primary and any retry straggle
        response = node.execute(small_query_log[0].text)
        assert response.coverage == 0.5
        assert response.deadline_misses == 1
        assert response.hedges_issued == 0
        # The merge proceeded with the healthy shard's answer.
        assert response.latency_s < STRAGGLE_S
        snapshot = metrics.snapshot()
        assert snapshot["isn.deadline_misses"]["value"] == 1

    def test_failed_attempt_is_retried_with_backoff(
        self, hedged_node, small_query_log
    ):
        metrics = MetricsRegistry()
        node, scripted = hedged_node(
            HedgingPolicy(
                deadline_s=5.0, max_retries=1, retry_backoff_s=0.001
            ),
            metrics=metrics,
        )
        scripted.begin_query(failing={0})
        response = node.execute(small_query_log[0].text)
        assert response.coverage == 1.0
        assert response.deadline_misses == 0
        assert metrics.snapshot()["isn.retries"]["value"] == 1

    def test_exhausted_retries_drop_the_shard(
        self, hedged_node, small_query_log
    ):
        node, scripted = hedged_node(
            HedgingPolicy(deadline_s=5.0, max_retries=1, retry_backoff_s=0.001)
        )
        scripted.begin_query(failing={0, 1})
        response = node.execute(small_query_log[0].text)
        # Both the attempt and its retry failed: the shard is dropped
        # without waiting out the (generous) deadline.
        assert response.coverage == 0.5
        assert response.latency_s < 1.0

    def test_inert_policy_keeps_plain_path(
        self, partitioned, small_query_log
    ):
        with IndexServingNode(partitioned, hedging=HedgingPolicy()) as node:
            assert node.hedging is None
            response = node.execute(small_query_log[0].text)
            assert response.hedges_issued == 0
            assert response.coverage == 1.0

    def test_cache_not_poisoned_by_partial_results(
        self, partitioned, small_query_log
    ):
        """A ``coverage < 1.0`` answer is not stored.

        The outcome follows from the script, not the clock: shard 0 is
        held on an event released only once the query has been
        answered, so it outlasts the deadline by construction, and the
        deadline leaves the healthy shard hundreds of times a query's
        cost (~1 ms on this corpus) to answer on a loaded host.
        """
        from repro.cache.querycache import QueryResultCache

        cache = QueryResultCache(capacity=8)
        with IndexServingNode(
            partitioned,
            hedging=HedgingPolicy(deadline_s=0.5, max_hedges=0),
            cache=cache,
        ) as node:
            healthy = node._searchers[0]
            answered = threading.Event()

            class HeldSearcher:
                def search(self, query, cancel=None):
                    answered.wait(timeout=30.0)
                    return healthy.search(query, cancel=cancel)

            node._searchers[0] = HeldSearcher()
            text = small_query_log[0].text
            try:
                partial = node.execute(text)
            finally:
                answered.set()
            assert partial.coverage < 1.0
            assert partial.deadline_misses >= 1
            assert len(cache) == 0
            # The degraded page was not cached: the next execution runs
            # the full fan-out, answers with full coverage, and *that*
            # page is what the cache serves from then on.
            node._searchers[0] = healthy
            full = node.execute(text)
            assert full.coverage == 1.0
            assert not full.cached
            assert len(full.doc_ids()) >= len(partial.doc_ids())
            replay = node.execute(text)
            assert replay.cached
            assert replay.hits == full.hits
