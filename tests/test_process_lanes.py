"""The process backend's lanes: the caller scores one, workers the rest.

A submission of n work items is dealt into ``min(n, W + 1)`` contiguous
lanes.  The calling thread sends the worker lanes down their pipes,
scores lane 0 with the node's own searchers, then collects the replies
itself — there is no dispatcher thread between it and the pipes.  This
file pins what that must not change (bit-identical answers to the thread
backend at every partition count, worker count, entry point and batch
size; typed crashes naming only the worker's shards; many clients on one
node) and what it must hold (lane 0 on the caller's thread, one send per
worker lane, no dispatcher threads, hedging on ``isn-shard`` pool
threads).
"""

import os
import signal
import statistics
import sys
import threading
import time

import pytest

from repro.engine.execution import ExecutionConfig
from repro.engine.hedging import HedgingPolicy
from repro.engine.isn import IndexServingNode
from repro.engine.mp import WorkerCrashError
from repro.index.partitioner import partition_index
from repro.obs.registry import MetricsRegistry
from repro.predict.predictor import ServiceTimePredictor
from repro.predict.scheduler import DeadlineScheduler
from repro.resilience.faults import FaultPlan, ShardSlowdown
from repro.search.executor import ALGORITHMS
from tests.test_isn_gather import hit_pairs

K = 8
JOIN_TIMEOUT_S = 60.0


def processes(workers, batch_size=32):
    return ExecutionConfig(
        backend="processes", workers=workers, batch_size=batch_size
    )


def answers(responses):
    return [(hit_pairs(r), r.matched_volume, r.coverage) for r in responses]


@pytest.fixture(scope="module")
def texts(small_query_log):
    return [query.text for query in list(small_query_log)[:8]]


@pytest.fixture(scope="module")
def partitioned(small_collection):
    cache = {}

    def build(num_partitions):
        if num_partitions not in cache:
            cache[num_partitions] = partition_index(
                small_collection, num_partitions
            )
        return cache[num_partitions]

    return build


class TestLaneBitIdentity:
    """Whichever side scores an item, the answer is the thread backend's."""

    @pytest.mark.parametrize("num_partitions", [1, 2, 3, 4])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_processes_answer_like_threads(
        self, partitioned, texts, algorithm, num_partitions
    ):
        shards = partitioned(num_partitions)
        with IndexServingNode(shards, algorithm=algorithm) as threads:
            expected = answers(
                [threads.execute(text, k=K) for text in texts]
            )
        for workers in (1, 2, 3):
            for batch_size in (1, 5, 32):
                with IndexServingNode(
                    shards,
                    algorithm=algorithm,
                    execution=processes(workers, batch_size),
                ) as node:
                    where = (workers, batch_size)
                    if batch_size == 32:
                        singles = [node.execute(text, k=K) for text in texts]
                        assert answers(singles) == expected, where
                    batched = node.execute_batch(texts, k=K)
                    assert answers(batched) == expected, where


    @pytest.mark.parametrize("algorithm", ["daat", "block_max_wand"])
    def test_spawned_workers_answer_like_threads(
        self, partitioned, texts, algorithm
    ):
        """Spawned workers attach the arena through the pickled spec —
        the only attach on platforms without ``fork``."""
        shards = partitioned(2)
        with IndexServingNode(shards, algorithm=algorithm) as threads:
            expected = answers(
                [threads.execute(text, k=K) for text in texts]
            )
        spawn = ExecutionConfig(
            backend="processes", workers=1, start_method="spawn"
        )
        with IndexServingNode(
            shards, algorithm=algorithm, execution=spawn
        ) as node:
            singles = [node.execute(text, k=K) for text in texts]
            batched = node.execute_batch(texts, k=K)
        assert answers(singles) == expected
        assert answers(batched) == expected


#: Prices a posting at one second: any budget buys almost nothing, so
#: every query is cut to the ``min_depth_fraction`` floor.
STARVED = ServiceTimePredictor(
    base_seconds=0.0,
    per_term_seconds=0.0,
    per_posting_seconds=1.0,
    residual_log_sigma=0.0,
)


def capped_answers(node, texts):
    """Per query: hit pairs and each shard's (docs_scored, truncated),
    read from the gather's outcomes."""
    outcomes = []
    gather = node._gather

    def spy(*args, **kwargs):
        gathered = gather(*args, **kwargs)
        outcomes.extend(gathered)
        return gathered

    node._gather = spy
    answered = []
    for text in texts:
        hits = hit_pairs(node.execute(text, k=3))
        shards = sorted(
            (shard, result.docs_scored, result.truncated)
            for shard, _, result, _, _ in outcomes[-1].answered
        )
        answered.append((hits, shards))
    return answered


class TestDepthCapsOnWorkers:
    """A deadline scheduler's depth cap means the same on workers as on
    the caller's thread: same hits, same depth, same truncation flag."""

    def _node(self, shards, execution=None):
        metrics = MetricsRegistry()
        node = IndexServingNode(
            shards,
            algorithm="block_max_wand",
            scheduler=DeadlineScheduler(
                predictor=STARVED,
                deadline_s=1e-3,
                depth_from_budget=True,
                min_depth_fraction=0.01,
            ),
            metrics=metrics,
            execution=execution,
        )
        return node, metrics

    @pytest.mark.parametrize("num_partitions", [2, 3])
    def test_capped_bmw_answers_alike_on_either_backend(
        self, partitioned, texts, num_partitions
    ):
        shards = partitioned(num_partitions)
        node, metrics = self._node(shards)
        with node:
            expected = capped_answers(node, texts)
        capped = metrics.snapshot()["predict.depth_capped"]["value"]
        assert capped == len(texts)
        assert any(
            truncated
            for _, shard_answers in expected
            for _, _, truncated in shard_answers
        )
        for workers in (1, 2):
            node, metrics = self._node(shards, processes(workers))
            with node:
                assert capped_answers(node, texts) == expected, workers
            snapshot = metrics.snapshot()
            assert snapshot["predict.depth_capped"]["value"] == capped


class SpySearcher:
    """Delegates to a shard searcher, noting the thread of every call."""

    def __init__(self, inner):
        self._inner = inner
        self.threads = []

    def search(self, query, **kwargs):
        self.threads.append(threading.current_thread())
        return self._inner.search(query, **kwargs)


def attach_workers(pool, query):
    """Complete every worker's start-up handshake, one search each.

    A worker's first dispatch waits for the worker to attach (tens of
    milliseconds on an idle host, past 100 ms on a loaded one).  A test
    that times a window from its first query attaches the workers
    first, or start-up, not the code under test, decides what lands in
    the window.
    """
    slots = [pool.checkout() for _ in range(pool.num_workers)]
    flights = [pool.send(slot, [(0, query)]) for slot in slots]
    for slot, flight in zip(slots, flights):
        pool.receive(flight)
        pool.checkin(slot)


def count_sends(pool):
    """Wrap ``pool.send``; returns the list each call appends its thread to."""
    sends = []
    send = pool.send

    def counted(*args, **kwargs):
        sends.append(threading.current_thread())
        return send(*args, **kwargs)

    pool.send = counted
    return sends


class TestCallerLane:
    def test_shard_zero_is_scored_on_the_calling_thread(
        self, partitioned, texts
    ):
        with IndexServingNode(
            partitioned(2), execution=processes(1)
        ) as node:
            spy = SpySearcher(node._searchers[0])
            node._searchers[0] = spy
            sends = count_sends(node.process_pool)
            for text in texts:
                before = len(sends)
                response = node.execute(text, k=K)
                assert response.coverage == 1.0
                # One message to the one worker lane per query.
                assert len(sends) - before == 1
            assert len(spy.threads) == len(texts)
            assert {t.ident for t in spy.threads} == {threading.get_ident()}
            assert {t.ident for t in sends} == {threading.get_ident()}

    def test_no_dispatcher_threads(self, partitioned, texts):
        with IndexServingNode(
            partitioned(3), execution=processes(2)
        ) as node:
            node.execute(texts[0], k=K)
            node.execute_batch(texts, k=K)
            assert not [
                thread.name
                for thread in threading.enumerate()
                if thread.name.startswith("isn-mp-dispatch")
            ]

    def test_worker_crash_blames_only_the_worker_lane(
        self, partitioned, texts
    ):
        with IndexServingNode(partitioned(2)) as threads:
            expected = hit_pairs(threads.execute(texts[2], k=K))
        with IndexServingNode(
            partitioned(2), execution=processes(1)
        ) as node:
            pool = node.process_pool
            node.execute(texts[0], k=K)
            # Blind the liveness checks so only the dispatch itself can
            # discover the death.
            pool._workers[0].process.is_alive = lambda: True
            dead = pool.worker_pids()[0]
            os.kill(dead, signal.SIGKILL)
            time.sleep(0.05)
            with pytest.raises(WorkerCrashError) as excinfo:
                node.execute(texts[1], k=K)
            # Shard 0 was scored on the caller's thread: not blamed.
            assert excinfo.value.shards == (1,)
            response = node.execute(texts[2], k=K)
            assert response.coverage == 1.0
            assert hit_pairs(response) == expected
            assert dead not in pool.worker_pids()

    def test_concurrent_clients_get_the_serial_answers(
        self, partitioned, texts
    ):
        with IndexServingNode(
            partitioned(2), execution=processes(1)
        ) as node:
            expected = answers(
                [node.execute_serial(text, k=K) for text in texts]
            )
            results, errors = {}, []

            def client(name):
                try:
                    results[name] = [
                        answers([node.execute(text, k=K) for text in texts])
                        for _ in range(3)
                    ]
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            clients = [
                threading.Thread(target=client, args=(name,))
                for name in range(4)
            ]
            # More clients than cores, switching often: a worker checked
            # out twice would garble or hang a reply.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(JOIN_TIMEOUT_S)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in clients)
            assert not errors, errors
            assert len(results) == 4
            for rounds in results.values():
                assert rounds == [expected] * 3


class TestHedgingOnProcesses:
    """A hedging policy on the process backend: attempts are dispatched
    from ``isn-shard`` pool threads, so hedge and deadline timers keep
    the caller free.

    Shard 0 is slowed during a window that starts just before the query
    and closes before the hedge is issued: the primary, scored inside
    it, is padded far past the hedge delay; the hedge, scored after it
    closed, is not.
    """

    WINDOW_S = 0.1
    HEDGE_DELAY_S = 0.15
    #: How long the slowed primary is padded, at the calibrated speed.
    PADDED_S = 0.6

    def _factor(self, shards, text):
        """Slowdown factor padding a shard-0 worker search to PADDED_S."""
        with IndexServingNode(shards, execution=processes(2)) as node:
            elapsed = [
                node.execute(text, k=K).timings.shard_seconds[0]
                for _ in range(5)
            ]
        return 1.0 + self.PADDED_S / statistics.median(elapsed)

    def _run(self, shards, text, policy):
        plan = FaultPlan(
            slowdowns=[
                ShardSlowdown(
                    shard=0,
                    start_s=0.0,
                    duration_s=self.WINDOW_S,
                    factor=self._factor(shards, text),
                )
            ]
        )
        with IndexServingNode(
            shards, execution=processes(2), hedging=policy, faults=plan
        ) as node:
            # Both workers attach before the window opens: a worker
            # starting inside it lets the slowed primary finish after
            # the window (no miss) or holds the unslowed shard past the
            # deadline (two misses).
            attach_workers(node.process_pool, node.parser.parse(text, k=K))
            sends = count_sends(node.process_pool)
            spies = [SpySearcher(searcher) for searcher in node._searchers]
            node._searchers[:] = spies
            node.fault_injector.start()
            response = node.execute(text, k=K)
        attempts = sends + [t for spy in spies for t in spy.threads]
        return response, attempts

    def test_hedges_win_on_pool_threads(self, partitioned, texts):
        shards = partitioned(2)
        with IndexServingNode(shards) as threads:
            expected = hit_pairs(threads.execute(texts[0], k=K))
        response, attempts = self._run(
            shards,
            texts[0],
            HedgingPolicy(hedge_delay_s=self.HEDGE_DELAY_S),
        )
        assert response.hedges_issued >= 1
        assert response.hedges_won >= 1
        assert response.coverage == 1.0
        assert hit_pairs(response) == expected
        assert len(attempts) >= 3  # two primaries and a hedge
        assert all(t.name.startswith("isn-shard") for t in attempts)

    def test_deadline_degrades_coverage(self, partitioned, texts):
        response, attempts = self._run(
            partitioned(2),
            texts[0],
            HedgingPolicy(deadline_s=self.HEDGE_DELAY_S),
        )
        assert response.deadline_misses == 1
        assert response.coverage == 0.5
        assert all(t.name.startswith("isn-shard") for t in attempts)
