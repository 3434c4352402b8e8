"""Where a thread-backend query's shard attempts run.

Policy-free, they run on the calling thread, in item order, at every
partition count and on every entry point: no pool thread is started,
the gather never reaches ``concurrent.futures.wait``, and concurrent
clients search a shard concurrently.  Only a hedging policy — whose
timers need the caller free and whose attempts must overlap — brings
the ``isn-shard`` pool back.
"""

import cProfile
import pstats
import sys
import threading

import pytest

from repro.engine.hedging import HedgingPolicy
from repro.engine.isn import IndexServingNode
from repro.index.partitioner import partition_index
from repro.index.store import TieredStorageConfig, tier_partitioned_index
from repro.resilience.breaker import BreakerConfig
from tests.test_isn_gather import hit_pairs

JOIN_TIMEOUT_S = 60.0


class RecordingSearcher:
    """Delegates to a shard searcher, noting the thread of every call."""

    def __init__(self, inner, calls):
        self._inner = inner
        self._calls = calls

    def search(self, query, **kwargs):
        thread = threading.current_thread()
        self._calls.append((thread.ident, thread.name))
        return self._inner.search(query, **kwargs)


def recorded(node):
    """Swap in recording searchers; returns the shared call log."""
    calls = []
    node._searchers[:] = [
        RecordingSearcher(searcher, calls) for searcher in node._searchers
    ]
    return calls


def pool_threads():
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("isn-shard")
    }


@pytest.fixture(scope="module")
def texts(small_query_log):
    return [query.text for query in list(small_query_log)[:12]]


@pytest.mark.parametrize("num_partitions", [1, 3])
def test_policy_free_attempts_run_on_the_calling_thread(
    small_collection, texts, num_partitions
):
    before = pool_threads()
    partitioned = partition_index(small_collection, num_partitions)
    with IndexServingNode(partitioned) as node:
        assert node._backend._pool is node._backend._executor is None
        calls = recorded(node)
        singles = [node.execute(text) for text in texts]
        batch = node.execute_batch(texts)
        assert pool_threads() == before
    assert len(calls) == 2 * len(texts) * num_partitions
    assert {ident for ident, _ in calls} == {threading.get_ident()}
    assert [hit_pairs(r) for r in batch] == [hit_pairs(r) for r in singles]
    assert all(r.coverage == 1.0 for r in singles + batch)


def test_breakers_alone_do_not_bring_the_pool_back(small_collection, texts):
    before = pool_threads()
    with IndexServingNode(
        partition_index(small_collection, 2), breakers=BreakerConfig()
    ) as node:
        calls = recorded(node)
        node.execute(texts[0])
        assert pool_threads() == before
    assert {ident for ident, _ in calls} == {threading.get_ident()}


def test_hedged_attempts_still_run_on_pool_threads(small_collection, texts):
    with IndexServingNode(
        partition_index(small_collection, 2),
        hedging=HedgingPolicy(hedge_delay_s=5.0, deadline_s=30.0),
    ) as node:
        calls = recorded(node)
        response = node.execute(texts[0])
        assert pool_threads()
    assert response.coverage == 1.0 and len(calls) == 2
    assert all(name.startswith("isn-shard") for _, name in calls)
    assert threading.get_ident() not in {ident for ident, _ in calls}


def test_policy_free_execute_never_waits_on_futures(small_collection, texts):
    with IndexServingNode(partition_index(small_collection, 3)) as node:
        node.execute(texts[0])
        profile = cProfile.Profile()
        profile.enable()
        for text in texts:
            node.execute(text)
        node.execute_batch(texts)
        profile.disable()
    functions = {
        (filename.replace("\\", "/"), name)
        for filename, _, name in pstats.Stats(profile).stats
    }
    # The profile saw the path it is about to clear.
    assert {"_gather", "search"} <= {name for _, name in functions}
    assert not [
        (filename, name)
        for filename, name in functions
        if filename.endswith("concurrent/futures/_base.py")
        and name in ("wait", "_create_and_install_waiters")
    ]


def test_close_is_idempotent_without_an_executor(small_collection, texts):
    node = IndexServingNode(partition_index(small_collection, 2))
    node.execute(texts[0])
    node.close()
    node.close()
    with pytest.raises(RuntimeError, match="closed"):
        node.execute(texts[0])


@pytest.mark.parametrize(
    "store, algorithm",
    [("resident", "daat"), ("tiered", "daat"), ("tiered", "block_max_wand")],
)
def test_concurrent_clients_get_the_serial_answers(
    small_collection, texts, store, algorithm
):
    """More clients than cores on one shard, switching every 10 us."""
    partitioned = partition_index(small_collection, 1)
    if store == "tiered":
        # A budget far below the index: blocks are evicted and re-paged
        # while the other clients read the same shard.
        partitioned = tier_partitioned_index(
            partitioned, TieredStorageConfig(cache_budget_bytes=8 << 10)
        )
    clients, rounds = 4, 3
    answers = [[] for _ in range(clients)]
    errors = []

    def client(position, node):
        try:
            for _ in range(rounds):
                answers[position].append(
                    [hit_pairs(node.execute(text)) for text in texts]
                )
        except Exception as exc:  # surfaced through the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    with IndexServingNode(partitioned, algorithm=algorithm) as node:
        serial = [hit_pairs(node.execute(text)) for text in texts]
        threads = [
            threading.Thread(target=client, args=(position, node))
            for position in range(clients)
        ]
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(JOIN_TIMEOUT_S)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert answers == [[serial] * rounds] * clients
