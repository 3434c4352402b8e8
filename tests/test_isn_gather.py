"""The ISN's one gather, as a differential oracle.

Every way of running a query through :class:`IndexServingNode` —
{threads, processes} × {``execute``, ``execute_serial``,
``execute_batch``} × four traversals × {1, 2, 3} partitions — goes
through the same gather, so all of them must return the same doc ids
*and* float scores, cover every shard, and (policy-free) leave the
span tree and metric names the plain fan-out always had.

The second half pins the degenerate case's error semantics: with no
resilience feature a failing shard reaches the caller typed and the
node keeps serving; configure only breakers or only faults and the same
failure is absorbed into ``coverage``.
"""

import os
import signal
import time

import pytest

from repro.engine.execution import ExecutionConfig
from repro.engine.isn import IndexServingNode
from repro.index.partitioner import partition_index
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.resilience.breaker import BreakerConfig
from repro.resilience.faults import FaultPlan, ShardSlowdown
from repro.search.executor import ALGORITHMS
from tests.test_hedging import ScriptedSearcher

K = 8
BACKENDS = {
    "threads": None,
    # Two workers for up to three shards, five items per message: lane
    # packing and multi-chunk batches are both on the path.
    "processes": ExecutionConfig(backend="processes", workers=2, batch_size=5),
}
#: Span attribute keys of the policy-free tree.  Shard spans carry the
#: traversal's optional counters on top of the three fixed keys.
ROOT_KEYS = {"query", "k", "mode", "num_partitions"}
SHARD_KEYS = {"shard", "postings_scanned", "num_hits"}
SHARD_OPTIONAL_KEYS = {"docs_scored", "blocks_skipped"}
#: An enabled plan that never fires: faults are configured, none is due.
DORMANT_FAULTS = FaultPlan(
    slowdowns=[
        ShardSlowdown(shard=0, start_s=1e6, duration_s=1.0, factor=2.0)
    ]
)


def hit_pairs(response):
    """(doc_id, raw float score) pairs — the bit-identity currency."""
    return [(hit.doc_id, hit.score) for hit in response.hits]


@pytest.fixture(scope="module")
def texts(small_query_log):
    return [query.text for query in list(small_query_log)[:10]]


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


@pytest.fixture(scope="module")
def reference(partitioned, texts):
    """The answers of the simplest configuration: one shard, threads."""
    with IndexServingNode(partitioned(1)) as node:
        responses = [node.execute(text, k=K) for text in texts]
    return [(hit_pairs(r), r.matched_volume) for r in responses]


class TestGatherOracle:
    @pytest.mark.parametrize("num_partitions", [1, 2, 3])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_every_entry_point_agrees(
        self, partitioned, texts, reference, backend, algorithm, num_partitions
    ):
        tracer, metrics = Tracer(), MetricsRegistry()
        with IndexServingNode(
            partitioned(num_partitions),
            algorithm=algorithm,
            execution=BACKENDS[backend],
            tracer=tracer,
            metrics=metrics,
        ) as node:
            answers = {
                "execute": [node.execute(text, k=K) for text in texts],
                "execute_serial": [
                    node.execute_serial(text, k=K) for text in texts
                ],
                "execute_batch": node.execute_batch(texts, k=K),
            }
        for entry_point, responses in answers.items():
            assert len(responses) == len(texts), entry_point
            for response, (pairs, volume) in zip(responses, reference):
                assert hit_pairs(response) == pairs, entry_point
                assert response.matched_volume == volume, entry_point
                assert response.coverage == 1.0, entry_point
                assert (
                    len(response.timings.shard_seconds) == num_partitions
                ), entry_point
                self._assert_policy_free_trace(response.trace, num_partitions)
        names = set(metrics.snapshot())
        assert "isn.queries" in names
        assert not {
            name
            for name in names
            if name.startswith(("isn.hedges_", "isn.coverage", "isn.retries"))
        }

    @staticmethod
    def _assert_policy_free_trace(root, num_partitions):
        assert root.name == "isn.execute"
        assert set(root.attributes) == ROOT_KEYS
        assert [child.name for child in root.children] == [
            "parse", "fanout", "merge",
        ]
        parse, fanout, merge = root.children
        assert set(parse.attributes) == {"num_terms"}
        assert fanout.attributes == {}
        assert set(merge.attributes) == {"num_shards"}
        assert [shard.name for shard in fanout.children] == (
            ["shard"] * num_partitions
        )
        for index, shard in enumerate(fanout.children):
            assert shard.attributes["shard"] == index
            keys = set(shard.attributes)
            assert SHARD_KEYS <= keys <= SHARD_KEYS | SHARD_OPTIONAL_KEYS


class TestDegenerateErrorSemantics:
    """A failing shard: typed to the caller, or absorbed into coverage."""

    @staticmethod
    def _script_shard_zero(node):
        scripted = ScriptedSearcher(node._searchers[0])
        node._searchers[0] = scripted
        return scripted

    def test_threads_failure_propagates_typed_and_node_keeps_serving(
        self, partitioned, texts
    ):
        with IndexServingNode(partitioned(2)) as node:
            scripted = self._script_shard_zero(node)
            for run in (
                lambda: node.execute(texts[0], k=K),
                lambda: node.execute_serial(texts[0], k=K),
                lambda: node.execute_batch(texts[:3], k=K),
            ):
                scripted.begin_query(failing={0})
                with pytest.raises(RuntimeError, match="scripted failure"):
                    run()
                scripted.begin_query()
                assert node.execute(texts[1], k=K).coverage == 1.0

    @pytest.mark.parametrize(
        "feature",
        [
            {"breakers": BreakerConfig(failure_threshold=100)},
            {"faults": DORMANT_FAULTS},
        ],
        ids=["breakers-only", "faults-only"],
    )
    def test_threads_failure_degrades_coverage_under_one_feature(
        self, partitioned, texts, feature
    ):
        with IndexServingNode(partitioned(2), **feature) as node:
            scripted = self._script_shard_zero(node)
            # The attempt and its one inert-policy retry both fail.
            scripted.begin_query(failing={0, 1})
            response = node.execute(texts[0], k=K)
            assert response.coverage == 0.5
            assert scripted.calls == 2
            scripted.begin_query()
            assert node.execute(texts[1], k=K).coverage == 1.0

    @staticmethod
    def _kill_worker_mid_flight(pool):
        """SIGKILL slot 0's worker with the liveness checks blinded, so
        only the next dispatch can discover the death."""
        pool._workers[0].process.is_alive = lambda: True
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        time.sleep(0.05)

    def test_processes_crash_is_absorbed_under_faults_only(
        self, partitioned, texts
    ):
        """Policy-free, this crash reaches the caller as a typed
        ``WorkerCrashError`` (``test_execution_mp`` pins that); with a
        fault plan configured it is retried instead of raised."""
        with IndexServingNode(
            partitioned(3),
            execution=ExecutionConfig(backend="processes", workers=1),
            faults=DORMANT_FAULTS,
        ) as node:
            node.execute(texts[0], k=K)
            self._kill_worker_mid_flight(node.process_pool)
            response = node.execute(texts[1], k=K)
            assert 0.0 < response.coverage <= 1.0
            assert node.execute(texts[2], k=K).coverage == 1.0
