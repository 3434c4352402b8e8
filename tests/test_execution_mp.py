"""The process execution backend: shared index, worker pool, bit-identity.

The GIL-escape contract has three parts, each tested here:

- **zero-copy attach** — :class:`SharedIndexArena` writes the index
  hot state to one image file and
  :func:`attach_shared_index` rebuilds a structurally identical index
  over read-only views; searches over the attached index are
  bit-identical (ids *and* float scores) to the original, across
  random corpora × all four traversal strategies × partition counts
  (hypothesis);
- **backend equivalence** — a full :class:`IndexServingNode` on
  ``backend="processes"`` answers every query identically to the
  thread backend, on the single-query and the batched path;
- **worker lifecycle** — a worker killed *between* dispatches is found
  by the liveness checks (the background heartbeat within one probe
  interval, or the cheap pre-dispatch ``is_alive`` check) and respawned
  without burning a query; a worker dying *mid-dispatch* surfaces as a
  typed :class:`WorkerCrashError`, feeds the circuit breaker, and
  degrades coverage like any shard failure — batches re-dispatch to
  healthy workers first; ``close()`` deterministically unlinks the
  image, and no child process outlives it, nor a parent killed with
  SIGKILL.
"""

import contextlib
import gc
import glob
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.documents import Document, DocumentCollection
from repro.engine import mp
from repro.engine.execution import ExecutionConfig
from repro.engine.isn import IndexServingNode
from repro.engine.mp import ProcessShardPool, WorkerCrashError, WorkerOptions
from repro.index.partitioner import partition_index
from repro.index import shared
from repro.index.serialization import serialize_index
from repro.index.shared import SharedIndexArena, attach_shared_index
from repro.obs.registry import MetricsRegistry
from repro.resilience.breaker import BreakerConfig
from repro.search.executor import ALGORITHMS, ShardSearcher
from repro.search.global_stats import global_scorer_factory
from repro.search.query import ParsedQuery, QueryMode
from repro.text.analyzer import Analyzer, AnalyzerConfig

PLAIN = Analyzer(AnalyzerConfig(remove_stopwords=False, stem=False))

words = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
)
documents_strategy = st.lists(
    st.lists(words, min_size=1, max_size=12).map(" ".join),
    min_size=1,
    max_size=14,
)
query_strategy = st.lists(words, min_size=1, max_size=4, unique=True)


def build(texts):
    collection = DocumentCollection()
    for doc_id, text in enumerate(texts):
        collection.add(Document(doc_id, f"u{doc_id}", "", text))
    return collection


def hit_pairs(hits):
    """(doc_id, raw float score) pairs — the bit-identity currency."""
    return [(hit.doc_id, hit.score) for hit in hits]


class TestSharedIndexAttach:
    """The export/attach round-trip is lossless for the scoring kernel."""

    @settings(max_examples=25, deadline=None)
    @given(
        documents_strategy,
        query_strategy,
        st.integers(min_value=1, max_value=4),
        st.sampled_from(ALGORITHMS),
        st.sampled_from([2, 128]),
    )
    def test_attached_index_scores_bit_identical(
        self, texts, terms, num_partitions, algorithm, block_size
    ):
        collection = build(texts)
        partitioned = partition_index(
            collection, num_partitions, analyzer=PLAIN, block_size=block_size
        )
        arena = SharedIndexArena(partitioned)
        try:
            attached = attach_shared_index(arena.spec)
            query = ParsedQuery(terms=tuple(terms), k=5)
            factory = global_scorer_factory(partitioned)
            attached_factory = global_scorer_factory(attached)
            for shard_id in range(num_partitions):
                original = ShardSearcher(
                    partitioned[shard_id],
                    algorithm=algorithm,
                    scorer_factory=factory,
                ).search(query)
                rebuilt = ShardSearcher(
                    attached[shard_id],
                    algorithm=algorithm,
                    scorer_factory=attached_factory,
                ).search(query)
                assert hit_pairs(rebuilt.hits) == hit_pairs(original.hits)
                assert rebuilt.matched_volume == original.matched_volume
            for shard, copy in zip(partitioned, attached):
                # Dictionary, postings and every block array, byte for
                # byte; the derived statistics against the postings.
                assert serialize_index(copy.index) == serialize_index(
                    shard.index
                )
                assert np.array_equal(
                    copy.global_doc_ids, shard.global_doc_ids
                )
                for term_id, term in enumerate(copy.index.dictionary):
                    _, frequencies = copy.index.postings_for_id(term_id)
                    info = copy.index.term_info(term)
                    assert info == shard.index.term_info(term)
                    assert info.document_frequency == frequencies.size
                    assert info.collection_frequency == frequencies.sum()
        finally:
            arena.close()

    def test_attached_arrays_are_read_only_views(self, small_collection):
        partitioned = partition_index(small_collection, 2)
        with SharedIndexArena(partitioned) as arena:
            attached = attach_shared_index(arena.spec)
            doc_ids, _ = attached[0].index.postings_for_id(0)
            with pytest.raises((ValueError, OSError)):
                doc_ids[0] = 99
            # Views, not copies: no postings array owns its memory.
            assert not doc_ids.flags.owndata

    def test_attached_arrays_are_plain_read_only_ndarrays(
        self, small_collection
    ):
        # A memmap subclass would run Python __array_finalize__ on every
        # numpy op over a postings or block view.
        partitioned = partition_index(small_collection, 2)
        with SharedIndexArena(partitioned) as arena:
            attached = attach_shared_index(arena.spec)
            arrays = []
            for shard in attached:
                index = shard.index
                arrays += [index.doc_lengths, shard.global_doc_ids]
                for term_id in range(index.num_terms):
                    blocks = index.block_metadata_for_id(term_id)
                    arrays += [
                        *index.postings_for_id(term_id),
                        blocks.last_doc_ids,
                        blocks.max_frequencies,
                        blocks.min_doc_lengths,
                    ]
            assert arrays
            for array in arrays:
                assert type(array) is np.ndarray
                assert not array.flags.writeable

    def test_arena_close_unlinks_segment(self, small_collection):
        partitioned = partition_index(small_collection, 2)
        arena = SharedIndexArena(partitioned)
        path = arena.spec.path
        assert os.path.getsize(path) == arena.spec.nbytes
        arena.close()
        assert arena.closed
        assert not os.path.exists(path)
        arena.close()  # idempotent

    def test_dropped_arena_unlinks_its_image(self, small_collection):
        arena = SharedIndexArena(partition_index(small_collection, 2))
        path = arena.spec.path
        assert os.path.exists(path)
        del arena
        gc.collect()
        assert not os.path.exists(path)

    def test_tiered_shards_are_rejected(self, small_collection):
        from repro.index.store import TieredStorageConfig, tier_partitioned_index

        partitioned = tier_partitioned_index(
            partition_index(small_collection, 2),
            TieredStorageConfig(cache_budget_bytes=1 << 16),
        )
        images = os.path.join(shared._image_dir(), "repro-*")
        before = set(glob.glob(images))
        with pytest.raises(TypeError, match="re-tiered inside each worker"):
            SharedIndexArena(partitioned)
        # The half-written image is unlinked, not leaked.
        assert set(glob.glob(images)) <= before


def engine_script(execution):
    """Source that builds a P = 2 process-backend engine with
    ``ExecutionConfig(backend="processes", <execution>)`` and answers
    one query: the start of a script run in its own interpreter."""
    return f"""
import os
import signal
from repro.api import (
    CorpusConfig, EngineConfig, ExecutionConfig, QueryLogConfig,
    SearchEngine, VocabularyConfig,
)
engine = SearchEngine(EngineConfig(
    corpus=CorpusConfig(
        num_documents=150,
        vocabulary=VocabularyConfig(size=1_000, seed=3),
        mean_length=40,
        seed=11,
    ),
    query_log=QueryLogConfig(num_unique_queries=20, seed=5),
    num_partitions=2,
    execution=ExecutionConfig(backend="processes", {execution}),
))
engine.search(engine.query_log[0].text)
"""


def run_script(script, **streams):
    """Run ``script`` in a fresh interpreter on this checkout's ``src``;
    its output is captured unless ``streams`` redirect it."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        text=True,
        timeout=120,
        **(streams or {"capture_output": True}),
    )


def is_running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


#: Run by ``test_no_child_outlives_close`` in its own interpreter:
#: prints ``[(pid, command)]`` for every child left after ``close()``.
NO_CHILD_SCRIPT = engine_script("workers=1") + """
engine.close()
children = []
for entry in filter(str.isdigit, os.listdir("/proc")):
    try:
        with open(f"/proc/{entry}/stat") as stat:
            # "pid (comm) state ppid ..."; comm may hold spaces.
            ppid = int(stat.read().rpartition(")")[2].split()[1])
        with open(f"/proc/{entry}/cmdline", "rb") as cmdline:
            command = cmdline.read().replace(b"\\0", b" ").decode()
    except OSError:
        continue
    if ppid == os.getpid():
        children.append((int(entry), command))
print(children)
"""


@pytest.fixture(scope="module")
def parity_setup(small_collection, small_query_log):
    """One partitioned index + query sample shared by the parity tests."""
    partitioned = partition_index(small_collection, 3)
    texts = [q.text for q in list(small_query_log)[:12]]
    return partitioned, texts


class TestBackendBitIdentity:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_threads_and_processes_answer_identically(
        self, parity_setup, algorithm
    ):
        partitioned, texts = parity_setup
        with IndexServingNode(
            partitioned, algorithm=algorithm
        ) as threads, IndexServingNode(
            partitioned,
            algorithm=algorithm,
            execution=ExecutionConfig(backend="processes", workers=2),
        ) as processes:
            for text in texts:
                expected = threads.execute(text, k=8)
                actual = processes.execute(text, k=8)
                assert hit_pairs(actual.hits) == hit_pairs(expected.hits)
                assert actual.matched_volume == expected.matched_volume
                assert actual.coverage == 1.0

    def test_execute_batch_matches_execute_on_both_backends(
        self, parity_setup
    ):
        partitioned, texts = parity_setup
        for execution in (
            None,
            ExecutionConfig(backend="processes", workers=2, batch_size=5),
        ):
            with IndexServingNode(
                partitioned, execution=execution
            ) as node:
                singles = [node.execute(text, k=8) for text in texts]
                batched = node.execute_batch(texts, k=8)
                assert len(batched) == len(singles)
                for one, many in zip(singles, batched):
                    assert hit_pairs(many.hits) == hit_pairs(one.hits)
                    assert many.matched_volume == one.matched_volume

    def test_worker_counters_merge_into_parent_registry(self, parity_setup):
        partitioned, texts = parity_setup
        threads_metrics, process_metrics = (
            MetricsRegistry(),
            MetricsRegistry(),
        )
        with IndexServingNode(
            partitioned, algorithm="wand", metrics=threads_metrics
        ) as threads, IndexServingNode(
            partitioned,
            algorithm="wand",
            metrics=process_metrics,
            execution=ExecutionConfig(backend="processes", workers=2),
        ) as processes:
            for text in texts:
                threads.execute(text, k=8)
                processes.execute(text, k=8)
        expected = threads_metrics.snapshot()
        actual = process_metrics.snapshot()
        compared = 0
        for name, entry in expected.items():
            if entry["type"] != "counter" or not name.startswith(
                ("search.", "wand.")
            ):
                continue
            compared += 1
            assert actual[name]["value"] == entry["value"], name
        assert compared > 0


class TestWorkerLifecycle:
    def _kill_one_worker(self, pool: ProcessShardPool) -> int:
        pid = pool.worker_pids()[0]
        os.kill(pid, signal.SIGKILL)
        # SIGKILL is immediate; the kernel closes the worker's pipe end,
        # so any in-flight dispatch observes EOF.  (The zombie is
        # reaped by the pool's respawn path.)
        time.sleep(0.05)
        return pid

    def _hide_death(self, pool: ProcessShardPool):
        """Blind the liveness checks to slot 0's coming death.

        With ``is_alive`` pinned True, neither the heartbeat monitor
        nor the pre-dispatch check can see the corpse — the dispatch
        itself must discover it, which is exactly the mid-flight crash
        path these tests pin down.  Patch *before* killing so the
        monitor cannot win the race.
        """
        handle = pool._workers[0]
        handle.process.is_alive = lambda: True
        return handle

    def test_idle_crash_is_healed_without_burning_a_query(
        self, parity_setup
    ):
        partitioned, texts = parity_setup
        with IndexServingNode(
            partitioned,
            execution=ExecutionConfig(backend="processes", workers=1),
        ) as node:
            pool = node.process_pool
            expected = node.execute(texts[0], k=5)
            dead = self._kill_one_worker(pool)
            # The liveness checks (heartbeat probe or the pre-dispatch
            # is_alive check) find the corpse first: the very next
            # query is served by a respawned worker, bit-identically —
            # no query is burned discovering the death.
            response = node.execute(texts[0], k=5)
            assert response.coverage == 1.0
            assert hit_pairs(response.hits) == hit_pairs(expected.hits)
            assert dead not in pool.worker_pids()

    def test_heartbeat_detects_sigkill_within_probe_interval(
        self, small_collection
    ):
        partitioned = partition_index(small_collection, 1)
        interval = 0.05
        with SharedIndexArena(partitioned) as arena:
            pool = ProcessShardPool(
                arena.spec,
                workers=2,
                options=WorkerOptions(),
                probe_interval_s=interval,
            )
            try:
                pids = pool.worker_pids()
                os.kill(pids[0], signal.SIGKILL)
                # No dispatch happens: only the background heartbeat
                # can notice.  Nominal detection is one probe interval;
                # the deadline leaves scheduling slack for loaded CI.
                deadline = time.monotonic() + 50 * interval
                while time.monotonic() < deadline:
                    snapshot = pool.health_snapshot()
                    if (
                        snapshot["deaths_detected"] >= 1
                        and snapshot["live_workers"] == 2
                    ):
                        break
                    time.sleep(interval / 5)
                snapshot = pool.health_snapshot()
                assert snapshot["deaths_detected"] >= 1
                assert snapshot["respawns"] >= 1
                assert snapshot["live_workers"] == 2
                assert pids[0] not in pool.worker_pids()
                # The respawned fleet serves without a burned query.
                future = pool.submit_batch(
                    [(0, ParsedQuery(terms=("alpha",), k=3))]
                )
                future.result(timeout=30)
            finally:
                pool.close()

    def test_mid_dispatch_crash_is_typed_and_pool_self_heals(
        self, parity_setup
    ):
        partitioned, texts = parity_setup
        with IndexServingNode(
            partitioned,
            execution=ExecutionConfig(backend="processes", workers=1),
        ) as node:
            pool = node.process_pool
            node.execute(texts[0], k=5)
            self._hide_death(pool)
            dead = self._kill_one_worker(pool)
            # Plain single-query fan-out has no retry machinery: the
            # mid-dispatch crash propagates as the typed failure,
            # naming the shards it took down.
            with pytest.raises(WorkerCrashError) as excinfo:
                node.execute(texts[1], k=5)
            assert excinfo.value.shards
            # Self-healed: a respawned worker serves the next query.
            response = node.execute(texts[0], k=5)
            assert response.coverage == 1.0
            assert dead not in pool.worker_pids()

    def test_batch_crash_retries_on_healthy_workers(self, parity_setup):
        partitioned, texts = parity_setup
        with IndexServingNode(
            partitioned, execution=ExecutionConfig(backend="threads")
        ) as reference_node:
            expected = [
                reference_node.execute(text, k=5) for text in texts[:6]
            ]
        with IndexServingNode(
            partitioned,
            execution=ExecutionConfig(
                backend="processes", workers=2, batch_size=4
            ),
        ) as node:
            pool = node.process_pool
            node.execute(texts[0], k=5)
            self._hide_death(pool)
            self._kill_one_worker(pool)
            # Chunks dispatched to the dead worker crash mid-flight and
            # re-dispatch to the healthy worker (or the respawn): the
            # whole batch still answers, bit-identical, no exception.
            responses = node.execute_batch(texts[:6], k=5)
            for response, want in zip(responses, expected):
                assert response.coverage == 1.0
                assert hit_pairs(response.hits) == hit_pairs(want.hits)

    def test_crash_trips_breaker_and_degrades_coverage(self, parity_setup):
        partitioned, texts = parity_setup
        with IndexServingNode(
            partitioned,
            execution=ExecutionConfig(backend="processes", workers=1),
            breakers=BreakerConfig(
                failure_threshold=1, recovery_time_s=30.0
            ),
        ) as node:
            node.execute(texts[0], k=5)
            self._hide_death(node.process_pool)
            self._kill_one_worker(node.process_pool)
            # The crashed dispatch fails one shard's attempt; with a
            # one-strike breaker the retry is fenced off, so the answer
            # arrives with degraded coverage instead of an error.
            response = node.execute(texts[1], k=5)
            assert response.coverage < 1.0
            assert response.breaker_skips >= 1
            from repro.resilience.breaker import BreakerState

            board = node.breaker_board
            now = time.perf_counter()
            assert any(
                board.breaker(shard).state(now) is not BreakerState.CLOSED
                for shard in range(node.num_partitions)
            )
            # The pool itself recovered: the un-fenced shards still serve.
            follow_up = node.execute(texts[2], k=5)
            assert 0.0 < follow_up.coverage < 1.0

    def test_node_close_unlinks_shared_segment(self, parity_setup):
        partitioned, texts = parity_setup
        node = IndexServingNode(
            partitioned,
            execution=ExecutionConfig(backend="processes", workers=1),
        )
        arena = node._arena
        path = arena.spec.path
        assert os.path.exists(path)
        node.execute(texts[0], k=5)
        node.close()
        assert arena.closed
        assert not os.path.exists(path)
        with pytest.raises(RuntimeError):
            node.execute(texts[0], k=5)

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="lists children from /proc"
    )
    def test_no_child_outlives_close(self):
        """A fresh interpreter (so no earlier test's helper process is
        already running) builds a process-backend engine with the
        default start method, answers a query, closes, and lists its
        children: every one is gone."""
        result = run_script(NO_CHILD_SCRIPT)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods()
        or not os.path.isdir("/proc"),
        reason="forks workers and reads their state from /proc",
    )
    def test_no_worker_outlives_a_killed_parent(self, tmp_path):
        """A parent killed with SIGKILL runs no cleanup: each forked
        worker must read EOF on its pipe and exit by itself, which it
        can only do if it holds no copy of any parent pipe end."""
        script = (
            engine_script('workers=2, start_method="fork"')
            + "print(engine.isn.process_pool.worker_pids(), flush=True)\n"
            + "print(engine.isn._arena.spec.path, flush=True)\n"
            + "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        # Files, not pipes: a worker left running would hold a pipe's
        # write end open and keep the run waiting for its EOF.
        with open(tmp_path / "out", "w") as out, open(
            tmp_path / "err", "w"
        ) as err:
            result = run_script(script, stdout=out, stderr=err)
        assert result.returncode == -signal.SIGKILL, (
            tmp_path / "err"
        ).read_text()
        pids, image = (tmp_path / "out").read_text().splitlines()
        pids = [int(pid) for pid in pids.strip("[]").split(",")]
        assert len(pids) == 2
        try:
            deadline = time.monotonic() + 10.0
            while any(map(is_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if is_running(pid)] == []
        finally:
            for pid in filter(is_running, pids):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            # A killed parent leaves its image behind, as documented.
            os.unlink(image)

    def test_pool_rejects_submissions_after_close(self, small_collection):
        partitioned = partition_index(small_collection, 1)
        with SharedIndexArena(partitioned) as arena:
            pool = ProcessShardPool(
                arena.spec, workers=1, options=WorkerOptions()
            )
            future = pool.submit_batch(
                [(0, ParsedQuery(terms=("alpha",), k=3))]
            )
            future.result(timeout=30)
            pool.close()
            pool.close()  # idempotent
            with pytest.raises(RuntimeError):
                pool.submit_batch([(0, ParsedQuery(terms=("alpha",), k=3))])


class TestPollBeforeSleep:
    """``mp._Pipe.read`` is a blocking read with a bounded poll in front
    of it, on one poller made with the pipe end."""

    def test_a_waiting_message_a_late_one_and_a_closed_peer(self):
        near, far = multiprocessing.Pipe(duplex=True)
        pipe = mp._Pipe(near)
        far.send_bytes(b"waiting")
        assert bytes(pipe.read()) == b"waiting"
        # A message that arrives after the poll gave up is still
        # received: the call falls back to a blocking read.
        late = threading.Timer(
            5 * mp._POLL_BEFORE_SLEEP_S, far.send_bytes, args=(b"late",)
        )
        late.start()
        start = time.perf_counter()
        assert bytes(pipe.read()) == b"late"
        assert time.perf_counter() - start >= mp._POLL_BEFORE_SLEEP_S
        late.join()
        # A dead peer reads as end-of-file, as it does for ``recv``:
        # the dispatcher's crash handling depends on it.
        far.close()
        with pytest.raises(EOFError):
            pipe.read()
        pipe.close()

    def test_a_flight_on_a_respawned_handle_is_ready(self, small_collection):
        """``_respawn`` closes the flight's pipe end and a replacement
        pipe may reuse its descriptor number; the flight must read as
        ready (its receive fails, typed, instead of waiting on the new
        worker) without polling that number."""
        partitioned = partition_index(small_collection, 1)
        with SharedIndexArena(partitioned) as arena:
            pool = ProcessShardPool(
                arena.spec, workers=1, options=WorkerOptions(),
                probe_interval_s=None,
            )
            slot = pool.checkout()
            try:
                flight = pool.send(
                    slot, [(0, ParsedQuery(terms=("alpha",), k=3))]
                )
                pool._respawn(slot, flight.handle)
                assert flight.handle is not pool._workers[slot]
                assert pool.ready(flight)
                with pytest.raises(WorkerCrashError):
                    pool.receive(flight)
                pool.checkin(slot)
                # The replacement serves.
                pool.submit_batch(
                    [(0, ParsedQuery(terms=("alpha",), k=3))]
                ).result(timeout=30)
            finally:
                pool.close()


class TestWireFormat:
    """A worker's reply frame decodes to exactly the ``SearchResult``
    the caller's own thread computes: every field, every None.  (Counter
    deltas in the frame: ``test_worker_counters_merge_into_parent_registry``.)
    """

    @staticmethod
    def _round_trip(partitioned, items, *, algorithm="daat", tiered=None,
                    max_docs_scored=None):
        """(worker replies, the caller-thread results) for ``items``."""
        options = WorkerOptions(algorithm=algorithm, tiered=tiered)
        with SharedIndexArena(partitioned) as arena:
            pool = ProcessShardPool(
                arena.spec, workers=1, options=options, probe_interval_s=None
            )
            slot = pool.checkout(wait=True)
            try:
                replies = pool.receive(pool.send(
                    slot, items, max_docs_scored=max_docs_scored
                ))
            finally:
                pool.checkin(slot)
                pool.close()
        if tiered is not None:
            from repro.index.store import tier_partitioned_index

            partitioned = tier_partitioned_index(partitioned, tiered)
        factory = global_scorer_factory(partitioned)
        searchers = [
            ShardSearcher(shard, algorithm=algorithm, scorer_factory=factory)
            for shard in partitioned
        ]
        expected = [
            searchers[shard].search(query, max_docs_scored=max_docs_scored)
            for shard, query in items
        ]
        return replies, expected

    @pytest.mark.parametrize("tiered", [False, True])
    @pytest.mark.parametrize("algorithm", ["daat", "taat", "block_max_wand"])
    def test_every_field_survives(self, small_collection, algorithm, tiered):
        from repro.index.store import TieredStorageConfig

        partitioned = partition_index(small_collection, 2)
        common = ("celo", "gapom", "hiqab")
        queries = [
            ParsedQuery(common, k=10),
            ParsedQuery(common, k=1_000),  # fewer hits than k
            ParsedQuery(("größe", "celo", "naïve"), k=5),  # non-ASCII
            ParsedQuery(("größe",), k=5),  # no hits
            ParsedQuery((), k=5),  # analysis removed every term
        ]
        if algorithm != "block_max_wand":  # it supports OR only
            queries.append(ParsedQuery(("celo", "taf"), QueryMode.AND, k=7))
        # Query by query, as the gather deals them, plus a query that
        # comes back after others.
        items = [(shard, query) for query in queries for shard in (0, 1)]
        items.append(items[0])
        seen = []
        for depth in (None, 5):
            replies, expected = self._round_trip(
                partitioned, items, algorithm=algorithm,
                tiered=(
                    TieredStorageConfig(cache_budget_bytes=0)
                    if tiered else None
                ),
                max_docs_scored=depth,
            )
            assert len(replies) == len(items)
            for (shard, query), reply, want in zip(items, replies, expected):
                got_shard, result, start, end = reply
                assert got_shard == shard
                assert result == want
                assert result.query is query
                assert hit_pairs(result.hits) == hit_pairs(want.hits)
                assert start <= end
                seen.append(result)
        # The batch exercised what it claims to.
        assert any(not result.hits for result in seen)
        assert any(0 < len(result.hits) < result.query.k for result in seen)
        assert any(result.docs_scored is None for result in seen) == (
            algorithm == "taat"
        )
        assert any(result.blocks_fetched is None for result in seen) != tiered
        assert any(result.truncated for result in seen) == (
            algorithm == "block_max_wand"
        )

    def test_a_reply_longer_than_the_read_buffer(self, small_collection):
        partitioned = partition_index(small_collection, 1)
        query = ParsedQuery(("taf", "gat", "vib"), k=1_000)
        items = [(0, query)] * 64
        replies, expected = self._round_trip(partitioned, items)
        hits = sum(len(result.hits) for _, result, _, _ in replies)
        assert 16 * hits > mp._FRAME_BYTES  # read via BufferTooShort
        assert [result for _, result, _, _ in replies] == expected

    def test_an_item_error_is_raised_typed_and_the_pipe_stays_in_step(
        self, small_collection
    ):
        partitioned = partition_index(small_collection, 1)
        with SharedIndexArena(partitioned) as arena:
            pool = ProcessShardPool(
                arena.spec, workers=1,
                options=WorkerOptions(algorithm="wand"),
                probe_interval_s=None,
            )
            try:
                ok = ParsedQuery(("celo",), k=3)
                mixed = [(0, ok), (0, ParsedQuery(("celo",), QueryMode.AND))]
                with pytest.raises(ValueError, match="OR queries only"):
                    pool.submit_batch(mixed).result(timeout=30)
                [(_, result, _, _)] = pool.submit_batch(
                    [(0, ok)]
                ).result(timeout=30)
                assert len(result.hits) == 3
            finally:
                pool.close()


class TestExecutionConfigValidation:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExecutionConfig(backend="gpu")

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            ExecutionConfig(workers=0)
        with pytest.raises(ValueError):
            ExecutionConfig(batch_size=0)
        with pytest.raises(ValueError, match="start_method"):
            ExecutionConfig(start_method="teleport")

    def test_defaults_are_the_thread_backend(self):
        config = ExecutionConfig()
        assert config.backend == "threads"
        assert config.workers is None
