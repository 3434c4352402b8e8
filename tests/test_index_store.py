"""Unit tests for the tiered block store and cache.

The tiered path's contract is *bit-identical results, different I/O
schedule* — so these tests pin the building blocks that contract rests
on: the self-delimiting block codec (with checksums), the byte-budgeted
single-flight cache (admission, eviction, counter accounting, thread
safety) and the fault-injecting store wrapper.  The cross-cutting
bit-identity properties live in ``test_properties_tiered.py``.
"""

import threading
import time

import numpy as np
import pytest

from repro.corpus.documents import Document, DocumentCollection
from repro.index.builder import IndexBuilder
from repro.index.partitioner import partition_index
from repro.index.store import (
    BlockCache,
    BlockIntegrityError,
    BlockKey,
    BlockNotFoundError,
    FrequencySketch,
    InMemoryBlockStore,
    SlowStore,
    StoreTimeoutError,
    TieredStorageConfig,
    build_block_map,
    decode_postings_block,
    encode_postings_block,
    tier_index,
    tier_partitioned_index,
)
from repro.search.daat import score_daat
from repro.search.query import ParsedQuery
from repro.text.analyzer import Analyzer, AnalyzerConfig
from tests.conftest import postings_pairs


def build_index(texts, block_size=4):
    collection = DocumentCollection()
    for doc_id, text in enumerate(texts):
        collection.add(Document(doc_id, f"u{doc_id}", "", text))
    return IndexBuilder(
        Analyzer(AnalyzerConfig(remove_stopwords=False, stem=False)),
        block_size=block_size,
    ).build(collection)


@pytest.fixture(scope="module")
def paged_index():
    # Enough repeated terms that every term spans multiple 4-posting
    # blocks — the interesting regime for paging.
    return build_index(
        ["cat dog bird" for _ in range(10)]
        + ["cat fish" for _ in range(7)]
        + ["dog dog fish"],
    )


class TestBlockCodec:
    def test_roundtrip(self):
        doc_ids = np.array([3, 9, 10, 400], dtype=np.int64)
        frequencies = np.array([1, 7, 2, 1], dtype=np.int64)
        payload = encode_postings_block(doc_ids, frequencies)
        decoded_ids, decoded_freqs = decode_postings_block(payload, 4)
        assert list(decoded_ids) == [3, 9, 10, 400]
        assert list(decoded_freqs) == [1, 7, 2, 1]

    def test_first_doc_id_is_absolute(self):
        """A block decodes alone — no predecessor block required."""
        payload = encode_postings_block(
            np.array([1000], dtype=np.int64), np.array([2], dtype=np.int64)
        )
        decoded_ids, _ = decode_postings_block(payload, 1)
        assert int(decoded_ids[0]) == 1000

    @pytest.mark.parametrize("position", [0, 3, 4, -1])
    def test_bit_flip_detected(self, position):
        payload = bytearray(
            encode_postings_block(
                np.array([1, 5, 6], dtype=np.int64),
                np.array([2, 1, 3], dtype=np.int64),
            )
        )
        payload[position] ^= 0x40
        with pytest.raises(BlockIntegrityError):
            decode_postings_block(bytes(payload), 3)

    def test_truncated_payload_detected(self):
        payload = encode_postings_block(
            np.array([1, 5, 6], dtype=np.int64),
            np.array([2, 1, 3], dtype=np.int64),
        )
        with pytest.raises(BlockIntegrityError):
            decode_postings_block(payload[:-1], 3)

    def test_shorter_than_checksum_detected(self):
        with pytest.raises(BlockIntegrityError, match="checksum"):
            decode_postings_block(b"\x01\x02", 1)

    def test_wrong_count_detected(self):
        """The TOC's posting count is part of the integrity contract."""
        payload = encode_postings_block(
            np.array([1, 5, 6], dtype=np.int64),
            np.array([2, 1, 3], dtype=np.int64),
        )
        with pytest.raises(BlockIntegrityError):
            decode_postings_block(payload, 2)  # leaves trailing bytes


class TestFrequencySketch:
    def test_estimates_track_recordings(self):
        sketch = FrequencySketch(width=64)
        hot, cold = BlockKey(1, 0), BlockKey(2, 0)
        for _ in range(10):
            sketch.record(hot)
        sketch.record(cold)
        assert sketch.estimate(hot) >= sketch.estimate(cold)
        assert sketch.estimate(hot) >= 10

    def test_aging_halves_counts(self):
        sketch = FrequencySketch(width=16, sample_size=8)
        key = BlockKey(0, 0)
        for _ in range(8):  # the 8th recording triggers the halving
            sketch.record(key)
        assert sketch.estimate(key) <= 4

    def test_counters_saturate(self):
        sketch = FrequencySketch(width=8, sample_size=1 << 30)
        key = BlockKey(0, 0)
        for _ in range(300):
            sketch.record(key)
        assert sketch.estimate(key) == 255


def counting_loader(blocks, size=10):
    """A loader over a dict that counts its own invocations."""
    calls = []

    def loader(key):
        calls.append(key)
        return blocks[key], size

    return loader, calls


class TestBlockCache:
    def test_hit_after_miss(self):
        loader, calls = counting_loader({BlockKey(0, 0): "x"})
        cache = BlockCache(budget_bytes=100, loader=loader)
        assert cache.get(BlockKey(0, 0)) == "x"
        assert cache.get(BlockKey(0, 0)) == "x"
        assert len(calls) == 1
        snap = cache.snapshot()
        assert snap.block_hits == 1
        assert snap.block_misses == 1
        assert snap.blocks_fetched == 1
        assert snap.bytes_read == 10

    def test_zero_budget_always_fetches_but_stays_correct(self):
        blocks = {BlockKey(0, i): f"v{i}" for i in range(3)}
        loader, calls = counting_loader(blocks)
        cache = BlockCache(budget_bytes=0, loader=loader)
        for _ in range(2):
            for i in range(3):
                assert cache.get(BlockKey(0, i)) == f"v{i}"
        assert len(calls) == 6
        assert cache.snapshot().bytes_cached == 0

    def test_lru_eviction_order(self):
        blocks = {BlockKey(0, i): f"v{i}" for i in range(3)}
        loader, _ = counting_loader(blocks, size=10)
        cache = BlockCache(budget_bytes=20, loader=loader, admission=False)
        cache.get(BlockKey(0, 0))
        cache.get(BlockKey(0, 1))
        cache.get(BlockKey(0, 0))  # touch: 1 becomes the LRU victim
        cache.get(BlockKey(0, 2))
        assert BlockKey(0, 0) in cache
        assert BlockKey(0, 1) not in cache
        assert BlockKey(0, 2) in cache
        assert cache.snapshot().evictions == 1

    def test_admission_rejects_cold_newcomer(self):
        blocks = {BlockKey(0, i): f"v{i}" for i in range(3)}
        loader, _ = counting_loader(blocks, size=10)
        cache = BlockCache(budget_bytes=20, loader=loader, admission=True)
        for _ in range(5):  # make 0 and 1 hot
            cache.get(BlockKey(0, 0))
            cache.get(BlockKey(0, 1))
        cache.get(BlockKey(0, 2))  # one cold touch: colder than any victim
        assert BlockKey(0, 2) not in cache
        assert BlockKey(0, 0) in cache and BlockKey(0, 1) in cache
        snap = cache.snapshot()
        assert snap.admission_rejects == 1
        assert snap.evictions == 0

    def test_rejected_value_still_returned(self):
        blocks = {BlockKey(0, i): f"v{i}" for i in range(3)}
        loader, _ = counting_loader(blocks, size=10)
        cache = BlockCache(budget_bytes=20, loader=loader, admission=True)
        for _ in range(5):
            cache.get(BlockKey(0, 0))
            cache.get(BlockKey(0, 1))
        assert cache.get(BlockKey(0, 2)) == "v2"

    def test_oversized_value_bypasses_without_reject(self):
        loader, _ = counting_loader({BlockKey(0, 0): "big"}, size=1000)
        cache = BlockCache(budget_bytes=100, loader=loader)
        assert cache.get(BlockKey(0, 0)) == "big"
        snap = cache.snapshot()
        assert snap.bytes_cached == 0
        assert snap.admission_rejects == 0

    def test_budget_never_exceeded(self):
        blocks = {BlockKey(0, i): i for i in range(50)}
        loader, _ = counting_loader(blocks, size=7)
        cache = BlockCache(budget_bytes=30, loader=loader, admission=False)
        for i in range(50):
            cache.get(BlockKey(0, i))
            assert 0 <= cache.snapshot().bytes_cached <= 30

    def test_clear_keeps_counters(self):
        loader, _ = counting_loader({BlockKey(0, 0): "x"})
        cache = BlockCache(budget_bytes=100, loader=loader)
        cache.get(BlockKey(0, 0))
        cache.clear()
        assert len(cache) == 0
        snap = cache.snapshot()
        assert snap.blocks_fetched == 1
        assert snap.bytes_cached == 0

    def test_snapshot_delta(self):
        loader, _ = counting_loader({BlockKey(0, 0): "x"})
        cache = BlockCache(budget_bytes=100, loader=loader)
        before = cache.snapshot()
        cache.get(BlockKey(0, 0))
        cache.get(BlockKey(0, 0))
        delta = cache.snapshot().delta(before)
        assert delta.blocks_fetched == 1
        assert delta.block_hits == 1
        assert delta.bytes_read == 10

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            BlockCache(budget_bytes=-1, loader=lambda key: ("x", 1))

    def test_loader_failure_not_cached(self):
        attempts = []

        def loader(key):
            attempts.append(key)
            if len(attempts) == 1:
                raise StoreTimeoutError("injected")
            return "x", 1

        cache = BlockCache(budget_bytes=100, loader=loader)
        with pytest.raises(StoreTimeoutError):
            cache.get(BlockKey(0, 0))
        # The failure poisoned nothing: the retry fetches and succeeds.
        assert cache.get(BlockKey(0, 0)) == "x"
        assert len(attempts) == 2


class TestBlockCacheConcurrency:
    def test_single_flight_under_contention(self):
        """Many threads racing on one cold block cause exactly one fetch."""
        num_threads = 16
        release = threading.Event()
        calls = []

        def slow_loader(key):
            calls.append(key)
            release.wait(timeout=5.0)
            return "value", 10

        cache = BlockCache(budget_bytes=100, loader=slow_loader)
        results = []
        errors = []

        def worker():
            try:
                results.append(cache.get(BlockKey(0, 0)))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker) for _ in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        # Let every thread reach the flight before the leader finishes.
        time.sleep(0.05)
        release.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not errors
        assert results == ["value"] * num_threads
        assert len(calls) == 1
        snap = cache.snapshot()
        assert snap.blocks_fetched == 1
        assert snap.block_misses == num_threads
        assert snap.bytes_read == 10

    def test_failure_propagates_to_every_waiter(self):
        release = threading.Event()

        def failing_loader(key):
            release.wait(timeout=5.0)
            raise StoreTimeoutError("injected")

        cache = BlockCache(budget_bytes=100, loader=failing_loader)
        outcomes = []

        def worker():
            try:
                cache.get(BlockKey(0, 0))
                outcomes.append("ok")
            except StoreTimeoutError:
                outcomes.append("timeout")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        release.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert outcomes == ["timeout"] * 8
        assert len(cache) == 0

    def test_counters_consistent_under_contention(self):
        """Random mixed workload: fetches + hits == gets; budget holds."""
        blocks = {BlockKey(0, i): i for i in range(20)}
        lock = threading.Lock()
        fetches = [0]

        def loader(key):
            with lock:
                fetches[0] += 1
            time.sleep(0.0005)
            return blocks[key], 9

        cache = BlockCache(budget_bytes=90, loader=loader, admission=False)
        gets_per_thread = 60

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(gets_per_thread):
                block = int(rng.integers(0, 20))
                assert cache.get(BlockKey(0, block)) == block

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        snap = cache.snapshot()
        assert snap.blocks_fetched == fetches[0]
        assert snap.block_hits + snap.block_misses == 8 * gets_per_thread
        # Single-flight: fetches never exceed misses.
        assert snap.blocks_fetched <= snap.block_misses
        assert 0 <= snap.bytes_cached <= 90
        assert snap.bytes_read == snap.blocks_fetched * 9


class TestStores:
    def test_in_memory_missing_block(self):
        store = InMemoryBlockStore({})
        with pytest.raises(BlockNotFoundError):
            store.read(BlockKey(0, 0))

    def test_slow_store_timeout_rate_one(self):
        store = SlowStore(
            InMemoryBlockStore({BlockKey(0, 0): b"x"}), timeout_rate=1.0
        )
        with pytest.raises(StoreTimeoutError):
            store.read(BlockKey(0, 0))

    def test_slow_store_fault_stream_is_seeded(self):
        def outcomes(seed):
            store = SlowStore(
                InMemoryBlockStore({BlockKey(0, 0): b"x"}),
                timeout_rate=0.5,
                seed=seed,
            )
            stream = []
            for _ in range(20):
                try:
                    store.read(BlockKey(0, 0))
                    stream.append(True)
                except StoreTimeoutError:
                    stream.append(False)
            return stream

        assert outcomes(7) == outcomes(7)
        assert outcomes(7) != outcomes(8)

    def test_slow_store_passes_payload_through(self):
        store = SlowStore(
            InMemoryBlockStore({BlockKey(0, 0): b"payload"}),
            latency_s=0.001,
        )
        assert store.read(BlockKey(0, 0)) == b"payload"

    def test_slow_store_validates_parameters(self):
        inner = InMemoryBlockStore({})
        with pytest.raises(ValueError):
            SlowStore(inner, latency_s=-1.0)
        with pytest.raises(ValueError):
            SlowStore(inner, timeout_rate=1.5)


class TestTieredIndex:
    def test_interface_parity_with_resident(self, paged_index):
        tiered = tier_index(paged_index, cache_budget_bytes=1 << 20)
        assert tiered.num_documents == paged_index.num_documents
        assert tiered.num_terms == paged_index.num_terms
        assert tiered.total_postings == paged_index.total_postings
        assert tiered.average_doc_length == pytest.approx(
            paged_index.average_doc_length
        )
        assert tiered.dictionary is paged_index.dictionary
        for term in paged_index.dictionary:
            assert postings_pairs(tiered, term) == postings_pairs(
                paged_index, term
            )
            assert tiered.document_frequency(
                term
            ) == paged_index.document_frequency(term)

    def test_block_map_covers_every_posting(self, paged_index):
        terms, blocks = build_block_map(paged_index)
        assert len(terms) == paged_index.num_terms
        total_blocks = sum(info.num_blocks for info in terms)
        assert len(blocks) == total_blocks

    def test_unknown_term_is_empty(self, paged_index):
        tiered = tier_index(paged_index, cache_budget_bytes=1 << 20)
        assert tiered.term_info("zzzz") is None
        assert tiered.document_frequency("zzzz") == 0
        assert postings_pairs(tiered, "zzzz") == []

    def test_search_pages_blocks(self, paged_index):
        tiered = tier_index(paged_index, cache_budget_bytes=1 << 20)
        hits = score_daat(tiered, ParsedQuery(terms=("cat", "dog"), k=5))
        assert hits
        snap = tiered.store_stats()
        assert snap.blocks_fetched > 0
        assert snap.bytes_read > 0
        assert snap.bytes_read <= tiered.total_block_bytes

    def test_store_loader_validates_toc_last_doc_id(self, paged_index):
        """A block whose decoded ids disagree with the TOC is rejected."""
        terms, blocks = build_block_map(paged_index)
        # Swap a two-block term's first block payload for a valid block
        # with the wrong doc ids (fresh checksum, so only the TOC check
        # can catch it).
        victim = next(
            term_id
            for term_id, info in enumerate(terms)
            if info.num_blocks >= 2
        )
        forged = encode_postings_block(
            np.arange(terms[victim].block_count(0), dtype=np.int64) + 1000,
            np.ones(terms[victim].block_count(0), dtype=np.int64),
        )
        tiered = tier_index(paged_index, cache_budget_bytes=1 << 20)
        tiered.store._blocks[BlockKey(victim, 0)] = forged
        with pytest.raises(BlockIntegrityError, match="TOC"):
            tiered.postings_for_id(victim)


class TestTieredStorageConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TieredStorageConfig(cache_budget_bytes=-1)
        with pytest.raises(ValueError):
            TieredStorageConfig(timeout_rate=2.0)
        with pytest.raises(ValueError):
            TieredStorageConfig(fetch_latency_s=-0.1)

    def test_store_wrapper_only_when_needed(self):
        assert TieredStorageConfig().store_wrapper() is None
        wrapper = TieredStorageConfig(timeout_rate=0.5).store_wrapper(3)
        store = wrapper(InMemoryBlockStore({}))
        assert isinstance(store, SlowStore)
        assert store.timeout_rate == 0.5

    def test_partitioned_budget_split(self, small_collection):
        partitioned = partition_index(small_collection, 4)
        config = TieredStorageConfig(cache_budget_bytes=4000)
        tiered = tier_partitioned_index(partitioned, config)
        assert tiered.num_partitions == 4
        for shard, original in zip(tiered, partitioned):
            assert shard.index.cache.budget_bytes == 1000
            assert shard.index.num_documents == original.index.num_documents
            assert list(shard.global_doc_ids) == list(original.global_doc_ids)
