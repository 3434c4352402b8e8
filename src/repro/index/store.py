"""Tiered, larger-than-RAM index storage (Airphant direction).

The benchmark so far keeps every shard index fully resident; the paper
shows index residency drives service time, and the ROADMAP's next step
is serving an index **larger than RAM**.  This module provides the
storage layer for that: postings live in a *segment* — in memory or
behind a model of an object store — cut into fixed-size
**blocks** (the same blocks the Block-Max WAND metadata describes), and
are paged in block-at-a-time through an admission-controlled cache.

Layers, bottom up:

- :class:`BlockStore` — the raw byte store: :class:`InMemoryBlockStore`
  (dict-backed) and :class:`SlowStore` (a seedable wrapper modeling
  object-store latency and faults — the chaos knob for the fetch path).
- :class:`BlockCache` — a byte-budgeted cache with **single-flight**
  fetch deduplication (many threads asking for the same cold block
  perform exactly one underlying fetch) and **TinyLFU-style admission**
  (a frequency sketch decides whether a newcomer may displace the LRU
  victim, so one cold scan cannot flush the hot set).
- :class:`TieredIndex` — duck-types
  :class:`~repro.index.inverted.InvertedIndex`: the dictionary, the
  document-length table, and the per-block metadata stay resident (they
  are what Block-Max WAND's bounds are computed from), while postings
  blocks are fetched on demand.  Exhaustive/WAND traversal materializes
  a term's blocks through the cache; Block-Max WAND pages in **only the
  blocks its bounds cannot rule out** (see
  :mod:`repro.search.block_max_wand`'s paged records).

Paging is an engineering change, never a ranking change: the property
suite asserts tiered search is bit-identical — doc ids *and* float
scores — to fully-resident search under every cache budget, including
budgets too small to hold a single block.

Every block payload (:func:`encode_postings_block`) is independently
decodable (its first doc id is absolute) and independently checksummed,
so a flipped bit in a paged-in block raises :class:`BlockIntegrityError`
instead of mis-scoring.
"""

from __future__ import annotations

import io
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.index.blockmax import BlockMetadata
from repro.index.compression import decode_varint, encode_varint
from repro.index.dictionary import TermDictionary, TermInfo
from repro.index.inverted import InvertedIndex
from repro.index.serialization import CorruptedIndexError
from repro.text.analyzer import Analyzer

__all__ = [
    "StoreError",
    "BlockNotFoundError",
    "StoreTimeoutError",
    "BlockIntegrityError",
    "BlockKey",
    "BlockStore",
    "InMemoryBlockStore",
    "SlowStore",
    "BlockCache",
    "CacheSnapshot",
    "FrequencySketch",
    "TieredIndex",
    "TieredPostings",
    "TieredStorageConfig",
    "build_block_map",
    "tier_index",
    "tier_partitioned_index",
    "encode_postings_block",
    "decode_postings_block",
]

_CHECKSUM_BYTES = 4


# ---------------------------------------------------------------------------
# typed fetch-path errors


class StoreError(RuntimeError):
    """Base class for block-store fetch failures.

    Store errors raised while a shard search pages blocks in propagate
    out of the shard attempt, where the resilient fan-out treats them
    like any other shard failure: the attempt is retried, the shard's
    circuit breaker records the failure, and an undecidable shard drops
    from the merge (coverage degrades) — never a wrong result.
    """


class BlockNotFoundError(StoreError, KeyError):
    """The requested block does not exist in the store."""


class StoreTimeoutError(StoreError, TimeoutError):
    """A (modeled) object-store fetch exceeded its deadline."""


class BlockIntegrityError(StoreError, CorruptedIndexError):
    """A paged-in block failed its crc32 integrity check."""


class BlockKey(NamedTuple):
    """Address of one postings block: dense term id + block ordinal."""

    term_id: int
    block: int


# ---------------------------------------------------------------------------
# block stores


class BlockStore:
    """Abstract byte store addressed by :class:`BlockKey`."""

    def read(self, key: BlockKey) -> bytes:
        """Return the raw bytes of ``key``'s block.

        Raises a :class:`StoreError` subclass on any fetch failure.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (optional)."""


class InMemoryBlockStore(BlockStore):
    """A dict-backed store — the fully-RAM-resident baseline tier."""

    def __init__(self, blocks: Dict[BlockKey, bytes]):
        self._blocks = dict(blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def read(self, key: BlockKey) -> bytes:
        payload = self._blocks.get(key)
        if payload is None:
            raise BlockNotFoundError(f"no block {key} in store")
        return payload


class SlowStore(BlockStore):
    """Wrap a store with object-store latency and seedable faults.

    Parameters
    ----------
    inner:
        The store actually holding the bytes.
    latency_s:
        Fixed per-fetch latency (first-byte latency of a remote GET).
    timeout_rate:
        Probability that a fetch times out instead of returning —
        raised as :class:`StoreTimeoutError`.  Draws come from a
        dedicated ``numpy`` generator so a seed reproduces the exact
        fault sequence.
    seed:
        Seed of the fault stream.
    """

    def __init__(
        self,
        inner: BlockStore,
        latency_s: float = 0.0,
        timeout_rate: float = 0.0,
        seed: int = 0,
    ):
        if latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        if not 0.0 <= timeout_rate <= 1.0:
            raise ValueError(f"timeout_rate must be in [0, 1], got {timeout_rate}")
        self.inner = inner
        self.latency_s = latency_s
        self.timeout_rate = timeout_rate
        self._rng = np.random.default_rng(seed)
        self._rng_lock = threading.Lock()

    def _times_out(self) -> bool:
        if self.timeout_rate <= 0.0:
            return False
        with self._rng_lock:
            return bool(self._rng.random() < self.timeout_rate)

    def read(self, key: BlockKey) -> bytes:
        if self._times_out():
            raise StoreTimeoutError(f"fetch of block {key} timed out")
        payload = self.inner.read(key)
        if self.latency_s > 0.0:
            time.sleep(self.latency_s)
        return payload

    def close(self) -> None:
        self.inner.close()


# ---------------------------------------------------------------------------
# TinyLFU-style admission sketch


class FrequencySketch:
    """A tiny count-min sketch with periodic aging (TinyLFU's core).

    Four hash rows of saturating 8-bit counters estimate how often each
    key has been requested; after ``sample_size`` recorded accesses all
    counters are halved, so the estimate tracks *recent* popularity.
    Callers must synchronize access (the :class:`BlockCache` records
    under its own lock).
    """

    _SALTS = (0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F)
    _MAX_COUNT = 255

    def __init__(self, width: int = 1024, sample_size: Optional[int] = None):
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        self._width = width
        self._rows = np.zeros((len(self._SALTS), width), dtype=np.uint16)
        self._sample_size = sample_size if sample_size is not None else 8 * width
        self._observed = 0

    def _columns(self, key) -> List[int]:
        payload = repr(key).encode("utf-8")
        return [
            zlib.crc32(payload, salt) % self._width for salt in self._SALTS
        ]

    def record(self, key) -> None:
        """Count one access to ``key`` (ages the sketch as needed)."""
        for row, column in enumerate(self._columns(key)):
            if self._rows[row, column] < self._MAX_COUNT:
                self._rows[row, column] += 1
        self._observed += 1
        if self._observed >= self._sample_size:
            self._rows >>= 1
            self._observed //= 2

    def estimate(self, key) -> int:
        """Estimated access count of ``key`` (an upper bound)."""
        return int(
            min(
                self._rows[row, column]
                for row, column in enumerate(self._columns(key))
            )
        )


# ---------------------------------------------------------------------------
# the admission-controlled block cache


@dataclass(frozen=True)
class CacheSnapshot:
    """A point-in-time copy of a :class:`BlockCache`'s counters.

    ``blocks_fetched``/``bytes_read`` count **underlying store reads**
    — single-flight waiters share one fetch, so under contention these
    stay below the miss count.  ``admission_rejects`` counts fetched
    blocks the TinyLFU filter refused to cache.
    """

    block_hits: int = 0
    block_misses: int = 0
    blocks_fetched: int = 0
    bytes_read: int = 0
    admission_rejects: int = 0
    evictions: int = 0
    bytes_cached: int = 0

    def delta(self, earlier: "CacheSnapshot") -> "CacheSnapshot":
        """Counter movement since ``earlier`` (bytes_cached is absolute)."""
        return CacheSnapshot(
            block_hits=self.block_hits - earlier.block_hits,
            block_misses=self.block_misses - earlier.block_misses,
            blocks_fetched=self.blocks_fetched - earlier.blocks_fetched,
            bytes_read=self.bytes_read - earlier.bytes_read,
            admission_rejects=self.admission_rejects - earlier.admission_rejects,
            evictions=self.evictions - earlier.evictions,
            bytes_cached=self.bytes_cached,
        )


class _Flight:
    """One in-flight fetch: waiters block on the event, leader fills it."""

    __slots__ = ("event", "value", "size", "error")

    def __init__(self):
        self.event = threading.Event()
        self.value = None
        self.size = 0
        self.error: Optional[BaseException] = None


class BlockCache:
    """Byte-budgeted block cache with single-flight and TinyLFU admission.

    The cache sits **under** the engine's existing thread-safe result
    LRU: the result cache answers whole repeated queries, this one
    keeps hot *postings blocks* resident so cold queries over a
    larger-than-RAM index stay cheap.

    Parameters
    ----------
    budget_bytes:
        Total bytes of cached values allowed (0 disables caching — every
        ``get`` fetches, which must still be *correct*, just slow).
    loader:
        ``loader(key) -> (value, size_bytes)`` performs the underlying
        fetch (store read + integrity check + decode).  Called outside
        the cache lock, and — per key — by exactly one thread at a time
        no matter how many are waiting (single-flight).
    admission:
        Enable the TinyLFU filter.  Off, the cache is a plain
        byte-budget LRU.
    sketch_width:
        Width of the admission frequency sketch.
    metrics:
        Optional registry mirroring the counters as ``store.*`` /
        ``cache.*`` series.

    A value larger than the whole budget is returned to the caller but
    never cached (and never counted as an admission reject — no policy
    could have admitted it).
    """

    def __init__(
        self,
        budget_bytes: int,
        loader: Callable[[BlockKey], Tuple[object, int]],
        admission: bool = True,
        sketch_width: int = 1024,
        metrics=None,
    ):
        if budget_bytes < 0:
            raise ValueError(f"budget_bytes must be >= 0, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._loader = loader
        self._admission = admission
        self._sketch = FrequencySketch(width=sketch_width)
        self._metrics = metrics
        self._lock = threading.Lock()
        # Python dicts preserve insertion order; entries are re-inserted
        # on touch, so the first key is always the LRU victim.
        self._entries: "Dict[BlockKey, Tuple[object, int]]" = {}
        self._flights: Dict[BlockKey, _Flight] = {}
        self._hits = 0
        self._misses = 0
        self._fetched = 0
        self._bytes_read = 0
        self._rejects = 0
        self._evictions = 0
        self._bytes_cached = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: BlockKey) -> bool:
        with self._lock:
            return key in self._entries

    def snapshot(self) -> CacheSnapshot:
        """Copy the counters atomically."""
        with self._lock:
            return CacheSnapshot(
                block_hits=self._hits,
                block_misses=self._misses,
                blocks_fetched=self._fetched,
                bytes_read=self._bytes_read,
                admission_rejects=self._rejects,
                evictions=self._evictions,
                bytes_cached=self._bytes_cached,
            )

    def clear(self) -> None:
        """Drop all cached entries (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes_cached = 0

    def get(self, key: BlockKey):
        """Return ``key``'s value, fetching through the loader on a miss.

        Loader failures propagate to **every** waiter of that flight
        (each raises the leader's exception) and cache nothing, so a
        transient store fault never poisons the cache.
        """
        with self._lock:
            self._sketch.record(key)
            entry = self._entries.get(key)
            if entry is not None:
                # Touch: re-insert to refresh LRU position.
                del self._entries[key]
                self._entries[key] = entry
                self._hits += 1
                if self._metrics is not None:
                    self._metrics.counter("cache.block_hits").add()
                return entry[0]
            self._misses += 1
            if self._metrics is not None:
                self._metrics.counter("cache.block_misses").add()
            flight = self._flights.get(key)
            if flight is None:
                flight = _Flight()
                self._flights[key] = flight
                leader = True
            else:
                leader = False
        if not leader:
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value
        try:
            value, size = self._loader(key)
        except BaseException as exc:
            with self._lock:
                del self._flights[key]
            flight.error = exc
            flight.event.set()
            raise
        with self._lock:
            self._fetched += 1
            self._bytes_read += int(size)
            if self._metrics is not None:
                self._metrics.counter("store.blocks_fetched").add()
                self._metrics.counter("store.bytes_read").add(int(size))
            self._maybe_admit(key, value, int(size))
            del self._flights[key]
        flight.value = value
        flight.size = size
        flight.event.set()
        return value

    def _maybe_admit(self, key: BlockKey, value, size: int) -> None:
        """Decide (under the lock) whether the fetched value is cached."""
        if size > self.budget_bytes:
            return  # can never fit; bypass silently
        while self._bytes_cached + size > self.budget_bytes:
            victim = next(iter(self._entries))
            if self._admission and self._sketch.estimate(
                key
            ) < self._sketch.estimate(victim):
                # The newcomer is colder than the coldest resident:
                # keep the resident set intact (scan resistance).
                self._rejects += 1
                if self._metrics is not None:
                    self._metrics.counter("cache.admission_rejects").add()
                return
            _, victim_size = self._entries.pop(victim)
            self._bytes_cached -= victim_size
            self._evictions += 1
            if self._metrics is not None:
                self._metrics.counter("cache.block_evictions").add()
        self._entries[key] = (value, size)
        self._bytes_cached += size
        if self._metrics is not None:
            self._metrics.gauge("cache.bytes_cached").set(
                float(self._bytes_cached)
            )


# ---------------------------------------------------------------------------
# block payload codec


def encode_postings_block(
    doc_ids: np.ndarray, frequencies: np.ndarray
) -> bytes:
    """Encode one postings block: crc32, absolute first id, then gaps.

    Unlike :func:`repro.index.compression.encode_postings`, the block's
    first doc id is stored absolutely so every block decodes without
    its predecessors — the property random paging depends on.
    """
    body = io.BytesIO()
    previous: Optional[int] = None
    for doc_id, frequency in zip(doc_ids, frequencies):
        if previous is None:
            body.write(encode_varint(int(doc_id)))
        else:
            body.write(encode_varint(int(doc_id) - previous - 1))
        body.write(encode_varint(int(frequency)))
        previous = int(doc_id)
    payload = body.getvalue()
    return zlib.crc32(payload).to_bytes(_CHECKSUM_BYTES, "little") + payload


def decode_postings_block(
    data: bytes, count: int, key: Optional[BlockKey] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode one block of ``count`` postings; verifies the crc32.

    Returns ``(doc_ids, frequencies)`` int64 arrays.  Corruption —
    checksum mismatch, short payload, trailing bytes — raises
    :class:`BlockIntegrityError`.
    """
    label = f"block {key}" if key is not None else "block"
    if len(data) < _CHECKSUM_BYTES:
        raise BlockIntegrityError(f"{label} shorter than its checksum")
    stored = int.from_bytes(data[:_CHECKSUM_BYTES], "little")
    payload = data[_CHECKSUM_BYTES:]
    actual = zlib.crc32(payload)
    if actual != stored:
        raise BlockIntegrityError(
            f"{label} checksum mismatch: stored {stored:#010x}, "
            f"computed {actual:#010x}"
        )
    doc_ids = np.empty(count, dtype=np.int64)
    frequencies = np.empty(count, dtype=np.int64)
    offset = 0
    previous: Optional[int] = None
    try:
        for position in range(count):
            gap, offset = decode_varint(payload, offset)
            doc_id = gap if previous is None else previous + gap + 1
            frequency, offset = decode_varint(payload, offset)
            doc_ids[position] = doc_id
            frequencies[position] = frequency
            previous = doc_id
    except ValueError as exc:
        raise BlockIntegrityError(f"{label} failed to parse: {exc}") from exc
    if offset != len(payload):
        raise BlockIntegrityError(
            f"{label} has {len(payload) - offset} trailing bytes"
        )
    return doc_ids, frequencies


# ---------------------------------------------------------------------------
# resident per-term metadata + the tiered index


@dataclass(frozen=True)
class _TermBlocks:
    """Resident metadata of one term's paged postings.

    Everything Block-Max WAND reads without paging lives here: skip
    pointers (first/last doc id per block), score-bound ingredients,
    and the byte length of each block (for budget math).
    """

    num_postings: int
    first_doc_ids: np.ndarray
    block_lengths: np.ndarray
    metadata: BlockMetadata

    @property
    def num_blocks(self) -> int:
        return int(self.first_doc_ids.size)

    def block_count(self, block: int) -> int:
        """Number of postings in ``block`` (the last may be short)."""
        size = self.metadata.block_size
        return min(size, self.num_postings - block * size)


class TieredPostings:
    """Block-at-a-time view of one term's postings.

    ``block(i)`` pages in (through the cache) and returns the decoded
    ``(doc_ids, frequencies)`` arrays of block ``i``;
    ``materialize()`` assembles the full list's arrays (what exhaustive
    traversals consume).
    """

    __slots__ = ("info", "_fetch")

    def __init__(self, info: _TermBlocks, fetch):
        self.info = info
        self._fetch = fetch

    def __len__(self) -> int:
        return self.info.num_postings

    def block(self, block: int) -> Tuple[np.ndarray, np.ndarray]:
        """Decoded arrays of one block (paged in on first touch)."""
        return self._fetch(block)

    def materialize(self) -> Tuple[np.ndarray, np.ndarray]:
        """The full ``(doc_ids, frequencies)`` (pages in every block)."""
        parts = [self.block(i) for i in range(self.info.num_blocks)]
        return (
            np.concatenate([doc_ids for doc_ids, _ in parts]),
            np.concatenate([frequencies for _, frequencies in parts]),
        )


class TieredIndex:
    """An inverted index whose postings live in a :class:`BlockStore`.

    Duck-types :class:`~repro.index.inverted.InvertedIndex`: the term
    dictionary, document lengths, analyzer, and per-block metadata are
    resident; :meth:`postings_for_id` pages a term's blocks in through
    the :class:`BlockCache` and concatenates them.  Block-Max WAND
    recognizes :meth:`tiered_postings_for_id` and pages in **only** the
    blocks its bounds cannot rule out.

    Build one with :func:`tier_index` from a resident index, whose
    immutable :class:`~repro.index.dictionary.TermDictionary` it shares.
    """

    is_tiered = True

    def __init__(
        self,
        dictionary: TermDictionary,
        terms: List[_TermBlocks],
        doc_lengths: np.ndarray,
        analyzer: Analyzer,
        block_size: int,
        store: BlockStore,
        cache: BlockCache,
    ):
        if len(dictionary) != len(terms):
            raise ValueError(
                f"dictionary has {len(dictionary)} terms but "
                f"{len(terms)} tiered term entries were given"
            )
        self.dictionary = dictionary
        self._terms = terms
        self.doc_lengths = np.asarray(doc_lengths, dtype=np.int64)
        # Taken once, as on InvertedIndex: read by every query's scorer.
        self.average_doc_length = (
            float(self.doc_lengths.mean()) if self.doc_lengths.size else 0.0
        )
        self.analyzer = analyzer
        self.block_size = int(block_size)
        self.store = store
        self.cache = cache

    # -- resident statistics (identical to InvertedIndex) ---------------

    @property
    def num_documents(self) -> int:
        return int(self.doc_lengths.size)

    @property
    def num_terms(self) -> int:
        return len(self.dictionary)

    @property
    def total_postings(self) -> int:
        return sum(info.num_postings for info in self._terms)

    @property
    def total_block_bytes(self) -> int:
        """Total bytes of all postings blocks (the pageable set)."""
        return int(
            sum(int(info.block_lengths.sum()) for info in self._terms)
        )

    def term_info(self, term: str) -> Optional[TermInfo]:
        return self.dictionary.lookup(term)

    def document_frequency(self, term: str) -> int:
        info = self.dictionary.lookup(term)
        return info.document_frequency if info else 0

    def matched_postings_volume(self, terms: List[str]) -> int:
        return sum(self.document_frequency(term) for term in terms)

    def block_metadata_for_id(self, term_id: int) -> BlockMetadata:
        return self._terms[term_id].metadata

    # -- paged postings access ------------------------------------------

    def tiered_postings_for_id(self, term_id: int) -> TieredPostings:
        """Block-at-a-time view of one term (the paged BMW entry point)."""
        info = self._terms[term_id]

        def fetch(block: int) -> Tuple[np.ndarray, np.ndarray]:
            return self.cache.get(BlockKey(term_id, block))

        return TieredPostings(info, fetch)

    def postings_for_id(
        self, term_id: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """A term's ``(doc_ids, frequencies)`` — pages in every block."""
        return self.tiered_postings_for_id(term_id).materialize()

    # -- observability ---------------------------------------------------

    def store_stats(self) -> CacheSnapshot:
        """Current paging counters (hits/misses/fetches/bytes)."""
        return self.cache.snapshot()


# ---------------------------------------------------------------------------
# building tiered segments


def _term_blocks_from_index(
    index: InvertedIndex, term_id: int
) -> Tuple[_TermBlocks, List[bytes]]:
    """Cut one term's postings into encoded blocks + resident metadata."""
    doc_ids, frequencies = index.postings_for_id(term_id)
    metadata = index.block_metadata_for_id(term_id)
    block_size = index.block_size
    payloads: List[bytes] = []
    first_doc_ids = np.empty(metadata.num_blocks, dtype=np.int64)
    for block in range(metadata.num_blocks):
        start = block * block_size
        end = min(start + block_size, doc_ids.size)
        first_doc_ids[block] = doc_ids[start] if end > start else -1
        payloads.append(
            encode_postings_block(doc_ids[start:end], frequencies[start:end])
        )
    info = _TermBlocks(
        num_postings=doc_ids.size,
        first_doc_ids=first_doc_ids,
        block_lengths=np.array(
            [len(payload) for payload in payloads], dtype=np.int64
        ),
        metadata=metadata,
    )
    return info, payloads


def build_block_map(
    index: InvertedIndex,
) -> Tuple[List[_TermBlocks], Dict[BlockKey, bytes]]:
    """Cut every term of ``index`` into independently-decodable blocks.

    Returns the resident per-term metadata and the block payload map an
    :class:`InMemoryBlockStore` serves.
    """
    terms: List[_TermBlocks] = []
    blocks: Dict[BlockKey, bytes] = {}
    for term_id in range(index.num_terms):
        info, payloads = _term_blocks_from_index(index, term_id)
        terms.append(info)
        for block, payload in enumerate(payloads):
            blocks[BlockKey(term_id, block)] = payload
    return terms, blocks


def tier_index(
    index: InvertedIndex,
    cache_budget_bytes: int,
    admission: bool = True,
    store_wrapper: Optional[Callable[[BlockStore], BlockStore]] = None,
    metrics=None,
) -> TieredIndex:
    """Re-home a resident index onto an in-memory block store + cache.

    ``store_wrapper`` (e.g. ``lambda s: SlowStore(s, latency_s=1e-4)``)
    interposes latency/fault modeling between the cache and the bytes.
    The returned index answers every query bit-identically to ``index``.
    """
    terms, blocks = build_block_map(index)
    store: BlockStore = InMemoryBlockStore(blocks)
    if store_wrapper is not None:
        store = store_wrapper(store)
    return _assemble_tiered(
        dictionary=index.dictionary,
        terms=terms,
        doc_lengths=index.doc_lengths,
        analyzer=index.analyzer,
        block_size=index.block_size,
        store=store,
        cache_budget_bytes=cache_budget_bytes,
        admission=admission,
        metrics=metrics,
    )


def _assemble_tiered(
    dictionary: TermDictionary,
    terms: List[_TermBlocks],
    doc_lengths: np.ndarray,
    analyzer: Analyzer,
    block_size: int,
    store: BlockStore,
    cache_budget_bytes: int,
    admission: bool,
    metrics,
) -> TieredIndex:
    def loader(key: BlockKey):
        info = terms[key.term_id]
        payload = store.read(key)
        doc_ids, frequencies = decode_postings_block(
            payload, info.block_count(key.block), key
        )
        if int(doc_ids[-1]) != int(info.metadata.last_doc_ids[key.block]):
            raise BlockIntegrityError(
                f"block {key} decoded to last doc id {int(doc_ids[-1])} "
                f"but the TOC says "
                f"{int(info.metadata.last_doc_ids[key.block])}"
            )
        return (doc_ids, frequencies), len(payload)

    cache = BlockCache(
        budget_bytes=cache_budget_bytes,
        loader=loader,
        admission=admission,
        metrics=metrics,
    )
    return TieredIndex(
        dictionary=dictionary,
        terms=terms,
        doc_lengths=doc_lengths,
        analyzer=analyzer,
        block_size=block_size,
        store=store,
        cache=cache,
    )


# ---------------------------------------------------------------------------
# engine-facing configuration


@dataclass(frozen=True)
class TieredStorageConfig:
    """How a search service tiers its shard indexes.

    Attributes
    ----------
    cache_budget_bytes:
        Total block-cache budget across the server; each shard gets an
        equal slice.  0 disables caching (every block access fetches).
    admission:
        Enable TinyLFU admission control (off = plain byte-budget LRU).
    fetch_latency_s:
        When positive, each shard's store is wrapped in a
        :class:`SlowStore` modeling object-store fetch latency.
    timeout_rate / seed:
        Seedable fetch-timeout injection (chaos testing of the paging
        path); timeouts surface as shard failures, not wrong results.
    """

    cache_budget_bytes: int = 4 << 20
    admission: bool = True
    fetch_latency_s: float = 0.0
    timeout_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cache_budget_bytes < 0:
            raise ValueError("cache_budget_bytes must be >= 0")
        if self.fetch_latency_s < 0:
            raise ValueError("fetch_latency_s must be non-negative")
        if not 0.0 <= self.timeout_rate <= 1.0:
            raise ValueError("timeout_rate must be in [0, 1]")

    @property
    def needs_slow_store(self) -> bool:
        """True when latency or fault modeling is requested."""
        return self.fetch_latency_s > 0.0 or self.timeout_rate > 0.0

    def store_wrapper(
        self, seed_offset: int = 0
    ) -> Optional[Callable[[BlockStore], BlockStore]]:
        """The :class:`SlowStore` factory this config implies (or None).

        ``seed_offset`` (typically the shard id) decorrelates the fault
        streams of sibling shards while keeping each one reproducible.
        """
        if not self.needs_slow_store:
            return None
        return lambda store: SlowStore(
            store,
            latency_s=self.fetch_latency_s,
            timeout_rate=self.timeout_rate,
            seed=self.seed + seed_offset,
        )


def tier_partitioned_index(
    partitioned,
    config: TieredStorageConfig,
    metrics=None,
):
    """Re-home every shard of a partitioned index onto tiered storage.

    The cache budget is split evenly across shards (each shard owns an
    independent :class:`BlockCache`, so there is no cross-shard lock
    contention), and each shard's fault stream gets its own seed.
    Returns a new :class:`~repro.index.partitioner.PartitionedIndex`
    whose shards serve bit-identical results to the originals.
    """
    from repro.index.partitioner import IndexShard, PartitionedIndex

    per_shard_budget = config.cache_budget_bytes // max(
        1, partitioned.num_partitions
    )
    shards = [
        IndexShard(
            shard_id=shard.shard_id,
            index=tier_index(
                shard.index,
                cache_budget_bytes=per_shard_budget,
                admission=config.admission,
                store_wrapper=config.store_wrapper(shard.shard_id),
                metrics=metrics,
            ),
            global_doc_ids=shard.global_doc_ids,
        )
        for shard in partitioned
    ]
    return PartitionedIndex(shards=shards, strategy=partitioned.strategy)
