"""Search execution facade over one index or one shard."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.index.inverted import InvertedIndex
from repro.index.partitioner import IndexShard
from repro.obs.registry import MetricsRegistry
from repro.search.block_max_wand import _score_block_max_wand
from repro.search.daat import score_daat
from repro.search.query import DEFAULT_TOP_K, ParsedQuery, QueryMode, QueryParser
from repro.search.scoring import BM25Scorer, Scorer
from repro.search.strategy import TraversalStats, TraversalStrategy
from repro.search.taat import score_taat
from repro.search.topk import SearchHit
from repro.search.wand import score_wand

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.index.store import CacheSnapshot

#: Supported traversal algorithms.
ALGORITHMS = ("daat", "taat", "wand", "block_max_wand")


class SearchCancelled(RuntimeError):
    """Raised when a search attempt observes its cancellation token.

    The hedged fan-out (:mod:`repro.engine.isn`) sets a loser attempt's
    token the moment a sibling wins; the attempt abandons its work at
    the next cancellation point instead of computing a result nobody
    will read.
    """


@dataclass(frozen=True)
class SearchResult:
    """The outcome of evaluating one query against one index/shard.

    Attributes
    ----------
    hits:
        Ranked hits, best first.  A searcher that was given a shard's
        ``global_doc_ids`` reports collection-global doc ids.
    query:
        The parsed query that was evaluated.
    matched_volume:
        Total postings volume of the query's terms in this index —
        the per-query work proxy used for characterization/calibration;
        the traversal sums it from its own term lookups.
    docs_scored:
        Documents fully scored by the traversal, or None when the
        algorithm does not report it (taat).
    blocks_skipped:
        What block-max bounds pruned (``TraversalStats.block_skips``);
        None for algorithms without block metadata.
    blocks_fetched / bytes_read:
        Postings blocks paged in from the block store while evaluating
        this query, and their encoded bytes; None on a fully-resident
        index.  Measured as a cache-counter delta around the
        traversal, so concurrent queries on the same shard may shift
        fetches between each other's counts (totals stay exact).
    truncated:
        True when a deadline budget (``max_docs_scored``) stopped the
        traversal early, making the hits approximate; always False on
        an exact run.
    """

    hits: Tuple[SearchHit, ...]
    query: ParsedQuery
    matched_volume: int
    docs_scored: Optional[int] = None
    blocks_skipped: Optional[int] = None
    blocks_fetched: Optional[int] = None
    bytes_read: Optional[int] = None
    truncated: bool = False

    def doc_ids(self) -> List[int]:
        """Doc ids of the hits, best first."""
        return [hit.doc_id for hit in self.hits]

    def scores(self) -> List[float]:
        """Scores of the hits, best first."""
        return [hit.score for hit in self.hits]


@dataclass
class Searcher:
    """Evaluates queries against a single inverted index.

    Parameters
    ----------
    index:
        The index to search.
    algorithm:
        ``"daat"`` (benchmark-faithful array merge, default), ``"taat"``
        (dense accumulator, its independent cross-check), ``"wand"``, or
        ``"block_max_wand"`` (early-terminated; OR
        queries only).  A :class:`~repro.search.strategy.TraversalStrategy`
        (or one of its aliases, e.g. ``"exhaustive"``) is accepted and
        normalized to the algorithm name.
    scorer_factory:
        Builds the scorer from the index, once, when the searcher is
        constructed (scorers are frozen value objects, so every query
        shares it); defaults to BM25 with the index's collection
        statistics.  For DAAT, the scorer's length normaliser of every
        document (BM25's; other scorers have none) is computed with it,
        once.
    metrics:
        Optional registry for per-query counters (queries evaluated,
        postings scanned, traversal heap operations).  None — the
        default — keeps the hot path counter-free.
    global_doc_ids:
        A shard's local→global id map (``global_doc_ids[local_id]``),
        ascending, so hits stay best-first under it.  When given, hits
        carry collection-global doc ids so the merger can combine
        shards directly; None reports the index's own ids.
    """

    index: InvertedIndex
    algorithm: Union[str, TraversalStrategy] = "daat"
    scorer_factory: Optional[Callable[[InvertedIndex], Scorer]] = None
    metrics: Optional[MetricsRegistry] = None
    global_doc_ids: Optional[np.ndarray] = None
    _parser: QueryParser = field(init=False, repr=False)
    _scorer: Scorer = field(init=False, repr=False)
    _normalizer: Optional[np.ndarray] = field(init=False, repr=False)
    _store_stats: Optional[Callable[[], CacheSnapshot]] = field(
        init=False, repr=False
    )
    _impacts: Dict[str, object] = field(init=False, repr=False)
    _traverse: Callable[..., SearchResult] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # A strategy or another spelling of one names its algorithm;
        # ``"taat"``, exhaustive in another order, stays its own.
        algorithm = self.algorithm
        if isinstance(algorithm, str):
            algorithm = algorithm.strip().lower().replace("-", "_")
        if algorithm not in ALGORITHMS:
            try:
                algorithm = TraversalStrategy.coerce(algorithm).algorithm
            except ValueError:
                raise ValueError(
                    f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}"
                ) from None
        self.algorithm = algorithm
        self._parser = QueryParser(analyzer=self.index.analyzer)
        if self.scorer_factory is not None:
            self._scorer = self.scorer_factory(self.index)
        else:
            self._scorer = BM25Scorer(
                num_documents=self.index.num_documents,
                average_doc_length=self.index.average_doc_length,
            )
        # DAAT's per-document length normaliser (BM25's; None for other
        # scorers and algorithms, which never read it).
        normalizer = getattr(self._scorer, "length_normalizer", None)
        self._normalizer = (
            normalizer(self.index.doc_lengths)
            if normalizer is not None and self.algorithm == "daat"
            else None
        )
        self._store_stats = getattr(self.index, "store_stats", None)
        # Block-Max WAND's per-term records under ``_scorer`` (resident
        # index only): one per index term a query has asked for.
        self._impacts = {}
        self._traverse = getattr(type(self), f"_{self.algorithm}")

    def parse(
        self,
        text: str,
        mode: QueryMode = QueryMode.OR,
        k: int = DEFAULT_TOP_K,
    ) -> ParsedQuery:
        """Parse raw text with the index's analyzer."""
        return self._parser.parse(text, mode=mode, k=k)

    def search(
        self,
        query: Union[str, ParsedQuery],
        mode: QueryMode = QueryMode.OR,
        k: int = DEFAULT_TOP_K,
        cancel: Optional[threading.Event] = None,
        max_docs_scored: Optional[int] = None,
    ) -> SearchResult:
        """Evaluate ``query`` (raw text or pre-parsed) and return results.

        ``cancel`` is an optional cancellation token: when set before
        the traversal starts, the attempt raises :class:`SearchCancelled`
        instead of doing the work (cancel-on-first-winner support for
        hedged fan-outs).

        ``max_docs_scored`` is the deadline scheduler's early-
        termination depth — honoured by ``block_max_wand`` (which
        scores at most that many documents and returns the best) and
        ignored by the exhaustive/WAND traversals, whose work is not
        budgetable without changing their result contract.
        """
        if cancel is not None and cancel.is_set():
            raise SearchCancelled(
                f"attempt cancelled before traversal of {query!r}"
            )
        if isinstance(query, str):
            query = self.parse(query, mode=mode, k=k)
        store_stats = self._store_stats
        store_before = store_stats() if store_stats is not None else None
        result = self._traverse(self, query, max_docs_scored)
        if store_before is not None:
            paging = store_stats().delta(store_before)
            result = replace(
                result, blocks_fetched=paging.blocks_fetched,
                bytes_read=paging.bytes_read,
            )
        if self.metrics is not None:
            self.metrics.counter("search.queries").add()
            self.metrics.counter("search.postings_scanned").add(
                result.matched_volume
            )
        return result

    # One traversal per algorithm, looked up once as ``_traverse`` and
    # unbound (a bound method would put the searcher in a cycle): each
    # returns the result of ``query`` without the store's paging counts.

    def _daat(self, query: ParsedQuery, max_docs_scored) -> SearchResult:
        stats = TraversalStats()
        hits = score_daat(
            self.index, query, self._scorer, self.metrics, stats,
            self._normalizer, self.global_doc_ids,
        )
        return SearchResult(
            tuple(hits), query, stats.matched_volume, stats.docs_scored
        )

    def _taat(self, query: ParsedQuery, max_docs_scored) -> SearchResult:
        stats = TraversalStats()
        hits = score_taat(
            self.index, query, self._scorer, stats, self.global_doc_ids
        )
        return SearchResult(tuple(hits), query, stats.matched_volume)

    def _wand(self, query: ParsedQuery, max_docs_scored) -> SearchResult:
        stats = TraversalStats()
        hits = score_wand(
            self.index, query, self._scorer, self.metrics, stats,
            self.global_doc_ids,
        )
        return SearchResult(
            tuple(hits), query, stats.matched_volume, stats.docs_scored
        )

    def _block_max_wand(
        self, query: ParsedQuery, max_docs_scored
    ) -> SearchResult:
        stats = TraversalStats()
        hits = _score_block_max_wand(
            self.index, query, self._scorer, self.metrics, stats,
            max_docs_scored, self._impacts, self.global_doc_ids,
        )
        return SearchResult(
            tuple(hits), query, stats.matched_volume, stats.docs_scored,
            stats.block_skips, truncated=stats.truncated,
        )


class ShardSearcher(Searcher):
    """Evaluates queries against one intra-server partition.

    A :class:`Searcher` over the shard's index that was handed the
    shard's ``global_doc_ids``, so hits carry collection-global doc ids
    and the merger can combine shards directly.
    """

    def __init__(
        self,
        shard: IndexShard,
        algorithm: Union[str, TraversalStrategy] = "daat",
        scorer_factory: Optional[Callable[[InvertedIndex], Scorer]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(
            shard.index, algorithm, scorer_factory, metrics,
            shard.global_doc_ids,
        )
        self.shard = shard
