"""The native engine's one facade: a complete runnable search service.

``SearchService`` assembles the whole benchmark — synthetic corpus,
partitioned index, index serving node, and query log — from one config.
``repro.api.SearchEngine`` is this class under its public name, and a
query goes from it straight to the node: ``search`` is
``self.isn.execute``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.querylog import QueryLog, QueryLogConfig, QueryLogGenerator
from repro.engine.execution import ExecutionConfig
from repro.engine.hedging import HedgingPolicy
from repro.engine.isn import IndexServingNode, IsnResponse
from repro.resilience.admission import OverloadPolicy
from repro.resilience.breaker import BreakerConfig
from repro.resilience.faults import FaultPlan
from repro.engine.snippets import Snippet, SnippetGenerator
from repro.index.partitioner import PartitionedIndex, partition_index
from repro.index.positional import PositionalIndex, PositionalIndexBuilder
from repro.index.store import TieredStorageConfig
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.search.phrase import parse_phrase, score_phrase
from repro.search.query import DEFAULT_TOP_K, QueryMode
from repro.search.strategy import TraversalStrategy
from repro.search.topk import SearchHit
from repro.text.analyzer import Analyzer, default_analyzer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.predict.scheduler import DeadlineScheduler


@dataclass(frozen=True)
class ResultPageEntry:
    """One rendered result: the hit plus its presentation fields."""

    hit: SearchHit
    url: str
    title: str
    snippet: Snippet


class SearchPage(List[ResultPageEntry]):
    """A rendered result page: a list of entries plus query metadata.

    Subclassing ``list`` keeps every pre-existing caller working
    (iteration, indexing, ``len``) while giving the page the common
    query-outcome accessors (``latency_s``, ``coverage``,
    ``doc_ids()``) shared with :class:`IsnResponse` and the cluster
    tier's records.
    """

    def __init__(
        self,
        entries,
        response: IsnResponse,
        total_seconds: Optional[float] = None,
    ):
        super().__init__(entries)
        self.response = response
        self.total_seconds = total_seconds

    @property
    def latency_s(self) -> float:
        """End-to-end page latency in seconds.

        Includes snippet/presentation rendering when the page was built
        by :meth:`SearchService.search_page` (``total_seconds``), not
        just the backing ISN query — a page's client-observed latency
        is search *plus* rendering.  Falls back to the ISN response's
        latency for pages constructed without a page-level measurement.
        """
        if self.total_seconds is not None:
            return self.total_seconds
        return self.response.latency_s

    @property
    def coverage(self) -> float:
        """Fraction of shards whose answer made the merge."""
        return self.response.coverage

    def doc_ids(self) -> List[int]:
        """Global doc ids of the page's hits, best first."""
        return [entry.hit.doc_id for entry in self]


@dataclass(frozen=True, kw_only=True)
class SearchServiceConfig:
    """Keyword-only configuration of a complete search service instance.

    The one declaration of the native engine's knobs
    (:class:`repro.api.EngineConfig` is this class).  ``execution``
    selects the fan-out backend (:class:`ExecutionConfig`).

    ``tiered``, when set, re-homes every shard's postings onto the
    tiered block store after partitioning: block-at-a-time fetches
    through an admission-controlled cache (budget split evenly across
    shards), optionally behind a modeled slow/faulty object store.
    Results are bit-identical to resident serving; only the I/O
    schedule (and its latency/fault exposure) changes.
    """

    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    query_log: QueryLogConfig = field(default_factory=QueryLogConfig)
    num_partitions: int = 1
    algorithm: "str | TraversalStrategy" = "daat"
    use_global_stats: bool = True
    execution: Optional[ExecutionConfig] = None
    hedging: Optional[HedgingPolicy] = None
    overload: Optional[OverloadPolicy] = None
    breakers: Optional[BreakerConfig] = None
    faults: Optional[FaultPlan] = None
    tiered: Optional[TieredStorageConfig] = None
    scheduler: Optional["DeadlineScheduler"] = None

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")


class SearchService:
    """A fully assembled, queryable web-search benchmark instance.

    Builds the synthetic corpus, partitions and indexes it, and serves
    queries through the ISN's parallel (optionally tail-tolerant)
    fan-out.  Construct from a :class:`SearchServiceConfig` or from
    keyword overrides of the default one::

        engine = SearchService(num_partitions=4)
        outcome = engine.search("web search ranking")
        outcome.latency_s, outcome.coverage, outcome.doc_ids()

    ``tracer``/``metrics`` are forwarded to the index serving node so
    the whole serving path shares one trace collector and one counter
    registry; both default to off/absent.
    """

    def __init__(
        self,
        config: Optional[SearchServiceConfig] = None,
        *,
        analyzer: Optional[Analyzer] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        **overrides,
    ):
        if config is None:
            config = SearchServiceConfig(**overrides)
        elif overrides:
            raise TypeError(
                "pass either a config object or keyword overrides, not both"
            )
        self.config = config
        self.num_partitions = config.num_partitions
        self.analyzer = analyzer or default_analyzer()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics

        generator = CorpusGenerator(config.corpus)
        self.collection = generator.generate()
        self.isn = IndexServingNode(
            partition_index(
                self.collection, config.num_partitions, analyzer=self.analyzer
            ),
            execution=config.execution,
            tiered=config.tiered,
            algorithm=config.algorithm,
            use_global_stats=config.use_global_stats,
            hedging=config.hedging,
            overload=config.overload,
            breakers=config.breakers,
            faults=config.faults,
            scheduler=config.scheduler,
            tracer=tracer,
            metrics=metrics,
        )
        self.partitioned: PartitionedIndex = self.isn.partitioned
        self.query_log: QueryLog = QueryLogGenerator(
            generator.vocabulary, config.query_log
        ).generate()
        self._positional: Optional[PositionalIndex] = None
        self._snippets = SnippetGenerator(self.analyzer)

    def search(
        self,
        text: str,
        k: int = DEFAULT_TOP_K,
        mode: QueryMode = QueryMode.OR,
    ) -> IsnResponse:
        """Answer a query with the benchmark's partition fan-out path.

        With an :class:`~repro.resilience.admission.OverloadPolicy`
        configured, a refused query returns a
        :class:`~repro.resilience.admission.ShedResponse` instead
        (``coverage == 0.0``, ``shed`` is True); callers split the two
        with ``getattr(response, "shed", False)``.
        """
        return self.isn.execute(text, k=k, mode=mode)

    def search_batch(
        self,
        texts: List[str],
        k: int = DEFAULT_TOP_K,
        mode: QueryMode = QueryMode.OR,
    ) -> List[IsnResponse]:
        """Answer many queries in one fan-out wave.

        Responses are identical to per-query :meth:`search` calls; on
        the process execution backend the ``(query, partition)`` work
        items are batched per dispatch, which is where cross-query
        throughput scaling comes from.
        """
        return self.isn.execute_batch(texts, k=k, mode=mode)

    def document(self, doc_id: int):
        """Fetch the document behind a result's global doc id."""
        return self.collection[doc_id]

    def search_page(
        self,
        text: str,
        k: int = DEFAULT_TOP_K,
        mode: QueryMode = QueryMode.OR,
    ) -> SearchPage:
        """Answer a query and render the full result page.

        Each entry carries the document's URL, title, and a
        query-highlighted snippet — the complete response the
        benchmark's frontend returns to clients.  The returned
        :class:`SearchPage` is a list of entries that also exposes
        ``latency_s``/``coverage``/``doc_ids()``.
        """
        page_start = time.perf_counter()
        with self.tracer.span("search_page", query=text):
            response = self.isn.execute(text, k=k, mode=mode)
            terms = list(self.analyzer.analyze(text))
            entries: List[ResultPageEntry] = []
            with self.tracer.span("snippets", num_hits=len(response.hits)):
                for hit in response.hits:
                    document = self.collection[hit.doc_id]
                    entries.append(
                        ResultPageEntry(
                            hit=hit,
                            url=document.url,
                            title=document.title,
                            snippet=self._snippets.snippet(document, terms),
                        )
                    )
        # The page's latency is search *plus* snippet rendering — the
        # response's own total covers only the ISN query, which would
        # under-report what a client of this method actually waited.
        return SearchPage(
            entries, response, total_seconds=time.perf_counter() - page_start
        )

    def search_phrase(
        self, text: str, k: int = DEFAULT_TOP_K
    ) -> List[SearchHit]:
        """Answer ``text`` as an exact phrase (positional match).

        The positional index is built lazily on first use (it is larger
        and slower to construct than the frequency index).
        """
        return score_phrase(
            self.positional_index(), parse_phrase(self.analyzer, text), k=k
        )

    def positional_index(self) -> PositionalIndex:
        """The lazily-built positional index over the full collection."""
        if self._positional is None:
            self._positional = PositionalIndexBuilder(self.analyzer).build(
                self.collection
            )
        return self._positional

    def health(self) -> dict:
        """Liveness snapshot of the serving node.

        Delegates to :meth:`IndexServingNode.health
        <repro.engine.isn.IndexServingNode.health>`: backend, partition
        count, worker-pool probe state (process backend), and breaker
        states when configured.
        """
        return self.isn.health()

    def close(self) -> None:
        """Deterministically release the ISN's execution resources.

        Shuts down a hedging thread pool, joins worker processes, and
        unlinks the index image file (process backend).
        Using the service as a context manager is equivalent.
        """
        self.isn.close()

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
