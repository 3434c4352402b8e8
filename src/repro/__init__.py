"""repro — reproduction of "Characterization and analysis of a web
search benchmark" (Hadjilambrou, Kleanthous, Sazeides; ISPASS 2015).

The library builds, from scratch, the full system the paper studies —
a web-search benchmark (synthetic crawl corpus, inverted index, BM25
query execution, partitioned index serving node, client drivers) —
plus a calibrated discrete-event simulator used for the paper's load,
partitioning, and low-power server studies.

Quickstart — the supported surface is :mod:`repro.api`::

    from repro.api import SearchEngine

    engine = SearchEngine(num_partitions=4)
    outcome = engine.search("example query terms")
    for hit in outcome.hits:
        print(hit.score, engine.document(hit.doc_id).title)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
per-figure reproduction results.
"""

from repro import api
from repro.api import (
    ClusterConfig,
    ClusterModel,
    EngineConfig,
    HedgingPolicy,
    QueryOutcome,
    SearchEngine,
)
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.querylog import QueryLog, QueryLogConfig, QueryLogGenerator
from repro.corpus.vocabulary import VocabularyConfig
from repro.engine.isn import IndexServingNode
from repro.engine.service import SearchService, SearchServiceConfig
from repro.index.builder import IndexBuilder
from repro.index.inverted import InvertedIndex
from repro.index.partitioner import PartitionStrategy, partition_index
from repro.obs import MetricsRegistry, Tracer
from repro.search.executor import Searcher
from repro.search.query import QueryMode
from repro.servers.catalog import BIG_SERVER, SMALL_SERVER

__version__ = "1.1.0"

__all__ = [
    "api",
    "SearchEngine",
    "ClusterModel",
    "HedgingPolicy",
    "EngineConfig",
    "ClusterConfig",
    "QueryOutcome",
    "SearchService",
    "SearchServiceConfig",
    "IndexServingNode",
    "CorpusConfig",
    "CorpusGenerator",
    "VocabularyConfig",
    "QueryLog",
    "QueryLogConfig",
    "QueryLogGenerator",
    "IndexBuilder",
    "InvertedIndex",
    "PartitionStrategy",
    "partition_index",
    "Searcher",
    "QueryMode",
    "Tracer",
    "MetricsRegistry",
    "BIG_SERVER",
    "SMALL_SERVER",
    "__version__",
]
