"""Synthetic web corpus and query-log generation.

The paper characterizes a benchmark whose index is built from a web
crawl and whose load generator replays a query log.  Neither artifact
is redistributable, so this package synthesizes statistically faithful
stand-ins:

- a **vocabulary** whose term frequencies follow a Zipf law (the defining
  skew of natural-language corpora and the origin of the posting-list
  length skew that drives service-time tails);
- **documents** with log-normally distributed lengths;
- a **query log** with Zipfian query popularity and a realistic
  query-length (term count) mix.
"""

from repro.corpus.documents import Document, DocumentCollection
from repro.corpus.loganalysis import (
    LogProfile,
    estimate_popularity_exponent,
    profile_query_log,
    traffic_concentration,
)
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.querylog import Query, QueryLog, QueryLogConfig, QueryLogGenerator
from repro.corpus.vocabulary import Vocabulary, VocabularyConfig
from repro.corpus.zipf import ZipfSampler, zipf_weights

__all__ = [
    "Document",
    "DocumentCollection",
    "CorpusConfig",
    "CorpusGenerator",
    "Query",
    "QueryLog",
    "QueryLogConfig",
    "QueryLogGenerator",
    "Vocabulary",
    "VocabularyConfig",
    "ZipfSampler",
    "zipf_weights",
    "LogProfile",
    "profile_query_log",
    "estimate_popularity_exponent",
    "traffic_concentration",
]
