"""Shared fixtures: a small deterministic corpus, index, and query log.

Session-scoped because index construction is the expensive step; all
consumers treat these objects as immutable.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.querylog import QueryLogConfig, QueryLogGenerator
from repro.corpus.vocabulary import VocabularyConfig
from repro.index.builder import IndexBuilder


SMALL_CORPUS_CONFIG = CorpusConfig(
    num_documents=300,
    vocabulary=VocabularyConfig(size=2_000, exponent=1.0, seed=3),
    mean_length=60,
    length_sigma=0.6,
    topic_terms=5,
    seed=11,
)


def postings_pairs(index, term):
    """``term``'s ``[(doc_id, frequency), ...]`` in ``index`` ([] if absent)."""
    info = index.term_info(term)
    if info is None:
        return []
    doc_ids, frequencies = index.postings_for_id(info.term_id)
    return list(zip(doc_ids.tolist(), frequencies.tolist()))


def every_postings(index):
    """Every term's ``(doc_ids, frequencies)``, in term-id order."""
    return [index.postings_for_id(t) for t in range(index.num_terms)]


@pytest.fixture(scope="session")
def corpus_generator():
    return CorpusGenerator(SMALL_CORPUS_CONFIG)


@pytest.fixture(scope="session")
def small_collection(corpus_generator):
    return corpus_generator.generate()


@pytest.fixture(scope="session")
def small_index(small_collection):
    return IndexBuilder().build(small_collection)


@pytest.fixture(scope="session")
def small_query_log(corpus_generator):
    generator = QueryLogGenerator(
        corpus_generator.vocabulary,
        QueryLogConfig(num_unique_queries=100, seed=5),
    )
    return generator.generate()


@pytest.fixture(scope="session")
def timing_isn():
    """A one-partition ISN over the small corpus grown to 8,000 documents.

    For the tests that compare live service times.  On 300 documents a
    query matches a few hundred postings (≈ 0.05 µs each) against a fixed
    ≈ 0.2 ms per query, so the timer decides every comparison; here the
    median query matches ≈ 3,600 postings and the per-posting term shows.
    Same vocabulary as the small corpus: ``small_query_log`` applies.
    Costs ≈ 1.1 s to set up (1.0 s generating the text, 0.1 s indexing
    it from the generator's token ids; 2.0 s when the text was drawn one
    word at a time and re-tokenized, 3.8 s before the index build became
    one array pass).
    """
    from repro.engine.isn import IndexServingNode
    from repro.index.partitioner import partition_index

    collection = CorpusGenerator(
        replace(SMALL_CORPUS_CONFIG, num_documents=8_000)
    ).generate()
    with IndexServingNode(partition_index(collection, 1)) as isn:
        yield isn


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


# --- chaos-harness fixtures ---------------------------------------------
# Declarative fault plans any integration test can run under; the same
# plan objects drive the native engine (wall clock) and the simulated
# cluster (simulated time).


@pytest.fixture()
def flapping_plan():
    """Shard 1 crashes for half of every 200 ms period (DES timelines)."""
    from repro.resilience.faults import FaultPlan

    return FaultPlan.flapping_shard(
        1, period_s=0.2, duty=0.5, horizon_s=60.0
    )


@pytest.fixture()
def crashed_shard_plan():
    """Shard 1 is down for the whole test — deterministic on wall clocks."""
    from repro.resilience.faults import FaultPlan, ShardCrash

    return FaultPlan(
        crashes=(ShardCrash(shard=1, start_s=0.0, duration_s=3600.0),)
    )


@pytest.fixture()
def chaos_service(crashed_shard_plan):
    """A small native service whose shard 1 always fails, with breakers."""
    from repro.engine.service import SearchService, SearchServiceConfig
    from repro.corpus.querylog import QueryLogConfig
    from repro.resilience.breaker import BreakerConfig

    config = SearchServiceConfig(
        corpus=CorpusConfig(
            num_documents=120,
            vocabulary=VocabularyConfig(size=900),
            mean_length=40,
            seed=11,
        ),
        query_log=QueryLogConfig(num_unique_queries=30, seed=5),
        num_partitions=2,
        breakers=BreakerConfig(failure_threshold=2, recovery_time_s=30.0),
        faults=crashed_shard_plan,
    )
    with SearchService(config) as service:
        yield service
