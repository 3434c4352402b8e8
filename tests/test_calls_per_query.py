"""A policy-free query's exact call count, pinned.

``SearchEngine.search`` on a one-partition DAAT engine (thread backend,
no policy) is counted with ``sys.setprofile``: every Python-level call
and every call of a builtin or C method that one warm ``search(text)``
makes, summed over a fixed set of query texts.  The counts depend on
the code alone, not on the host, so unlike a wall-clock figure they can
gate a change: a layer, closure or allocation that creeps back onto the
policy-free path shows here first.
``benchmarks/profile_calls_per_query.py`` reports the same counts on
the perf benchmark's instance, per term.

The ceiling is :data:`COUNTED`, the count once the gather's policy-free
turn armed nothing and DAAT had its leaner kernel (20,469 calls
before), plus 5%.
"""

from __future__ import annotations

import sys

import pytest

from repro.corpus.querylog import QueryLogConfig
from repro.engine.service import SearchService, SearchServiceConfig
from tests.conftest import SMALL_CORPUS_CONFIG

#: How many of the query log's texts are counted.
QUERIES = 100

#: Warm calls over those queries when the ceiling was set.
COUNTED = 12_000

#: Allowed growth over :data:`COUNTED`.
HEADROOM = 0.05


def counted_calls(function, *args) -> int:
    """Python plus builtin calls ``function(*args)`` makes."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    # The profiler sees its own sys.setprofile(None) as a builtin call.
    return calls - 1


@pytest.fixture(scope="module")
def engine():
    config = SearchServiceConfig(
        corpus=SMALL_CORPUS_CONFIG,
        query_log=QueryLogConfig(num_unique_queries=QUERIES, seed=5),
        num_partitions=1,
        algorithm="daat",
    )
    with SearchService(config) as instance:
        yield instance


def warm_calls(engine) -> list:
    """Per query text, the calls of its second ``search``."""
    counts = []
    for query in engine.query_log:
        engine.search(query.text)
        counts.append(counted_calls(engine.search, query.text))
    return counts


def test_warm_calls_stay_under_the_ceiling(engine):
    total = sum(warm_calls(engine))
    assert total <= COUNTED * (1.0 + HEADROOM), (
        f"{total} warm calls over {QUERIES} queries; the ceiling is "
        f"{COUNTED} + {HEADROOM:.0%}"
    )


def test_counts_repeat_exactly(engine):
    """The gate's premise: a query's count is the same every time."""
    assert warm_calls(engine) == warm_calls(engine)


def test_the_counter_sees_python_and_builtin_calls():
    """Self-test: one Python frame and two builtins are three calls."""

    def body(values):
        return len(values) + max(values)

    assert counted_calls(body, [1, 2]) == 3
