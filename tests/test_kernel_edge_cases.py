"""The four traversals agree on the kernel's edge cases, on both backends.

DAAT's merge takes a short cut for one postings list (it is returned as
it came, summed from 0.0), and a query can reach the kernel with one
term, no term (every word a stopword), a repeated term, a conjunctive
term the index lacks, or a ``k`` beyond its candidates.  On each, every
traversal must give the same hits bit for bit — compared as the packed
``(doc_id, score)`` bytes the perf benchmark digests — and each must
report the same ``matched_volume`` and per-shard ``docs_scored`` on the
thread backend as on the process backend with one worker, where one
shard's search runs in the worker and one on the caller's thread.
"""

from __future__ import annotations

import struct

import pytest

from repro.engine.execution import ExecutionConfig
from repro.engine.isn import IndexServingNode
from repro.index.partitioner import partition_index
from repro.search.executor import ALGORITHMS
from repro.search.query import QueryMode

#: Algorithms that evaluate conjunctive queries (the WAND family is
#: disjunctive only).
CONJUNCTIVE = ("daat", "taat")

ABSENT = "qqqzzzxxy"


def packed(hits) -> bytes:
    return b"".join(struct.pack("<qd", hit.doc_id, hit.score) for hit in hits)


@pytest.fixture(scope="module")
def cases(small_query_log, small_index):
    """``(name, text, k, mode)`` for each edge case."""
    parse = small_index.analyzer.analyze
    texts = [query.text for query in small_query_log]
    one = next(text for text in texts if len(parse(text)) == 1)
    two = next(text for text in texts if len(set(parse(text))) == 2)
    first, second = two.split()[:2]
    def document_frequency(text):
        return small_index.term_info(parse(text)[0]).document_frequency

    rare = min(
        (text for text in texts if len(parse(text)) == 1),
        key=document_frequency,
    )
    return [
        ("one term", one, 10, QueryMode.OR),
        ("all stopwords", "the of and to", 10, QueryMode.OR),
        ("duplicate terms", f"{first} {second} {first} {first}", 10,
         QueryMode.OR),
        ("absent term, or", f"{one} {ABSENT}", 10, QueryMode.OR),
        ("absent term, and", f"{two} {ABSENT}", 10, QueryMode.AND),
        ("two terms, and", two, 10, QueryMode.AND),
        ("k past the candidates", rare, 1000, QueryMode.OR),
    ]


def answers(node, cases, algorithm):
    """Per case: packed hits, matched volume, and per shard its docs
    scored, read from the gather's outcomes."""
    outcomes = []
    gather = node._gather

    def spy(*args, **kwargs):
        gathered = gather(*args, **kwargs)
        outcomes.extend(gathered)
        return gathered

    node._gather = spy
    found = {}
    for name, text, k, mode in cases:
        if mode is QueryMode.AND and algorithm not in CONJUNCTIVE:
            continue
        response = node.execute(text, k=k, mode=mode)
        scored = [
            (shard, result.docs_scored)
            for shard, _, result, _, _ in outcomes[-1].answered
        ]
        found[name] = (
            packed(response.hits), response.matched_volume, scored
        )
    return found


@pytest.fixture(scope="module")
def by_backend(small_collection, cases):
    """``{(algorithm, backend): answers}`` over two partitions."""
    partitioned = partition_index(small_collection, 2)
    found = {}
    for algorithm in ALGORITHMS:
        for backend, execution in (
            ("threads", None),
            ("processes", ExecutionConfig(backend="processes", workers=1)),
        ):
            with IndexServingNode(
                partitioned, algorithm=algorithm, execution=execution
            ) as node:
                found[algorithm, backend] = answers(node, cases, algorithm)
    return found


def test_the_cases_reach_the_edges(cases, small_index):
    """Self-test: each case is the edge it is named after."""
    parse = small_index.analyzer.analyze
    by_name = {name: (text, k) for name, text, k, _ in cases}
    assert len(parse(by_name["one term"][0])) == 1
    assert parse(by_name["all stopwords"][0]) == []
    duplicated = parse(by_name["duplicate terms"][0])
    assert len(duplicated) > len(set(duplicated)) == 2
    assert small_index.term_info(ABSENT) is None
    rare, k = by_name["k past the candidates"]
    assert small_index.term_info(parse(rare)[0]).document_frequency < k


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_processes_answer_as_threads(by_backend, algorithm):
    threads = by_backend[algorithm, "threads"]
    assert by_backend[algorithm, "processes"] == threads


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_every_traversal_gives_daat_hits(by_backend, algorithm, backend):
    daat = by_backend["daat", "threads"]
    for name, (hits, volume, _) in by_backend[algorithm, backend].items():
        assert (hits, volume) == daat[name][:2], name


def test_the_cases_have_answers(by_backend):
    """The comparisons above are not all between empty answers."""
    daat = by_backend["daat", "threads"]
    for name in ("one term", "duplicate terms", "absent term, or",
                 "two terms, and", "k past the candidates"):
        assert daat[name][0], name
    assert daat["absent term, and"][0] == b""
    rare_hits = len(daat["k past the candidates"][0]) // 16
    assert 0 < rare_hits < 1000
