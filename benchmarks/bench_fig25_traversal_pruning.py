"""F25 — Traversal-pruning ablation: exhaustive vs WAND vs Block-Max WAND.

The paper's engine scores every posting of every query term
(exhaustive DAAT) — that exhaustive scoring demand is what the
partitioning study splits across cores.  This figure quantifies how
much of that demand dynamic pruning would remove, sweeping traversal
strategy × partition count over the disjunctive Zipf workload:

- **exhaustive** — the paper's setting; scores the full candidate union.
- **wand** — pivot-based skipping on global per-term score bounds.
- **block-max-wand** — per-block score bounds (block size 64 here)
  choose, as arrays, which documents DAAT's merge scores: a threshold
  from the best term's k-th contribution, a MaxScore essential split,
  and a per-document block-bound filter.

Pruning is an optimization, not an approximation: every strategy must
return bit-identical top-k results (ids AND scores).  Partitioning
dilutes pruning — each shard must fill its own top-k heap from colder
postings, so scored-docs grow with the shard count while the merged
result stays identical (the coverage tax the simulator's
``pruning_factor`` calibrates per partition count).

Pruning has to win on the wall clock, not only on the counters, so
every cell also reports ``ms_per_query``: each query's *floor* over
``TIMING_PASSES`` serial executions (the minimum is reached as soon as
one execution falls outside an interference burst — the estimator idea
of ``benchmarks/perf/estimator.py``), summed and divided by the query
count.  Every pass starts a new node, so Block-Max WAND's searchers
start each pass with no term-impact records: a query reads memoised
records only for the terms an earlier query of the log named, in every
pass alike.  It is a reported value, not a gate: the exact counters
stay the gates.

Acceptance contract (mirrors ISSUE criteria):

- every strategy's merged top-k is bit-identical to exhaustive DAAT at
  every partition count;
- BMW scores >= 2x fewer documents than exhaustive on the
  single-partition index, and keeps a >= 1.4x reduction at every swept
  partition count;
- BMW never scores more documents than WAND and records block skips;
- the sweep is deterministic: re-running a cell reproduces identical
  counters and hits.
"""

from __future__ import annotations

import time

from repro.api import format_table
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.querylog import QueryLogConfig, QueryLogGenerator
from repro.corpus.vocabulary import VocabularyConfig
from repro.engine.isn import IndexServingNode
from repro.index.partitioner import partition_index
from repro.obs.registry import MetricsRegistry
from repro.search.strategy import TraversalStrategy

CORPUS = CorpusConfig(
    num_documents=4_000,
    vocabulary=VocabularyConfig(size=10_000, exponent=1.0, seed=7),
    mean_length=120,
    length_sigma=0.7,
    seed=42,
)
QUERY_LOG = QueryLogConfig(num_unique_queries=150, seed=9)
BLOCK_SIZE = 64
PARTITION_COUNTS = (1, 4)
STRATEGIES = (
    TraversalStrategy.EXHAUSTIVE,
    TraversalStrategy.WAND,
    TraversalStrategy.BLOCK_MAX_WAND,
)
NUM_QUERIES = 150
QUICK_QUERIES = 50
#: Timed serial executions per query; ``ms_per_query`` keeps the minimum.
TIMING_PASSES = 7

#: Scored-docs floors the sweep must clear (vs exhaustive).
MIN_PRUNING_SINGLE_PARTITION = 2.0
MIN_PRUNING_ANY_PARTITION = 1.4

_SCORED_COUNTER = {
    TraversalStrategy.EXHAUSTIVE: "daat.candidates_scored",
    TraversalStrategy.WAND: "wand.docs_scored",
    TraversalStrategy.BLOCK_MAX_WAND: "wand.docs_scored",
}


def _build_instance():
    """Corpus, partitioned indexes, and query texts — built once."""
    generator = CorpusGenerator(CORPUS)
    collection = generator.generate()
    query_log = QueryLogGenerator(generator.vocabulary, QUERY_LOG).generate()
    partitioned = {
        count: partition_index(collection, count, block_size=BLOCK_SIZE)
        for count in PARTITION_COUNTS
    }
    return partitioned, [query.text for query in query_log]


def _run_cell(partitioned, texts, strategy, num_queries):
    """One (strategy, partition count) cell: serve the log, return
    per-query hits plus the scored-docs / skip counters."""
    registry = MetricsRegistry()
    hits = []
    with IndexServingNode(
        partitioned, algorithm=strategy, metrics=registry
    ) as isn:
        for text in texts[:num_queries]:
            response = isn.execute_serial(text)
            hits.append(tuple((h.doc_id, h.score) for h in response.hits))
    return {
        "hits": hits,
        "docs_scored": registry.counter(_SCORED_COUNTER[strategy]).value,
        "block_skips": registry.counter("wand.block_skips").value,
        "pivot_skips": registry.counter("wand.pivot_skips").value,
    }


def _floor_ms_per_query(partitioned, texts, num_queries):
    """Mean per-query floor latency (ms) of every cell.

    Pass-major — every pass visits every cell — so the passes of one
    cell are spread over the whole measurement and a single
    interference burst cannot slow all of them.
    """
    texts = texts[:num_queries]
    cells = [(c, s) for c in PARTITION_COUNTS for s in STRATEGIES]
    floors = {cell: [float("inf")] * len(texts) for cell in cells}
    for _ in range(TIMING_PASSES):
        for count, strategy in cells:
            cell_floors = floors[(count, strategy)]
            with IndexServingNode(
                partitioned[count], algorithm=strategy
            ) as isn:
                for slot, text in enumerate(texts):
                    start = time.perf_counter()
                    isn.execute_serial(text)
                    elapsed = time.perf_counter() - start
                    if elapsed < cell_floors[slot]:
                        cell_floors[slot] = elapsed
    return {
        cell: 1e3 * sum(cell_floors) / len(texts)
        for cell, cell_floors in floors.items()
    }


def _sweep(num_queries, instance=None):
    partitioned, texts = instance if instance else _build_instance()
    ms_per_query = _floor_ms_per_query(partitioned, texts, num_queries)
    rows = []
    for count in PARTITION_COUNTS:
        for strategy in STRATEGIES:
            cell = _run_cell(partitioned[count], texts, strategy, num_queries)
            rows.append(
                {
                    "partitions": count,
                    "strategy": strategy,
                    "ms_per_query": ms_per_query[(count, strategy)],
                    **cell,
                }
            )
    return rows


def _format(rows, num_queries):
    exhaustive = {
        row["partitions"]: row["docs_scored"]
        for row in rows
        if row["strategy"] is TraversalStrategy.EXHAUSTIVE
    }
    return format_table(
        [
            "partitions",
            "strategy",
            "docs_scored",
            "reduction_x",
            "pivot_skips",
            "block_skips",
            "ms_per_query",
        ],
        [
            [
                row["partitions"],
                row["strategy"].name.lower(),
                row["docs_scored"],
                exhaustive[row["partitions"]] / row["docs_scored"],
                row["pivot_skips"],
                row["block_skips"],
                row["ms_per_query"],
            ]
            for row in rows
        ],
        title=(
            f"F25: traversal pruning ablation "
            f"({CORPUS.num_documents} docs, {num_queries} queries, "
            f"block size {BLOCK_SIZE})"
        ),
    )


def _check(rows) -> None:
    """The acceptance assertions, at full and ``--quick`` size alike."""
    by_cell = {(row["partitions"], row["strategy"]): row for row in rows}
    for count in PARTITION_COUNTS:
        exhaustive = by_cell[(count, TraversalStrategy.EXHAUSTIVE)]
        wand = by_cell[(count, TraversalStrategy.WAND)]
        bmw = by_cell[(count, TraversalStrategy.BLOCK_MAX_WAND)]
        for row in (wand, bmw):
            assert row["hits"] == exhaustive["hits"], (
                f"{row['strategy'].name} must return bit-identical top-k "
                f"to exhaustive DAAT at P={count}"
            )
        floor = (
            MIN_PRUNING_SINGLE_PARTITION
            if count == 1
            else MIN_PRUNING_ANY_PARTITION
        )
        reduction = exhaustive["docs_scored"] / bmw["docs_scored"]
        assert reduction >= floor, (
            f"BMW must score >= {floor}x fewer docs at P={count}: "
            f"{exhaustive['docs_scored']} vs {bmw['docs_scored']} "
            f"({reduction:.2f}x)"
        )
        assert bmw["docs_scored"] <= wand["docs_scored"], (
            f"block bounds must not score more than plain WAND at P={count}"
        )
        assert bmw["block_skips"] >= 1, (
            f"BMW should skip at least one block at P={count}"
        )
        assert wand["block_skips"] == 0


def _check_deterministic(instance, num_queries) -> None:
    """Same cell twice → identical hits and counters."""
    partitioned, texts = instance
    cells = [
        _run_cell(
            partitioned[max(PARTITION_COUNTS)],
            texts,
            TraversalStrategy.BLOCK_MAX_WAND,
            num_queries,
        )
        for _ in range(2)
    ]
    assert cells[0] == cells[1], (
        "traversal sweep must be deterministic: identical hits and counters"
    )


def test_fig25_traversal_pruning(benchmark, emit, quick):
    num_queries = QUICK_QUERIES if quick else NUM_QUERIES
    instance = _build_instance()
    rows = benchmark.pedantic(
        lambda: _sweep(num_queries, instance), rounds=1, iterations=1
    )
    emit("fig25_traversal_pruning", _format(rows, num_queries))
    _check(rows)


def test_fig25_deterministic():
    instance = _build_instance()
    _check_deterministic(instance, QUICK_QUERIES)
