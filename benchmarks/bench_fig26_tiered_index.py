"""F26 — Tiered larger-than-RAM index: paging cost under a block cache.

The paper's engine keeps the whole inverted index RAM-resident; this
figure quantifies what serving the same Zipf workload costs when the
postings live in a block store and only an admission-controlled cache's
worth of blocks is resident.  Cells:

- **resident** — the baseline fully-RAM index.
- **tiered 10%** — block store behind a TinyLFU-admitted cache whose
  byte budget is 10% of the pageable index bytes.
- **tiered 10% (no admission)** — same budget, plain LRU: shows what
  the admission filter buys against scan-like cold queries.
- **tiered cold** — zero cache budget; every block touch re-fetches
  (the correctness-under-thrash bound, not a serving configuration).

Tiering is an I/O change, not a scoring change: every cell must return
bit-identical top-k results (ids AND scores) to the resident index.
The Zipf query log re-touches hot blocks, so the cached cells read far
fewer bytes than the index holds — the working-set effect the block
cache exists to exploit.

Latency is reported, not gated (F25's rule): ``p50_ms`` / ``p99_ms``
are percentiles of each stream position's *floor* over
``TIMING_PASSES`` warm passes (the minimum is reached as soon as one
pass falls outside an interference burst), and the title carries the
tiered-over-resident p99 ratio.  A single-run ``<= 2x`` gate on that
ratio read 2.10x and 1.99x on two runs of unchanged code.

Acceptance contract (mirrors ISSUE criteria):

- every tiered cell's per-query hits are bit-identical to resident;
- with the 10% budget, ``store.bytes_read`` over the whole log stays
  well below the total index bytes (< 60% cold-start included, < 35%
  on the second, warm pass);
- the sweep is deterministic: rebuilding a cell reproduces identical
  hits and fetch counters.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import format_table
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.querylog import QueryLogConfig, QueryLogGenerator
from repro.corpus.vocabulary import VocabularyConfig
from repro.index.builder import IndexBuilder
from repro.index.store import tier_index
from repro.search.executor import Searcher

CORPUS = CorpusConfig(
    num_documents=4_000,
    vocabulary=VocabularyConfig(size=15_000, exponent=1.0, seed=7),
    mean_length=120,
    length_sigma=0.7,
    seed=42,
)
# A skewed popularity model (web logs measure ~0.85; 1.1 concentrates
# the stream harder) keeps the hot working set well inside the cache —
# the regime a tiered index is provisioned for.
QUERY_LOG = QueryLogConfig(
    num_unique_queries=50, popularity_exponent=1.1, seed=9
)
BLOCK_SIZE = 64
STREAM_SEED = 17
NUM_QUERIES = 600
QUICK_QUERIES = 200
CACHE_FRACTION = 0.10

#: Timed warm passes per cell; latencies keep each position's minimum.
TIMING_PASSES = 5

#: Acceptance ceilings.
MAX_COLD_READ_FRACTION = 0.60
MAX_WARM_READ_FRACTION = 0.35


def _build_instance():
    """Corpus, resident index, and the Zipf-sampled query stream."""
    generator = CorpusGenerator(CORPUS)
    collection = generator.generate()
    index = IndexBuilder(block_size=BLOCK_SIZE).build(collection)
    query_log = QueryLogGenerator(generator.vocabulary, QUERY_LOG).generate()
    stream = query_log.sample_stream(
        NUM_QUERIES, np.random.default_rng(STREAM_SEED)
    )
    return index, [query.text for query in stream]


def _budget(index) -> int:
    """The 10%-of-pageable-bytes cache budget for ``index``."""
    probe = tier_index(index, cache_budget_bytes=0)
    return int(probe.total_block_bytes * CACHE_FRACTION)


def _serve(searcher, texts):
    """Serve the stream; return per-query hits and latencies."""
    hits = []
    latencies = []
    for text in texts:
        start = time.perf_counter()
        result = searcher.search(text)
        latencies.append(time.perf_counter() - start)
        hits.append(tuple((h.doc_id, h.score) for h in result.hits))
    return hits, np.array(latencies)


def _run_cell(index, texts, label, budget=None, admission=True):
    """One cell: build the (tiered) searcher, serve the log twice.

    The first pass is the cold start (cache fills); the second pass is
    the steady state a long-running server sees.  Fetch counters are
    split per pass via snapshot deltas.  Returns the row and the warm
    searcher, which :func:`_time_cells` serves again for the floors.
    """
    if budget is None:
        serving_index = index
        total_block_bytes = 0
    else:
        serving_index = tier_index(
            index, cache_budget_bytes=budget, admission=admission
        )
        total_block_bytes = serving_index.total_block_bytes
    searcher = Searcher(serving_index, algorithm="block_max_wand")
    cold_hits, _ = _serve(searcher, texts)
    cold = (
        serving_index.store_stats() if budget is not None else None
    )
    warm_hits, warm_latencies = _serve(searcher, texts)
    warm = (
        serving_index.store_stats().delta(cold)
        if budget is not None
        else None
    )
    row = {
        "label": label,
        "hits": cold_hits,
        "warm_hits": warm_hits,
        "floors_ms": warm_latencies * 1e3,
        "total_block_bytes": total_block_bytes,
        "cold_blocks_fetched": cold.blocks_fetched if cold else 0,
        "cold_bytes_read": cold.bytes_read if cold else 0,
        "warm_blocks_fetched": warm.blocks_fetched if warm else 0,
        "warm_bytes_read": warm.bytes_read if warm else 0,
        "admission_rejects": (
            serving_index.store_stats().admission_rejects if budget is not None else 0
        ),
    }
    return row, searcher


def _time_cells(cells, texts):
    """Fold further warm passes into every cell's per-position floors.

    Pass-major — every pass visits every cell — so the passes of one
    cell are spread over the whole measurement and a single
    interference burst cannot slow all of them.  Runs after the counted
    passes, so no fetch counter or admission reject in a row moves.
    """
    for _ in range(TIMING_PASSES - 1):
        for row, searcher in cells:
            _, latencies = _serve(searcher, texts)
            np.minimum(row["floors_ms"], latencies * 1e3, out=row["floors_ms"])
    rows = []
    for row, _ in cells:
        floors = row.pop("floors_ms")
        row["p50_ms"] = float(np.percentile(floors, 50))
        row["p99_ms"] = float(np.percentile(floors, 99))
        rows.append(row)
    return rows


def _sweep(texts, instance):
    index, _ = instance
    budget = _budget(index)
    return _time_cells(
        [
            _run_cell(index, texts, "resident"),
            _run_cell(index, texts, "tiered 10%", budget=budget),
            _run_cell(
                index, texts, "tiered 10% no-adm", budget=budget, admission=False
            ),
            _run_cell(index, texts, "tiered cold", budget=0),
        ],
        texts,
    )


def _format(rows, num_queries):
    total = max(row["total_block_bytes"] for row in rows)
    by_label = {row["label"]: row for row in rows}
    p99_ratio = by_label["tiered 10%"]["p99_ms"] / by_label["resident"]["p99_ms"]
    return format_table(
        [
            "cell",
            "p50_ms",
            "p99_ms",
            "cold_blocks",
            "cold_bytes_read",
            "warm_blocks",
            "warm_bytes_read",
            "read_frac_warm",
            "adm_rejects",
        ],
        [
            [
                row["label"],
                round(row["p50_ms"], 3),
                round(row["p99_ms"], 3),
                row["cold_blocks_fetched"],
                row["cold_bytes_read"],
                row["warm_blocks_fetched"],
                row["warm_bytes_read"],
                (
                    round(row["warm_bytes_read"] / total, 4)
                    if row["total_block_bytes"]
                    else 0.0
                ),
                row["admission_rejects"],
            ]
            for row in rows
        ],
        title=(
            f"F26: tiered index paging cost "
            f"({CORPUS.num_documents} docs, {num_queries} Zipf queries, "
            f"block size {BLOCK_SIZE}, cache {CACHE_FRACTION:.0%} of "
            f"{total} block bytes; latency floors over {TIMING_PASSES} "
            f"warm passes, tiered 10% p99 = {p99_ratio:.2f}x resident)"
        ),
    )


def _check(rows) -> None:
    """The acceptance assertions, at full and ``--quick`` size alike."""
    by_label = {row["label"]: row for row in rows}
    resident = by_label["resident"]
    for label, row in by_label.items():
        if label == "resident":
            continue
        assert row["hits"] == resident["hits"], (
            f"{label} cold-pass results must be bit-identical to resident"
        )
        assert row["warm_hits"] == resident["hits"], (
            f"{label} warm-pass results must be bit-identical to resident"
        )

    cached = by_label["tiered 10%"]
    total = cached["total_block_bytes"]
    cold_fraction = cached["cold_bytes_read"] / total
    warm_fraction = cached["warm_bytes_read"] / total
    assert cold_fraction <= MAX_COLD_READ_FRACTION, (
        f"cold pass must read <= {MAX_COLD_READ_FRACTION:.0%} of the "
        f"index, read {cold_fraction:.1%}"
    )
    assert warm_fraction <= MAX_WARM_READ_FRACTION, (
        f"warm pass must read <= {MAX_WARM_READ_FRACTION:.0%} of the "
        f"index, read {warm_fraction:.1%}"
    )

    # The warm cache converts misses to hits: steady state fetches far
    # fewer blocks than the cold start, while the zero-budget cell never
    # stops fetching.
    assert cached["warm_blocks_fetched"] < cached["cold_blocks_fetched"]
    cold_cell = by_label["tiered cold"]
    assert cold_cell["warm_blocks_fetched"] >= cold_cell["cold_blocks_fetched"]


def _check_deterministic(instance, texts) -> None:
    """Same cell rebuilt twice → identical hits and fetch counters."""
    index, _ = instance
    budget = _budget(index)
    cells = [
        _run_cell(index, texts, "tiered 10%", budget=budget)[0]
        for _ in range(2)
    ]
    comparable = [
        {
            key: value
            for key, value in cell.items()
            if "ms" not in key  # wall-clock timings legitimately vary
        }
        for cell in cells
    ]
    assert comparable[0] == comparable[1], (
        "tiered serving must be deterministic: identical hits and counters"
    )


def test_fig26_tiered_index(benchmark, emit, quick):
    instance = _build_instance()
    texts = instance[1][: QUICK_QUERIES if quick else NUM_QUERIES]
    rows = benchmark.pedantic(
        lambda: _sweep(texts, instance), rounds=1, iterations=1
    )
    emit("fig26_tiered_index", _format(rows, len(texts)))
    _check(rows)


def test_fig26_deterministic():
    instance = _build_instance()
    _check_deterministic(instance, instance[1][:QUICK_QUERIES])
