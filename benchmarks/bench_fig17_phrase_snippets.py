"""F17 (extension) — Functionality costs: phrase queries and snippets.

Characterizes the cost of the benchmark's richer result-page features
against plain bag-of-words retrieval: (a) the same term pairs run as
OR, AND, and phrase queries; (b) snippet generation per result page.
Shape: AND ≤ OR in work (intersection skips), phrase > AND (position
verification on top of intersection), and snippets add a per-hit cost
proportional to document length.
"""

import time

import numpy as np

from repro.core.reporting import format_table
from repro.engine.snippets import SnippetGenerator
from repro.search.daat import score_daat
from repro.search.intersection import intersect_gallop, intersect_merge
from repro.search.phrase import score_phrase
from repro.search.query import ParsedQuery, QueryMode


def _adjacent_pairs(service, count):
    """Real adjacent term pairs from documents (so phrases exist)."""
    analyzer = service.analyzer
    pairs = []
    for document in service.collection:
        terms = analyzer.analyze(document.body)
        if len(terms) >= 2 and terms[0] != terms[1]:
            pairs.append((terms[0], terms[1]))
        if len(pairs) >= count:
            break
    return pairs


def test_fig17_phrase_snippets(
    benchmark, service, positional_index, emit
):
    pairs = _adjacent_pairs(service, 150)
    index = positional_index.index

    def timed(callable_):
        start = time.perf_counter()
        result = callable_()
        return result, time.perf_counter() - start

    def run_characterization():
        rows = {"or": [], "and": [], "phrase": []}
        phrase_hits_total = 0
        for pair in pairs:
            _, or_seconds = timed(
                lambda: score_daat(index, ParsedQuery(terms=pair, k=10))
            )
            _, and_seconds = timed(
                lambda: score_daat(
                    index,
                    ParsedQuery(terms=pair, mode=QueryMode.AND, k=10),
                )
            )
            hits, phrase_seconds = timed(
                lambda: score_phrase(positional_index, pair, k=10)
            )
            phrase_hits_total += len(hits)
            rows["or"].append(or_seconds)
            rows["and"].append(and_seconds)
            rows["phrase"].append(phrase_seconds)
        return rows, phrase_hits_total

    (rows, phrase_hits_total) = benchmark.pedantic(
        run_characterization, rounds=1, iterations=1
    )

    means = {mode: float(np.mean(times)) * 1000 for mode, times in rows.items()}
    p99s = {
        mode: float(np.percentile(times, 99)) * 1000
        for mode, times in rows.items()
    }

    # Snippet cost on real result pages.
    generator = SnippetGenerator(service.analyzer, window_tokens=30)
    snippet_times = []
    for pair in pairs[:50]:
        hits = score_daat(index, ParsedQuery(terms=pair, k=10))
        start = time.perf_counter()
        for hit in hits:
            generator.snippet(service.collection[hit.doc_id], list(pair))
        snippet_times.append(time.perf_counter() - start)
    snippet_mean = float(np.mean(snippet_times)) * 1000

    emit(
        "fig17_phrase_snippets",
        format_table(
            ["query mode", "mean_ms", "p99_ms"],
            [
                ["OR (bag of words)", means["or"], p99s["or"]],
                ["AND (conjunctive)", means["and"], p99s["and"]],
                ["phrase (positional)", means["phrase"], p99s["phrase"]],
            ],
            title="F17a: two-term query cost by evaluation mode",
        )
        + f"\n\nF17b: snippet generation for a 10-hit page: "
        f"{snippet_mean:.2f} ms mean "
        f"(= {snippet_mean / means['or'] * 100:.0f}% of the OR query cost)",
    )

    # Shape: phrases found, AND cheaper than OR, phrase dearer than AND.
    assert phrase_hits_total > 0
    assert means["and"] < means["or"]
    assert means["phrase"] > means["and"]


def test_fig17_skewed_intersection():
    """Galloping dominates the linear merge on 1:1000-skewed lists."""
    rng = np.random.default_rng(4)
    small = np.sort(rng.choice(2_000_000, 200, replace=False))
    large = np.sort(rng.choice(2_000_000, 200_000, replace=False))
    seconds = {}
    for function in (intersect_merge, intersect_gallop):
        start = time.perf_counter()
        result = function(small, large)
        seconds[function] = time.perf_counter() - start
        assert np.array_equal(result, np.intersect1d(small, large))
    assert seconds[intersect_gallop] < seconds[intersect_merge]
