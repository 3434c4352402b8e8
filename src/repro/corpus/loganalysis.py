"""Query-log analysis: the workload-side characterization tools.

The paper characterizes not only the engine but the workload feeding
it.  These utilities measure the properties of a query log (or a
sampled stream from it) that determine system behaviour: the
popularity skew (Zipf exponent), the term-count mix, the traffic
concentration curve (what fraction of traffic the top-k queries
carry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.stats import linear_fit
from repro.corpus.querylog import QueryLog


def estimate_popularity_exponent(
    stream_query_ids: Sequence[int],
) -> Tuple[float, float]:
    """Estimate the Zipf exponent of query popularity from a stream.

    Fits ``log(count) ≈ c - s·log(rank)`` over the observed frequency-
    rank curve; returns ``(exponent, r_squared)``.  Ranks with a single
    observation are dropped (they flatten the regression's tail with
    pure noise).
    """
    ids = np.asarray(stream_query_ids)
    if ids.size == 0:
        raise ValueError("need a non-empty stream")
    counts = np.sort(np.bincount(ids))[::-1]
    counts = counts[counts > 1]
    if counts.size < 3:
        raise ValueError("stream too small to estimate an exponent")
    ranks = np.arange(1, counts.size + 1, dtype=np.float64)
    intercept, slope, r_squared = linear_fit(
        np.log(ranks), np.log(counts.astype(np.float64))
    )
    return -slope, r_squared


def traffic_concentration(
    stream_query_ids: Sequence[int], top_fractions: Sequence[float]
) -> List[float]:
    """Traffic share carried by the top-x% most popular queries.

    ``top_fractions`` are fractions of the *unique-query* population;
    the return value is the corresponding share of total traffic.
    """
    ids = np.asarray(stream_query_ids)
    if ids.size == 0:
        raise ValueError("need a non-empty stream")
    counts = np.sort(np.bincount(ids))[::-1]
    counts = counts[counts > 0]
    total = counts.sum()
    shares: List[float] = []
    for fraction in top_fractions:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fractions must be in (0, 1]")
        top = max(1, int(round(fraction * counts.size)))
        shares.append(float(counts[:top].sum() / total))
    return shares


@dataclass(frozen=True)
class LogProfile:
    """Summary characterization of one query log."""

    num_unique_queries: int
    mean_terms_per_query: float
    term_count_mix: Dict[int, float]
    estimated_popularity_exponent: float
    popularity_fit_r_squared: float
    top_1pct_traffic_share: float
    top_10pct_traffic_share: float


def profile_query_log(
    query_log: QueryLog,
    stream_length: int = 50_000,
    seed: int = 0,
) -> LogProfile:
    """Characterize a query log via a sampled traffic stream."""
    if stream_length <= 0:
        raise ValueError("stream_length must be positive")
    rng = np.random.default_rng(seed)
    stream = query_log.sample_stream(stream_length, rng)
    ids = [query.query_id for query in stream]
    exponent, r_squared = estimate_popularity_exponent(ids)
    top_1pct, top_10pct = traffic_concentration(ids, [0.01, 0.10])

    histogram = query_log.term_count_histogram()
    total = sum(histogram.values())
    mix = {count: occurrences / total for count, occurrences in histogram.items()}
    mean_terms = sum(count * share for count, share in mix.items())

    return LogProfile(
        num_unique_queries=len(query_log),
        mean_terms_per_query=mean_terms,
        term_count_mix=mix,
        estimated_popularity_exponent=exponent,
        popularity_fit_r_squared=r_squared,
        top_1pct_traffic_share=top_1pct,
        top_10pct_traffic_share=top_10pct,
    )
