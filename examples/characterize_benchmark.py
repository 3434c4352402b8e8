#!/usr/bin/env python3
"""Characterize the benchmark's service times (the paper's F1/F2).

Replays a popularity-weighted query stream serially against a native
index serving node and reports:

- the service-time distribution (percentiles, tail ratio, and whether
  a log-normal or an exponential fits it better);
- what drives service time (query term count, matched postings volume).

Run:  python examples/characterize_benchmark.py
"""

from repro import CorpusConfig, QueryLogConfig, SearchService, VocabularyConfig
from repro.core.characterization import (
    characterize_service_times,
    service_time_by_term_count,
    service_time_by_volume,
)
from repro.core.reporting import format_table


def main() -> None:
    service = SearchService(
        corpus=CorpusConfig(
            num_documents=3_000,
            vocabulary=VocabularyConfig(size=15_000),
            mean_length=200,
            seed=1,
        ),
        query_log=QueryLogConfig(num_unique_queries=500, seed=2),
        num_partitions=1,
    )
    with service:
        characterization = characterize_service_times(
            service.isn, service.query_log, num_queries=300, seed=0
        )

    summary = characterization.summary.scaled(1000.0)
    print(
        format_table(
            ["statistic", "value"],
            [
                ["queries", summary.count],
                ["mean (ms)", summary.mean],
                ["p50 (ms)", summary.p50],
                ["p90 (ms)", summary.p90],
                ["p99 (ms)", summary.p99],
                ["p99/p50 tail ratio", characterization.tail_ratio],
                [
                    "log-normal KS distance",
                    characterization.lognormal.ks_distance,
                ],
                [
                    "exponential KS distance",
                    characterization.exponential.ks_distance,
                ],
            ],
            title="Service-time distribution (single partition)",
        )
    )
    better = (
        "log-normal"
        if characterization.lognormal_fits_better
        else "exponential"
    )
    print(f"\nBetter parametric fit: {better}\n")

    print(
        format_table(
            ["terms", "queries", "mean_ms", "mean_volume"],
            [
                [row.term_count, row.num_queries,
                 row.mean_seconds * 1000, row.mean_volume]
                for row in service_time_by_term_count(
                    characterization.measurements
                )
            ],
            title="Service time by query term count",
        )
    )
    print()
    print(
        format_table(
            ["volume range", "queries", "mean_ms"],
            [
                [f"[{row.low_volume}, {row.high_volume}]",
                 row.num_queries, row.mean_seconds * 1000]
                for row in service_time_by_volume(
                    characterization.measurements, num_buckets=4
                )
            ],
            title="Service time by matched-postings-volume quartile",
        )
    )


if __name__ == "__main__":
    main()
