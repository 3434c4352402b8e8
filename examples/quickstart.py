#!/usr/bin/env python3
"""Quickstart: build the web-search benchmark and run queries.

Builds a small synthetic corpus, indexes it into 4 intra-server
partitions, and answers a few queries through the index serving node's
parallel fan-out path — the full architecture of the benchmark in a
dozen lines, entirely through the supported ``repro.api`` surface.

Run:  python examples/quickstart.py
"""

from repro.api import (
    CorpusConfig,
    EngineConfig,
    QueryLogConfig,
    SearchEngine,
    VocabularyConfig,
)


def main() -> None:
    engine = SearchEngine(
        EngineConfig(
            corpus=CorpusConfig(
                num_documents=2_000,
                vocabulary=VocabularyConfig(size=10_000),
                mean_length=150,
                seed=42,
            ),
            query_log=QueryLogConfig(num_unique_queries=200, seed=7),
            num_partitions=4,
        )
    )
    with engine:
        print(
            f"Indexed {len(engine.collection)} documents into "
            f"{engine.num_partitions} partitions "
            f"({engine.partitioned[0].index.num_terms} terms in shard 0)\n"
        )
        for query in list(engine.query_log)[:5]:
            response = engine.search(query.text, k=3)
            timings = response.timings
            print(f"query: {query.text!r}")
            print(
                f"  {len(response.hits)} hits in "
                f"{response.latency_s * 1000:.2f} ms "
                f"(slowest shard {timings.slowest_shard_seconds * 1000:.2f} ms, "
                f"merge {timings.merge_seconds * 1000:.3f} ms, "
                f"coverage {response.coverage:.0%})"
            )
            for hit in response.hits:
                document = engine.document(hit.doc_id)
                print(f"    {hit.score:6.3f}  {document.url}  {document.title}")
            print()


if __name__ == "__main__":
    main()
