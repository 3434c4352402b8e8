#!/usr/bin/env python3
"""The full result page: snippets, phrase queries, and the query cache.

Demonstrates the benchmark's client-facing functionality beyond raw
ranked doc ids: highlighted snippets per hit, exact-phrase matching
over the positional index, and the front-end result cache absorbing
repeat queries.

Run:  python examples/result_pages.py
"""

from repro import CorpusConfig, QueryLogConfig, SearchService, VocabularyConfig
from repro.cache.querycache import QueryResultCache
from repro.engine.isn import IndexServingNode


def main() -> None:
    service = SearchService(
        corpus=CorpusConfig(
            num_documents=1_200,
            vocabulary=VocabularyConfig(size=6_000),
            mean_length=120,
            seed=13,
        ),
        query_log=QueryLogConfig(num_unique_queries=100, seed=4),
        num_partitions=2,
    )
    with service:
        query = next(
            q for q in service.query_log if len(q.raw_terms) >= 2
        )
        print(f"query: {query.text!r}\n")
        for rank, entry in enumerate(service.search_page(query.text, k=3), 1):
            print(f"{rank}. {entry.title}   [{entry.hit.score:.3f}]")
            print(f"   {entry.url}")
            print(f"   {entry.snippet.text}\n")

        # Exact-phrase search: take an adjacent pair from a real page.
        document = service.collection[7]
        terms = service.analyzer.analyze(document.body)
        phrase = f"{terms[0]} {terms[1]}"
        hits = service.search_phrase(phrase, k=5)
        print(f'phrase "{phrase}": {len(hits)} exact matches')
        for hit in hits:
            print(f"   {service.document(hit.doc_id).url}")

        # The result cache in front of the ISN.
        cache = QueryResultCache(capacity=128)
        with IndexServingNode(service.partitioned, cache=cache) as cached_isn:
            for _ in range(3):
                cached_isn.execute(query.text)
            stats = cache.stats
            print(
                f"\nresult cache: {stats.hits} hits / {stats.lookups} lookups "
                f"(hit rate {stats.hit_rate:.0%})"
            )


if __name__ == "__main__":
    main()
