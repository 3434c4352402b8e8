"""Tests for the SearchService facade."""

import pytest

from repro.corpus.generator import CorpusConfig
from repro.corpus.querylog import QueryLogConfig
from repro.corpus.vocabulary import VocabularyConfig
from repro.engine.service import SearchService, SearchServiceConfig

TINY_CORPUS = CorpusConfig(
    num_documents=120,
    vocabulary=VocabularyConfig(size=800, seed=2),
    mean_length=40,
    seed=21,
)
TINY_LOG = QueryLogConfig(num_unique_queries=30, seed=8)


@pytest.fixture(scope="module")
def service():
    config = SearchServiceConfig(
        corpus=TINY_CORPUS, query_log=TINY_LOG, num_partitions=3
    )
    with SearchService(config) as instance:
        yield instance


class TestSearchService:
    def test_components_assembled(self, service):
        assert len(service.collection) == 120
        assert service.partitioned.num_partitions == 3
        assert len(service.query_log) == 30

    def test_search_returns_hits(self, service):
        query = service.query_log[0]
        response = service.search(query.text)
        assert response.timings.total_seconds > 0

    def test_document_fetch_roundtrip(self, service):
        query = service.query_log[0]
        response = service.search(query.text, k=5)
        for doc_id in response.doc_ids():
            document = service.document(doc_id)
            assert document.doc_id == doc_id

    def test_results_contain_query_terms(self, service):
        """Top documents for a single-term query must actually contain
        (a variant of) the term — end-to-end relevance sanity."""
        from repro.search.query import QueryParser

        parser = QueryParser(service.analyzer)
        checked = 0
        for query in service.query_log:
            parsed = parser.parse(query.text)
            if len(parsed.terms) != 1:
                continue
            response = service.search(query.text, k=3)
            for doc_id in response.doc_ids():
                document = service.document(doc_id)
                doc_terms = set(service.analyzer.analyze(document.text))
                assert parsed.terms[0] in doc_terms
            checked += 1
            if checked >= 3:
                break
        assert checked > 0

    def test_build_shortcut(self):
        with SearchService(
            corpus=TINY_CORPUS, query_log=TINY_LOG, num_partitions=2
        ) as instance:
            assert instance.partitioned.num_partitions == 2

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            SearchServiceConfig(num_partitions=0)

    def test_search_page_renders_presentation_fields(self, service):
        query = service.query_log[0]
        page = service.search_page(query.text, k=3)
        response = service.search(query.text, k=3)
        assert [entry.hit.doc_id for entry in page] == response.doc_ids()
        for entry in page:
            document = service.document(entry.hit.doc_id)
            assert entry.url == document.url
            assert entry.title == document.title
            assert entry.snippet.text

    def test_search_page_latency_includes_snippet_rendering(self, service):
        """Regression: SearchPage.latency_s once reported only the ISN
        query time, silently excluding snippet/presentation rendering.
        With rendering made artificially slow, the page latency must
        reflect it — and always dominate the backing ISN response."""
        import time

        query = service.query_log[0]
        baseline = service.search_page(query.text, k=3)
        assert baseline.latency_s >= baseline.response.latency_s

        real_snippet = service._snippets.snippet
        delay_s = 0.05

        def slow_snippet(document, terms):
            time.sleep(delay_s)
            return real_snippet(document, terms)

        service._snippets.snippet = slow_snippet
        try:
            page = service.search_page(query.text, k=3)
        finally:
            service._snippets.snippet = real_snippet
        assert len(page) >= 1
        assert page.latency_s >= delay_s * len(page)
        assert page.latency_s > page.response.latency_s

    def test_search_phrase_from_real_document(self, service):
        # Take an adjacent pair from a real document; the phrase must
        # find at least that document.
        document = service.collection[5]
        terms = service.analyzer.analyze(document.body)
        phrase_text = None
        for first, second in zip(terms, terms[1:]):
            if first != second:
                phrase_text = f"{first} {second}"
                break
        assert phrase_text is not None
        hits = service.search_phrase(phrase_text, k=50)
        assert 5 in {hit.doc_id for hit in hits}

    def test_positional_index_cached(self, service):
        assert service.positional_index() is service.positional_index()

    def test_closed_service_rejects_search(self):
        instance = SearchService(
            SearchServiceConfig(corpus=TINY_CORPUS, query_log=TINY_LOG)
        )
        instance.close()
        with pytest.raises(RuntimeError):
            instance.search("anything")
