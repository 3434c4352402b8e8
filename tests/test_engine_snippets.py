"""Tests for snippet generation."""

import pytest

from repro.corpus.documents import Document
from repro.engine.snippets import SnippetGenerator
from repro.text.analyzer import Analyzer, AnalyzerConfig, default_analyzer

PLAIN = Analyzer(AnalyzerConfig(remove_stopwords=False, stem=False))


def doc(body, title=""):
    return Document(0, "u", title, body)


class TestSnippetGenerator:
    def test_highlights_query_terms(self):
        generator = SnippetGenerator(PLAIN, window_tokens=10)
        snippet = generator.snippet(
            doc("the quick brown fox jumps"), ["fox", "quick"]
        )
        assert "**quick**" in snippet.text
        assert "**fox**" in snippet.text
        assert snippet.matched_terms == 2

    def test_window_centers_on_matches(self):
        filler = " ".join(f"word{i}" for i in range(60))
        body = filler + " target phrase here " + filler
        generator = SnippetGenerator(PLAIN, window_tokens=8)
        snippet = generator.snippet(doc(body), ["target", "phrase"])
        assert "**target**" in snippet.text
        assert "**phrase**" in snippet.text
        assert snippet.window_start > 0
        assert snippet.text.startswith("… ")

    def test_no_match_returns_opening_window(self):
        generator = SnippetGenerator(PLAIN, window_tokens=5)
        snippet = generator.snippet(
            doc("one two three four five six seven"), ["absent"]
        )
        assert snippet.window_start == 0
        assert snippet.matched_terms == 0
        assert "**" not in snippet.text
        assert snippet.text.endswith(" …")

    def test_empty_document(self):
        generator = SnippetGenerator(PLAIN)
        snippet = generator.snippet(doc(""), ["x"])
        assert snippet.text == ""
        assert snippet.matched_terms == 0

    def test_short_document_no_ellipses(self):
        generator = SnippetGenerator(PLAIN, window_tokens=50)
        snippet = generator.snippet(doc("tiny body"), ["tiny"])
        assert not snippet.text.startswith("…")
        assert not snippet.text.endswith("…")

    def test_analyzer_normalization_highlights_variants(self):
        """A query term 'search' must highlight 'Searching' in the raw
        text — both normalize to the same index term."""
        generator = SnippetGenerator(default_analyzer(), window_tokens=10)
        snippet = generator.snippet(
            doc("Users are Searching constantly"), ["search"]
        )
        assert "**Searching**" in snippet.text

    def test_prefers_window_with_more_distinct_terms(self):
        body = (
            "alpha filler filler filler filler filler filler filler "
            "filler filler alpha beta"
        )
        generator = SnippetGenerator(PLAIN, window_tokens=4)
        snippet = generator.snippet(doc(body), ["alpha", "beta"])
        assert snippet.matched_terms == 2

    def test_title_participates(self):
        generator = SnippetGenerator(PLAIN, window_tokens=5)
        snippet = generator.snippet(
            doc("plain body text", title="Important Title"), ["important"]
        )
        assert "**Important**" in snippet.text

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SnippetGenerator(PLAIN, window_tokens=0)

    def test_end_to_end_with_service(self, small_collection, small_index):
        """Snippets for real search hits highlight real matches."""
        from repro.search.executor import Searcher

        searcher = Searcher(small_index)
        generator = SnippetGenerator(small_index.analyzer, window_tokens=20)
        term = None
        # Find a mid-frequency term to query.
        for candidate in small_index.dictionary:
            if 3 <= small_index.document_frequency(candidate) <= 20:
                term = candidate
                break
        assert term is not None
        result = searcher.search(term, k=3)
        assert result.hits
        for hit in result.hits:
            snippet = generator.snippet(
                small_collection[hit.doc_id], list(result.query.terms)
            )
            assert snippet.matched_terms >= 1
            assert "**" in snippet.text


class _OldSpelling:
    """An analyzer whose ``normalize`` is the snippet generator's old
    per-token spelling: the whole chain re-run on one token's text."""

    def __init__(self, analyzer):
        self.analyzer = analyzer
        self.tokenize = analyzer.tokenize

    def normalize(self, token):
        from tests.test_index_build_golden import oracle_analyze

        analyzed = oracle_analyze(self.analyzer, token)
        return analyzed[0] if analyzed else ""


class TestNormalizeMemo:
    @pytest.mark.parametrize(
        "analyzer",
        [
            default_analyzer(),
            PLAIN,
            Analyzer(AnalyzerConfig(lowercase=False, max_token_length=6)),
        ],
        ids=["default", "plain", "keep_case_short_tokens"],
    )
    def test_snippets_equal_the_old_spelling(
        self, analyzer, small_collection, small_query_log
    ):
        new = SnippetGenerator(analyzer, window_tokens=12)
        old = SnippetGenerator(_OldSpelling(analyzer), window_tokens=12)
        queries = [
            analyzer.analyze(query.text) for query in small_query_log.queries[:5]
        ]
        highlighted = 0
        for document in small_collection.documents[:20]:
            own_terms = analyzer.analyze(document.title)
            for terms in queries + [own_terms]:
                snippet = new.snippet(document, terms)
                assert snippet == old.snippet(document, terms)
                highlighted += "**" in snippet.text
        assert highlighted >= 20

    def test_one_normalize_per_distinct_token(self):
        calls = []

        class Counting(_OldSpelling):
            def normalize(self, token):
                calls.append(token)
                return super().normalize(token)

        generator = SnippetGenerator(Counting(PLAIN), window_tokens=4)
        generator.snippet(doc("aa bb aa aa cc bb aa"), ["aa"])
        assert sorted(calls) == ["aa", "bb", "cc"]
        generator.snippet(doc("aa"), ["aa"])
        assert len(calls) == 4  # nothing is remembered across calls
