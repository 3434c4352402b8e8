"""Tests for DAAT/TAAT/WAND traversal: correctness and cross-agreement."""

import pytest

from repro.corpus.documents import Document, DocumentCollection
from repro.index.builder import IndexBuilder
from repro.search.block_max_wand import score_block_max_wand
from repro.search.daat import score_daat
from repro.search.query import ParsedQuery, QueryMode
from repro.search.taat import score_taat
from repro.search.scoring import TfIdfScorer
from repro.search.wand import score_wand
from repro.text.analyzer import Analyzer, AnalyzerConfig


def build_index(texts, block_size=128):
    collection = DocumentCollection()
    for doc_id, text in enumerate(texts):
        collection.add(Document(doc_id, f"u{doc_id}", "", text))
    return IndexBuilder(
        Analyzer(AnalyzerConfig(remove_stopwords=False, stem=False)),
        block_size=block_size,
    ).build(collection)


@pytest.fixture(scope="module")
def tiny_index():
    return build_index(
        [
            "cat dog",
            "dog dog bird",
            "cat cat cat fish",
            "fish",
            "cat dog bird fish",
            "unrelated words here",
        ]
    )


class TestDaat:
    def test_single_term(self, tiny_index):
        hits = score_daat(tiny_index, ParsedQuery(terms=("fish",), k=10))
        assert sorted(hit.doc_id for hit in hits) == [2, 3, 4]

    def test_or_query_union(self, tiny_index):
        hits = score_daat(tiny_index, ParsedQuery(terms=("cat", "bird"), k=10))
        assert sorted(hit.doc_id for hit in hits) == [0, 1, 2, 4]

    def test_and_query_intersection(self, tiny_index):
        query = ParsedQuery(terms=("cat", "dog"), mode=QueryMode.AND, k=10)
        hits = score_daat(tiny_index, query)
        assert sorted(hit.doc_id for hit in hits) == [0, 4]

    def test_and_with_missing_term_empty(self, tiny_index):
        query = ParsedQuery(terms=("cat", "zzzz"), mode=QueryMode.AND, k=10)
        assert score_daat(tiny_index, query) == []

    def test_or_with_missing_term_ignores_it(self, tiny_index):
        with_missing = score_daat(
            tiny_index, ParsedQuery(terms=("cat", "zzzz"), k=10)
        )
        without = score_daat(tiny_index, ParsedQuery(terms=("cat",), k=10))
        assert [h.doc_id for h in with_missing] == [h.doc_id for h in without]

    def test_unknown_terms_only(self, tiny_index):
        assert score_daat(tiny_index, ParsedQuery(terms=("zzzz",), k=10)) == []

    def test_empty_query(self, tiny_index):
        assert score_daat(tiny_index, ParsedQuery(terms=(), k=10)) == []

    def test_k_limits_results(self, tiny_index):
        hits = score_daat(tiny_index, ParsedQuery(terms=("cat", "dog"), k=2))
        assert len(hits) == 2

    def test_scores_descending(self, tiny_index):
        hits = score_daat(
            tiny_index, ParsedQuery(terms=("cat", "dog", "fish"), k=10)
        )
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)

    def test_higher_tf_ranks_higher_single_term(self, tiny_index):
        # doc 2 has "cat" x3 and is shorter-per-match than doc 4.
        hits = score_daat(tiny_index, ParsedQuery(terms=("cat",), k=10))
        assert hits[0].doc_id == 2

    def test_custom_scorer(self, tiny_index):
        scorer = TfIdfScorer(num_documents=tiny_index.num_documents)
        hits = score_daat(tiny_index, ParsedQuery(terms=("cat",), k=10), scorer)
        assert hits[0].doc_id == 2  # tf wins under tf-idf too


class TestAgreement:
    """DAAT, TAAT, and WAND must agree on every query."""

    QUERIES = [
        ParsedQuery(terms=("cat",), k=5),
        ParsedQuery(terms=("cat", "dog"), k=5),
        ParsedQuery(terms=("cat", "dog", "bird", "fish"), k=3),
        ParsedQuery(terms=("fish", "zzzz"), k=5),
        ParsedQuery(terms=("unrelated",), k=5),
    ]

    @pytest.mark.parametrize("query_index", range(len(QUERIES)))
    def test_taat_matches_daat(self, tiny_index, query_index):
        query = self.QUERIES[query_index]
        daat = score_daat(tiny_index, query)
        taat = score_taat(tiny_index, query)
        assert [(h.doc_id, pytest.approx(h.score)) for h in daat] == [
            (h.doc_id, h.score) for h in taat
        ]

    @pytest.mark.parametrize("query_index", range(len(QUERIES)))
    def test_wand_matches_daat_scores(self, tiny_index, query_index):
        query = self.QUERIES[query_index]
        daat = score_daat(tiny_index, query)
        wand = score_wand(tiny_index, query)
        assert [round(h.score, 9) for h in wand] == [
            round(h.score, 9) for h in daat
        ]

    @pytest.mark.parametrize("query_index", range(len(QUERIES)))
    @pytest.mark.parametrize("block_size", [2, 128])
    def test_block_max_wand_bit_identical_to_daat(
        self, query_index, block_size
    ):
        index = build_index(
            [
                "cat dog",
                "dog dog bird",
                "cat cat cat fish",
                "fish",
                "cat dog bird fish",
                "unrelated words here",
            ],
            block_size=block_size,
        )
        query = self.QUERIES[query_index]
        daat = score_daat(index, query)
        bmw = score_block_max_wand(index, query)
        assert [(h.doc_id, h.score) for h in bmw] == [
            (h.doc_id, h.score) for h in daat
        ]

    def test_and_mode_agreement(self, tiny_index):
        query = ParsedQuery(terms=("cat", "fish"), mode=QueryMode.AND, k=5)
        daat = score_daat(tiny_index, query)
        taat = score_taat(tiny_index, query)
        assert [h.doc_id for h in daat] == [h.doc_id for h in taat]

    def test_wand_rejects_and_mode(self, tiny_index):
        query = ParsedQuery(terms=("cat",), mode=QueryMode.AND, k=5)
        with pytest.raises(ValueError):
            score_wand(tiny_index, query)

    def test_agreement_on_realistic_corpus(self, small_index, small_query_log):
        from repro.search.query import QueryParser

        parser = QueryParser(small_index.analyzer)
        for query_text in [q.text for q in list(small_query_log)[:25]]:
            query = parser.parse(query_text)
            daat = score_daat(small_index, query)
            taat = score_taat(small_index, query)
            wand = score_wand(small_index, query)
            bmw = score_block_max_wand(small_index, query)
            assert [h.doc_id for h in daat] == [h.doc_id for h in taat]
            assert [round(h.score, 9) for h in wand] == [
                round(h.score, 9) for h in daat
            ]
            assert [(h.doc_id, h.score) for h in bmw] == [
                (h.doc_id, h.score) for h in daat
            ]


@pytest.mark.parametrize(
    "traversal", [score_wand, score_block_max_wand], ids=["wand", "bmw"]
)
class TestWandFamilyEdgeCases:
    """Edge cases shared by WAND and Block-Max WAND."""

    def test_empty_query(self, tiny_index, traversal):
        assert traversal(tiny_index, ParsedQuery(terms=(), k=10)) == []

    def test_unknown_terms_only(self, tiny_index, traversal):
        assert (
            traversal(tiny_index, ParsedQuery(terms=("zzzz", "qqqq"), k=10))
            == []
        )

    def test_missing_term_ignored(self, tiny_index, traversal):
        with_missing = traversal(
            tiny_index, ParsedQuery(terms=("cat", "zzzz"), k=10)
        )
        without = score_daat(tiny_index, ParsedQuery(terms=("cat",), k=10))
        assert [(h.doc_id, h.score) for h in with_missing] == [
            (h.doc_id, h.score) for h in without
        ]

    def test_duplicate_query_terms(self, tiny_index, traversal):
        query = ParsedQuery(terms=("cat", "cat", "dog"), k=10)
        daat = score_daat(tiny_index, query)
        pruned = traversal(tiny_index, query)
        assert [(h.doc_id, round(h.score, 9)) for h in pruned] == [
            (h.doc_id, round(h.score, 9)) for h in daat
        ]

    def test_k_larger_than_match_count(self, tiny_index, traversal):
        query = ParsedQuery(terms=("fish",), k=500)
        daat = score_daat(tiny_index, query)
        pruned = traversal(tiny_index, query)
        assert len(pruned) == 3
        assert [(h.doc_id, round(h.score, 9)) for h in pruned] == [
            (h.doc_id, round(h.score, 9)) for h in daat
        ]

    def test_k_one(self, tiny_index, traversal):
        query = ParsedQuery(terms=("cat", "dog", "fish"), k=1)
        daat = score_daat(tiny_index, query)
        pruned = traversal(tiny_index, query)
        assert [(h.doc_id, round(h.score, 9)) for h in pruned] == [
            (h.doc_id, round(h.score, 9)) for h in daat
        ]

    def test_rejects_and_mode(self, tiny_index, traversal):
        query = ParsedQuery(terms=("cat",), mode=QueryMode.AND, k=5)
        with pytest.raises(ValueError):
            traversal(tiny_index, query)

    def test_single_document_corpus(self, traversal):
        index = build_index(["lonely document text"], block_size=2)
        query = ParsedQuery(terms=("lonely", "text"), k=5)
        daat = score_daat(index, query)
        pruned = traversal(index, query)
        assert [(h.doc_id, h.score) for h in pruned] == [
            (h.doc_id, h.score) for h in daat
        ]


class TestExhaustedCursor:
    """An exhausted cursor has no doc id: ``cur`` is None, never a
    sentinel that arithmetic could carry into a seek target or a
    doc-length lookup."""

    def test_resident_cursor_exhausts_to_none(self):
        import numpy as np

        from repro.search.wand import _Cursor

        doc_ids = np.array([0, 4], dtype=np.int64)
        frequencies = np.array([1, 1], dtype=np.int64)
        cursor = _Cursor(doc_ids, frequencies, 2, 1.0, 1.0, 0, 1)
        assert cursor.seek(4) == 4
        assert cursor.seek(3) == 4  # never moves backwards
        assert cursor.seek(5) is None
        assert cursor.cur is None
        with pytest.raises(TypeError):
            cursor.seek(6)
        with pytest.raises(TypeError):
            cursor.cur + 1
