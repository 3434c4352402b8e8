"""Unit tests for index construction."""

import numpy as np
import pytest

from repro.corpus.documents import Document, DocumentCollection
from repro.index.builder import IndexBuilder
from repro.text.analyzer import Analyzer, AnalyzerConfig
from tests.conftest import every_postings, postings_pairs


def make_collection(texts):
    collection = DocumentCollection()
    for doc_id, text in enumerate(texts):
        collection.add(Document(doc_id, f"u{doc_id}", "", text))
    return collection


@pytest.fixture()
def plain_builder():
    # No stemming/stopwords so tests can reason about exact terms.
    return IndexBuilder(
        Analyzer(AnalyzerConfig(remove_stopwords=False, stem=False))
    )


class TestIndexBuilder:
    def test_basic_postings(self, plain_builder):
        index = plain_builder.build(
            make_collection(["cat dog", "dog dog bird", "cat"])
        )
        assert postings_pairs(index, "cat") == [(0, 1), (2, 1)]
        assert postings_pairs(index, "dog") == [(0, 1), (1, 2)]
        assert postings_pairs(index, "bird") == [(1, 1)]

    def test_doc_lengths(self, plain_builder):
        index = plain_builder.build(make_collection(["a b c", "a", ""]))
        assert list(index.doc_lengths) == [3, 1, 0]
        assert index.average_doc_length == pytest.approx(4 / 3)

    def test_dictionary_statistics(self, plain_builder):
        index = plain_builder.build(make_collection(["x x y", "x"]))
        info = index.term_info("x")
        assert info.document_frequency == 2
        assert info.collection_frequency == 3

    def test_empty_collection(self, plain_builder):
        index = plain_builder.build(DocumentCollection())
        assert index.num_documents == 0
        assert index.num_terms == 0
        assert index.average_doc_length == 0.0

    def test_analyzer_applied(self):
        index = IndexBuilder().build(make_collection(["The Running Dogs"]))
        # "the" dropped, "Running" -> "run" + "ning"? no: running -> "runn"?
        # The light stemmer strips "ing": running -> runn.
        assert index.term_info("runn") is not None or index.term_info("run") is not None
        assert index.term_info("the") is None

    def test_title_is_indexed(self):
        collection = DocumentCollection()
        collection.add(Document(0, "u", "UniqueTitleTerm", "body words"))
        index = IndexBuilder(
            Analyzer(AnalyzerConfig(remove_stopwords=False, stem=False))
        ).build(collection)
        assert index.term_info("uniquetitleterm") is not None

    def test_deterministic_term_ids(self, plain_builder, small_collection):
        first = plain_builder.build(small_collection)
        second = plain_builder.build(small_collection)
        assert first.dictionary.terms() == second.dictionary.terms()

    def test_total_postings_consistency(self, small_index):
        total = sum(len(ids) for ids, _ in every_postings(small_index))
        assert small_index.total_postings == total

    def test_postings_sorted_by_doc_id(self, small_index):
        for doc_ids, _ in every_postings(small_index):
            assert np.all(np.diff(doc_ids) > 0) or len(doc_ids) <= 1


class TestAverageDocLength:
    """The mean is taken once at construction (every query's scorer
    reads it) and must be exactly ``float(doc_lengths.mean())``, so
    scores stay bit-identical to recomputing it per read."""

    def test_resident_tiered_and_attached(self, small_collection):
        from repro.index.partitioner import partition_index
        from repro.index.shared import SharedIndexArena, attach_shared_index
        from repro.index.store import tier_index

        partitioned = partition_index(small_collection, 2)
        with SharedIndexArena(partitioned) as arena:
            attached = attach_shared_index(arena.spec)
            indexes = [shard.index for shard in partitioned]
            indexes.append(tier_index(indexes[0], cache_budget_bytes=1 << 16))
            indexes.extend(shard.index for shard in attached)
            for index in indexes:
                assert type(index.average_doc_length) is float
                assert index.average_doc_length == float(
                    index.doc_lengths.mean()
                )

    def test_empty_index_is_zero(self, plain_builder):
        from repro.index.store import tier_index

        empty = plain_builder.build(DocumentCollection())
        assert empty.average_doc_length == 0.0
        assert tier_index(empty, cache_budget_bytes=0).average_doc_length == 0.0
