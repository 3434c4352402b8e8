"""Tests for positional indexing."""

import numpy as np
import pytest

from repro.corpus.documents import Document, DocumentCollection
from repro.index.builder import IndexBuilder
from repro.index.positional import (
    PositionalIndexBuilder,
    PositionalPostings,
)
from repro.text.analyzer import Analyzer, AnalyzerConfig
from tests.conftest import postings_pairs

PLAIN = Analyzer(AnalyzerConfig(remove_stopwords=False, stem=False))


def make_collection(texts):
    collection = DocumentCollection()
    for doc_id, text in enumerate(texts):
        collection.add(Document(doc_id, f"u{doc_id}", "", text))
    return collection


class TestPositionalPostings:
    def test_positions_lookup(self):
        postings = PositionalPostings(
            [1, 5], [np.array([0, 4]), np.array([2])]
        )
        assert list(postings.positions_in(1)) == [0, 4]
        assert list(postings.positions_in(5)) == [2]
        assert postings.positions_in(3) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            PositionalPostings([1], [])
        with pytest.raises(ValueError):
            PositionalPostings([2, 1], [np.array([0]), np.array([0])])
        with pytest.raises(ValueError):
            PositionalPostings([1], [np.array([])])


class TestPositionalIndexBuilder:
    def test_positions_recorded(self):
        positional = PositionalIndexBuilder(PLAIN).build(
            make_collection(["aa bb aa cc"])
        )
        aa = positional.positions_for("aa")
        assert list(aa.positions_in(0)) == [0, 2]
        bb = positional.positions_for("bb")
        assert list(bb.positions_in(0)) == [1]

    def test_title_offsets_body(self):
        collection = DocumentCollection()
        collection.add(Document(0, "u", "title words", "body text"))
        positional = PositionalIndexBuilder(PLAIN).build(collection)
        # Title tokens come first in the analyzed stream.
        assert list(positional.positions_for("title").positions_in(0)) == [0]
        assert list(positional.positions_for("body").positions_in(0)) == [2]

    def test_unknown_term(self):
        positional = PositionalIndexBuilder(PLAIN).build(
            make_collection(["xx"])
        )
        assert positional.positions_for("zz") is None

    def test_frequency_index_agrees_with_plain_builder(self, small_collection):
        positional = PositionalIndexBuilder().build(small_collection)
        plain = IndexBuilder().build(small_collection)
        assert positional.index.dictionary.terms() == plain.dictionary.terms()
        for term in list(plain.dictionary)[:100]:
            assert postings_pairs(positional.index, term) == postings_pairs(
                plain, term
            )

    def test_positions_consistent_with_frequencies(self, small_collection):
        positional = PositionalIndexBuilder().build(small_collection)
        for term in list(positional.index.dictionary)[:50]:
            postings = positional.positions_for(term)
            projected = [
                (doc_id, len(postings.positions_in(doc_id)))
                for doc_id in postings.doc_ids.tolist()
            ]
            assert projected == postings_pairs(positional.index, term)
