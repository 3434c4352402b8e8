"""Unit tests for the term dictionary."""

import pytest

from repro.index.dictionary import TermDictionary, TermInfo


def dictionary_of(entries):
    """A dictionary over ``(term, document_frequency, collection_frequency)``."""
    terms = [term for term, _, _ in entries]
    return TermDictionary(
        terms,
        [df for _, df, _ in entries],
        [cf for _, _, cf in entries],
    )


class TestTermDictionary:
    def test_add_and_lookup(self):
        dictionary = dictionary_of([("search", 10, 25)])
        info = dictionary.lookup("search")
        assert info == TermInfo(0, 10, 25)
        assert info.document_frequency == 10
        assert info.collection_frequency == 25
        assert "search" in dictionary

    def test_dense_term_ids(self):
        dictionary = dictionary_of([(term, 1, 1) for term in ["a1", "b2", "c3"]])
        for index, term in enumerate(["a1", "b2", "c3"]):
            assert dictionary.lookup(term).term_id == index
            assert dictionary.term_ids[term] == index
        assert len(dictionary) == 3

    def test_term_for_id(self):
        dictionary = dictionary_of([("web", 2, 4)])
        assert dictionary.term_for_id(0) == "web"

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            dictionary_of([("dup", 1, 1), ("dup", 1, 1)])

    def test_unknown_lookup(self):
        assert dictionary_of([]).lookup("missing") is None

    def test_invalid_frequencies(self):
        with pytest.raises(ValueError):
            dictionary_of([("bad", 0, 0)])
        with pytest.raises(ValueError):
            dictionary_of([("bad", 5, 3)])
        with pytest.raises(ValueError):
            TermDictionary(["one"], [1, 1], [1, 1])

    def test_iteration_in_id_order(self):
        dictionary = dictionary_of([("zz", 1, 1), ("aa", 1, 1)])
        assert list(dictionary) == ["zz", "aa"]
        assert dictionary.terms() == ["zz", "aa"]
        assert dictionary.document_frequencies == [1, 1]
