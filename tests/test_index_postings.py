"""Unit + property tests for posting lists."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.postings import PostingsList


def from_pairs(pairs):
    """A postings list from sorted ``(doc_id, frequency)`` pairs."""
    return PostingsList(
        [doc_id for doc_id, _ in pairs], [frequency for _, frequency in pairs]
    )


def sorted_postings_strategy():
    """Hypothesis strategy: valid (doc_ids, frequencies) pairs."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=1, max_value=100),
        ),
        max_size=50,
        unique_by=lambda pair: pair[0],
    ).map(lambda pairs: sorted(pairs))


class TestPostingsList:
    def test_empty(self):
        postings = PostingsList.empty()
        assert len(postings) == 0
        assert postings.collection_frequency() == 0
        assert postings.pairs() == []

    def test_from_pairs(self):
        postings = from_pairs([(1, 2), (5, 1), (9, 4)])
        assert len(postings) == 3
        assert postings.document_frequency() == 3
        assert postings.collection_frequency() == 7

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            PostingsList([3, 1], [1, 1])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PostingsList([2, 2], [1, 1])

    def test_rejects_negative_doc_id(self):
        with pytest.raises(ValueError):
            PostingsList([-1, 2], [1, 1])

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            PostingsList([1], [0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            PostingsList([1, 2], [1])

    def test_frequency_of(self):
        postings = from_pairs([(1, 2), (5, 3)])
        assert postings.frequency_of(1) == 2
        assert postings.frequency_of(5) == 3
        assert postings.frequency_of(3) == 0
        assert postings.frequency_of(99) == 0

    def test_next_geq(self):
        postings = from_pairs([(2, 1), (5, 1), (9, 1)])
        assert postings.next_geq(0) == 0
        assert postings.next_geq(2) == 0
        assert postings.next_geq(3) == 1
        assert postings.next_geq(9) == 2
        assert postings.next_geq(10) == 3

    def test_next_geq_with_start(self):
        postings = from_pairs([(2, 1), (5, 1), (9, 1)])
        assert postings.next_geq(2, start=1) == 1
        assert postings.next_geq(5, start=1) == 1
        assert postings.next_geq(6, start=1) == 2

    def test_intersect(self):
        first = from_pairs([(1, 1), (3, 1), (5, 1)])
        second = from_pairs([(3, 1), (5, 1), (7, 1)])
        assert list(first.intersect(second)) == [3, 5]

    def test_intersect_empty(self):
        first = from_pairs([(1, 1)])
        assert list(first.intersect(PostingsList.empty())) == []

    def test_equality(self):
        first = from_pairs([(1, 2)])
        second = from_pairs([(1, 2)])
        third = from_pairs([(1, 3)])
        assert first == second
        assert first != third
        assert first != "not postings"

    def test_iteration_yields_python_ints(self):
        postings = from_pairs([(4, 7)])
        doc_id, frequency = next(iter(postings))
        assert isinstance(doc_id, int)
        assert isinstance(frequency, int)

    @given(sorted_postings_strategy())
    def test_roundtrip_through_pairs(self, pairs):
        postings = from_pairs(pairs)
        assert postings.pairs() == [(int(d), int(f)) for d, f in pairs]

    @given(sorted_postings_strategy())
    def test_collection_frequency_is_sum(self, pairs):
        postings = from_pairs(pairs)
        assert postings.collection_frequency() == sum(f for _, f in pairs)

    @given(sorted_postings_strategy(), st.integers(min_value=0, max_value=11_000))
    def test_next_geq_postcondition(self, pairs, target):
        postings = from_pairs(pairs)
        position = postings.next_geq(target)
        doc_ids = postings.doc_ids
        if position < len(postings):
            assert doc_ids[position] >= target
        if position > 0:
            assert doc_ids[position - 1] < target
