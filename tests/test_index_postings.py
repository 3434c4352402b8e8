"""Unit + property tests for postings lists.

A postings list is a pair of parallel int64 arrays; ``check_postings``
validates one, and an index over one list reports its statistics.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.blockmax import block_arrays
from repro.index.compression import decode_postings, encode_postings
from repro.index.inverted import InvertedIndex, PostingsLayout
from repro.index.postings import check_postings
from repro.text.analyzer import default_analyzer


def from_pairs(pairs):
    """``(doc_ids, frequencies)`` int64 arrays from sorted pairs."""
    doc_ids = np.array([doc_id for doc_id, _ in pairs], dtype=np.int64)
    frequencies = np.array(
        [frequency for _, frequency in pairs], dtype=np.int64
    )
    return doc_ids, frequencies


def check(doc_ids, frequencies):
    """``check_postings`` on one list given as Python sequences."""
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    frequencies = np.asarray(frequencies, dtype=np.int64)
    check_postings(doc_ids, frequencies, np.array([0, doc_ids.size]))


def one_term_index(pairs):
    """An index whose only term ``t`` has the postings ``pairs``."""
    doc_ids, frequencies = from_pairs(pairs)
    offsets = np.array([0, doc_ids.size])
    doc_lengths = np.full(int(doc_ids.max()) + 1, 10, dtype=np.int64)
    layout = PostingsLayout(
        offsets,
        doc_ids,
        frequencies,
        *block_arrays(offsets, doc_ids, frequencies, doc_lengths, 128),
    )
    return InvertedIndex(["t"], layout, doc_lengths, default_analyzer())


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
        check([], [])
        doc_ids, frequencies, offset = decode_postings(
            encode_postings(*from_pairs([]))
        )
        assert doc_ids.size == frequencies.size == 0
        assert offset == 1

    def test_from_pairs(self):
        index = one_term_index([(1, 2), (5, 1), (9, 4)])
        info = index.term_info("t")
        assert info.document_frequency == 3
        assert info.collection_frequency == 7
        assert index.total_postings == 3

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            check([3, 1], [1, 1])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            check([2, 2], [1, 1])

    def test_rejects_negative_doc_id(self):
        with pytest.raises(ValueError):
            check([-1, 2], [1, 1])

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            check([1], [0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            check([1, 2], [1])

    @given(sorted_postings_strategy())
    def test_roundtrip_through_pairs(self, pairs):
        doc_ids, frequencies, _ = decode_postings(
            encode_postings(*from_pairs(pairs))
        )
        assert list(zip(doc_ids.tolist(), frequencies.tolist())) == pairs

    @given(sorted_postings_strategy().filter(bool))
    def test_collection_frequency_is_sum(self, pairs):
        index = one_term_index(pairs)
        assert index.term_info("t").collection_frequency == sum(
            f for _, f in pairs
        )
