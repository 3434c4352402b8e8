"""The queryable inverted index."""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.index.blockmax import DEFAULT_BLOCK_SIZE, BlockMetadata
from repro.index.dictionary import TermDictionary, TermInfo
from repro.text.analyzer import Analyzer


class PostingsLayout(NamedTuple):
    """Every postings list of an index and its blocks, back to back.

    Term ``t``'s postings are ``doc_ids[offsets[t]:offsets[t + 1]]``
    with the parallel ``frequencies``; its block metadata is
    ``block_offsets[t]:block_offsets[t + 1]`` of ``last_doc_ids``,
    ``max_frequencies`` and ``min_doc_lengths``.  All int64.  This is
    the shape the builder produces, a payload loads into and the index
    image stores.
    """

    offsets: np.ndarray
    doc_ids: np.ndarray
    frequencies: np.ndarray
    block_offsets: np.ndarray
    last_doc_ids: np.ndarray
    max_frequencies: np.ndarray
    min_doc_lengths: np.ndarray


class InvertedIndex:
    """An immutable inverted index over a document collection.

    The index is its :class:`PostingsLayout` (:attr:`layout`), a
    :class:`TermDictionary` over ``terms`` (in term-id order), the
    per-document lengths (in analyzed terms, for BM25 length
    normalization), and the analyzer it was built with so queries are
    normalized identically to documents.  Construction is array work
    only: nothing is kept per term but the dictionary's ``dict`` entry
    and list slots.  A term's postings and block metadata are views of
    the layout, cut when a caller asks for them.

    The layout is trusted, as the builder and the payload decoder
    validate the postings; only every term having a posting is checked.
    """

    def __init__(
        self,
        terms: Sequence[str],
        layout: PostingsLayout,
        doc_lengths: np.ndarray,
        analyzer: Analyzer,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        offsets = layout.offsets
        if not np.all(offsets[1:] > offsets[:-1]):
            raise ValueError("every term needs at least one posting")
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.dictionary = TermDictionary(
            terms,
            np.diff(offsets),
            np.add.reduceat(layout.frequencies, offsets[:-1]),
        )
        self.layout = layout
        # Python ints, so a term's bounds cost two list reads.
        self._starts: List[int] = offsets.tolist()
        self._block_starts: List[int] = layout.block_offsets.tolist()
        self.doc_lengths = np.asarray(doc_lengths, dtype=np.int64)
        #: Mean analyzed document length (0.0 for an empty index).  The
        #: index is immutable, so the mean is taken once here: every
        #: searcher builds its scorer from it.
        self.average_doc_length = (
            float(self.doc_lengths.mean()) if self.doc_lengths.size else 0.0
        )
        self.analyzer = analyzer
        self.block_size = int(block_size)

    @property
    def num_documents(self) -> int:
        """Number of documents in the indexed collection."""
        return int(self.doc_lengths.size)

    @property
    def num_terms(self) -> int:
        """Number of distinct terms."""
        return len(self.dictionary)

    @property
    def total_postings(self) -> int:
        """Total number of postings across all terms."""
        return self._starts[-1]

    def term_info(self, term: str) -> Optional[TermInfo]:
        """Dictionary entry for ``term``, or None if absent."""
        return self.dictionary.lookup(term)

    def postings_for_id(self, term_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """A term's ``(doc_ids, frequencies)``: views of the layout.

        Doc ids ascend strictly; do not mutate either array.
        """
        start, end = self._starts[term_id], self._starts[term_id + 1]
        layout = self.layout
        return layout.doc_ids[start:end], layout.frequencies[start:end]

    def block_metadata_for_id(self, term_id: int) -> BlockMetadata:
        """Block-max metadata by dense term id: views of the layout."""
        starts = self._block_starts
        first, last = starts[term_id], starts[term_id + 1]
        layout = self.layout
        return BlockMetadata(
            self.block_size,
            layout.last_doc_ids[first:last],
            layout.max_frequencies[first:last],
            layout.min_doc_lengths[first:last],
        )

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term`` (0 if unknown)."""
        dictionary = self.dictionary
        term_id = dictionary.term_ids.get(term)
        if term_id is None:
            return 0
        return dictionary.document_frequencies[term_id]

    def matched_postings_volume(self, terms: List[str]) -> int:
        """Total postings touched when evaluating ``terms``.

        This is the work proxy used throughout the characterization: a
        disjunctive top-k evaluation reads every posting of every query
        term, so service time is roughly affine in this volume.
        """
        return sum(self.document_frequency(term) for term in terms)
