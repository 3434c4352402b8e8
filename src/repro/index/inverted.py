"""The queryable inverted index."""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.index.blockmax import DEFAULT_BLOCK_SIZE, BlockMetadata
from repro.index.dictionary import TermDictionary, TermInfo
from repro.index.postings import PostingsList
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

    The index holds the term dictionary, one postings list per term
    (indexed by term id), per-document lengths (in analyzed terms, for
    BM25 length normalization), and the analyzer it was built with so
    queries are normalized identically to documents.

    It is built from ``terms`` (in term-id order) and their
    :class:`PostingsLayout`, which it keeps as :attr:`layout`: every
    postings list and block-metadata record is a view of those arrays.
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
        offsets, doc_ids, frequencies, block_offsets = layout[:4]
        last_doc_ids, max_frequencies, min_doc_lengths = layout[4:]
        if not np.all(offsets[1:] > offsets[:-1]):
            raise ValueError("every term needs at least one posting")
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        # One list of Python ints per offsets array: its slice shares them.
        starts, firsts = offsets.tolist(), block_offsets.tolist()
        bounds = zip(
            terms,
            np.add.reduceat(frequencies, offsets[:-1]).tolist(),
            starts,
            starts[1:],
            firsts,
            firsts[1:],
        )
        dictionary = TermDictionary()
        postings: List[PostingsList] = []
        block_metadata: List[BlockMetadata] = []
        for term, collection_frequency, start, end, first, last in bounds:
            dictionary.add(term, end - start, collection_frequency)
            postings.append(
                PostingsList.from_trusted_arrays(
                    doc_ids[start:end], frequencies[start:end]
                )
            )
            block_metadata.append(
                BlockMetadata(
                    block_size,
                    last_doc_ids[first:last],
                    max_frequencies[first:last],
                    min_doc_lengths[first:last],
                )
            )
        self.dictionary = dictionary
        self._postings = postings
        self._block_metadata = block_metadata
        self.layout = layout
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
        return int(self.layout.offsets[-1])

    def term_info(self, term: str) -> Optional[TermInfo]:
        """Dictionary entry for ``term``, or None if absent."""
        return self.dictionary.lookup(term)

    def postings_for(self, term: str) -> PostingsList:
        """Postings of ``term``; empty list if the term is unknown."""
        info = self.dictionary.lookup(term)
        if info is None:
            return PostingsList.empty()
        return self._postings[info.term_id]

    def postings_for_id(self, term_id: int) -> PostingsList:
        """Postings by dense term id."""
        return self._postings[term_id]

    def block_metadata_for_id(self, term_id: int) -> BlockMetadata:
        """Block-max metadata by dense term id."""
        return self._block_metadata[term_id]

    def block_metadata_for(self, term: str) -> Optional[BlockMetadata]:
        """Block-max metadata of ``term``, or None if the term is unknown."""
        info = self.dictionary.lookup(term)
        if info is None:
            return None
        return self.block_metadata_for_id(info.term_id)

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term`` (0 if unknown)."""
        info = self.dictionary.lookup(term)
        return info.document_frequency if info else 0

    def matched_postings_volume(self, terms: List[str]) -> int:
        """Total postings touched when evaluating ``terms``.

        This is the work proxy used throughout the characterization: a
        disjunctive top-k evaluation reads every posting of every query
        term, so service time is roughly affine in this volume.
        """
        return sum(self.document_frequency(term) for term in terms)

    def all_postings(self) -> List[PostingsList]:
        """All postings lists in term-id order (do not mutate)."""
        return self._postings
