"""The queryable inverted index."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.index.blockmax import DEFAULT_BLOCK_SIZE, BlockMetadata
from repro.index.dictionary import TermDictionary, TermInfo
from repro.index.postings import PostingsList
from repro.text.analyzer import Analyzer


class InvertedIndex:
    """An immutable inverted index over a document collection.

    The index holds the term dictionary, one postings list per term
    (indexed by term id), per-document lengths (in analyzed terms, for
    BM25 length normalization), and the analyzer it was built with so
    queries are normalized identically to documents.
    """

    def __init__(
        self,
        dictionary: TermDictionary,
        postings: Sequence[PostingsList],
        doc_lengths: np.ndarray,
        analyzer: Analyzer,
        block_metadata: Optional[Sequence[Optional[BlockMetadata]]] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        if len(dictionary) != len(postings):
            raise ValueError(
                f"dictionary has {len(dictionary)} terms but "
                f"{len(postings)} postings lists were given"
            )
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.dictionary = dictionary
        self._postings = list(postings)
        self.doc_lengths = np.asarray(doc_lengths, dtype=np.int64)
        #: Mean analyzed document length (0.0 for an empty index).  The
        #: index is immutable, so the mean is taken once here: every
        #: searcher builds its scorer from it.
        self.average_doc_length = (
            float(self.doc_lengths.mean()) if self.doc_lengths.size else 0.0
        )
        self.analyzer = analyzer
        self.block_size = int(block_size)
        if block_metadata is None:
            self._block_metadata: List[Optional[BlockMetadata]] = [
                None
            ] * len(self._postings)
        else:
            if len(block_metadata) != len(self._postings):
                raise ValueError(
                    f"{len(block_metadata)} block metadata entries for "
                    f"{len(self._postings)} postings lists"
                )
            self._block_metadata = list(block_metadata)

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
        return sum(len(postings) for postings in self._postings)

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
        """Block-max metadata by dense term id.

        Computed lazily (and memoized) for indexes whose builder or
        serialization version did not precompute it — a v1/v2 payload
        answers block-max queries identically to a v3 one, just paying
        the derivation cost on first use.  The memoization race under
        concurrent shard searchers is benign: every thread derives the
        same value from immutable postings.
        """
        cached = self._block_metadata[term_id]
        if cached is None:
            cached = BlockMetadata.from_postings(
                self._postings[term_id], self.doc_lengths, self.block_size
            )
            self._block_metadata[term_id] = cached
        return cached

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
