"""Posting lists: sorted (doc_id, term_frequency) pairs for one term."""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np


def check_postings(
    doc_ids: np.ndarray, frequencies: np.ndarray, offsets: np.ndarray
) -> None:
    """Raise ``ValueError`` unless every list is a valid postings list.

    List ``i`` is ``doc_ids[offsets[i]:offsets[i + 1]]`` with its parallel
    ``frequencies``: one pass checks one list (the constructor) or all
    lists of an index laid out back to back (the builder).
    """
    if doc_ids.shape != frequencies.shape:
        raise ValueError(
            f"doc_ids and frequencies must have equal length, got "
            f"{doc_ids.shape} vs {frequencies.shape}"
        )
    if doc_ids.ndim != 1:
        raise ValueError("postings arrays must be one-dimensional")
    increasing = doc_ids[1:] > doc_ids[:-1]
    increasing[offsets[1:-1] - 1] = True  # a new list may start lower
    if not increasing.all():
        raise ValueError("doc_ids must be strictly increasing")
    if doc_ids.size and doc_ids.min() < 0:
        raise ValueError("doc_ids must be non-negative")
    if np.any(frequencies <= 0):
        raise ValueError("term frequencies must be positive")


class PostingsList:
    """The postings of a single term, sorted by ascending doc id.

    Doc ids and term frequencies are stored as parallel int64 numpy
    arrays: traversal and galloping search dominate query service time,
    and array storage keeps both fast and memory-compact.  Instances are
    immutable after construction.
    """

    __slots__ = ("_doc_ids", "_frequencies")

    def __init__(
        self,
        doc_ids: Sequence[int] | np.ndarray,
        frequencies: Sequence[int] | np.ndarray,
    ):
        doc_array = np.asarray(doc_ids, dtype=np.int64)
        freq_array = np.asarray(frequencies, dtype=np.int64)
        check_postings(doc_array, freq_array, np.array([0, doc_array.size]))
        self._doc_ids = doc_array
        self._frequencies = freq_array

    @classmethod
    def empty(cls) -> "PostingsList":
        """Return an empty postings list."""
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    @classmethod
    def from_trusted_arrays(
        cls, doc_ids: np.ndarray, frequencies: np.ndarray
    ) -> "PostingsList":
        """Wrap pre-validated int64 arrays without copying or checking.

        Only the ``InvertedIndex`` constructor calls this, on the slices
        of a ``PostingsLayout`` the builder or the payload decoder has
        validated (or a worker's views of the index image); checking
        each slice again would touch every page of every postings list
        at startup.  Callers guarantee the constructor's invariants:
        parallel 1-D int64 arrays, strictly increasing non-negative doc
        ids, positive frequencies.
        """
        self = object.__new__(cls)
        self._doc_ids = doc_ids
        self._frequencies = frequencies
        return self

    def __len__(self) -> int:
        return int(self._doc_ids.size)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for doc_id, frequency in zip(self._doc_ids, self._frequencies):
            yield int(doc_id), int(frequency)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PostingsList):
            return NotImplemented
        return bool(
            np.array_equal(self._doc_ids, other._doc_ids)
            and np.array_equal(self._frequencies, other._frequencies)
        )

    def __repr__(self) -> str:
        return f"PostingsList(len={len(self)})"

    @property
    def doc_ids(self) -> np.ndarray:
        """Sorted doc ids (do not mutate)."""
        return self._doc_ids

    @property
    def frequencies(self) -> np.ndarray:
        """Term frequencies, parallel to :attr:`doc_ids` (do not mutate)."""
        return self._frequencies

    def document_frequency(self) -> int:
        """Number of documents containing the term."""
        return len(self)

    def collection_frequency(self) -> int:
        """Total occurrences of the term across the collection."""
        return int(self._frequencies.sum())

    def frequency_of(self, doc_id: int) -> int:
        """Term frequency in ``doc_id``, or 0 if the doc is absent."""
        position = int(np.searchsorted(self._doc_ids, doc_id))
        if position < len(self) and self._doc_ids[position] == doc_id:
            return int(self._frequencies[position])
        return 0

    def next_geq(self, doc_id: int, start: int = 0) -> int:
        """Return the position of the first posting with id >= ``doc_id``.

        This is the skip primitive of document-at-a-time traversal.
        ``start`` lets callers resume from their cursor; the return
        value equals ``len(self)`` when no such posting exists.
        """
        return int(
            np.searchsorted(self._doc_ids[start:], doc_id) + start
        )

    def intersect(self, other: "PostingsList") -> np.ndarray:
        """Return the doc ids present in both lists."""
        return np.intersect1d(
            self._doc_ids, other._doc_ids, assume_unique=True
        )

    def pairs(self) -> List[Tuple[int, int]]:
        """Materialize as a list of ``(doc_id, frequency)`` pairs."""
        return list(self)
