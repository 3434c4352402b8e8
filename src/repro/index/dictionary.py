"""Term dictionary: maps index terms to ids and collection statistics."""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence

import numpy as np


class TermInfo(NamedTuple):
    """Dictionary entry for one term, made when a caller asks for it.

    Attributes
    ----------
    term_id:
        Dense id, also the term's position in the index's postings layout.
    document_frequency:
        Number of documents containing the term.
    collection_frequency:
        Total occurrences of the term in the collection.
    """

    term_id: int
    document_frequency: int
    collection_frequency: int


class TermDictionary:
    """Term ↔ id mapping with per-term statistics, built in one pass.

    ``terms`` are in term-id order, with their document and collection
    frequencies as parallel arrays.  The dictionary keeps a
    ``term → id`` ``dict`` (:attr:`term_ids`) and the statistics as
    lists of Python ints indexed by id (:attr:`document_frequencies`,
    :attr:`collection_frequencies`): no object per term.  Immutable.
    """

    def __init__(
        self,
        terms: Sequence[str],
        document_frequencies: np.ndarray,
        collection_frequencies: np.ndarray,
    ) -> None:
        document_frequencies = np.asarray(document_frequencies)
        collection_frequencies = np.asarray(collection_frequencies)
        sizes = document_frequencies.size, collection_frequencies.size
        if sizes != (len(terms), len(terms)):
            raise ValueError(
                f"{len(terms)} terms but {sizes[0]} document and "
                f"{sizes[1]} collection frequencies"
            )
        if np.any(document_frequencies <= 0):
            raise ValueError("document_frequency must be positive")
        if np.any(collection_frequencies < document_frequencies):
            raise ValueError(
                "collection_frequency cannot be below document_frequency"
            )
        self._terms = terms
        self.term_ids: Dict[str, int] = dict(zip(terms, range(len(terms))))
        if len(self.term_ids) != len(terms):
            raise ValueError("terms must be unique")
        self.document_frequencies: List[int] = document_frequencies.tolist()
        self.collection_frequencies: List[int] = (
            collection_frequencies.tolist()
        )

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: str) -> bool:
        return term in self.term_ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._terms)

    def lookup(self, term: str) -> Optional[TermInfo]:
        """Return the entry for ``term`` or None if unknown."""
        term_id = self.term_ids.get(term)
        if term_id is None:
            return None
        return TermInfo(
            term_id,
            self.document_frequencies[term_id],
            self.collection_frequencies[term_id],
        )

    def term_for_id(self, term_id: int) -> str:
        """Return the term string for a dense ``term_id``."""
        return self._terms[term_id]

    def terms(self) -> List[str]:
        """All terms in term-id order."""
        return list(self._terms)
