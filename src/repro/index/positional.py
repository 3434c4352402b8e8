"""Positional indexing: term positions for phrase queries.

The benchmark's index serving node (Lucene-based) stores term positions
so it can answer phrase queries ("new york") and generate highlighted
snippets.  ``PositionalIndexBuilder`` produces a regular
:class:`~repro.index.inverted.InvertedIndex` plus, per term, the
in-document token positions of every occurrence.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.corpus.documents import DocumentCollection
from repro.index.builder import IndexBuilder, term_occurrences
from repro.index.inverted import InvertedIndex
from repro.text.analyzer import Analyzer, default_analyzer


class PositionalPostings:
    """Positions of one term: per document, the sorted token offsets."""

    __slots__ = ("_doc_ids", "_positions")

    def __init__(self, doc_ids: Sequence[int], positions: List[np.ndarray]):
        doc_array = np.asarray(doc_ids, dtype=np.int64)
        if len(positions) != doc_array.size:
            raise ValueError(
                f"{doc_array.size} doc ids but {len(positions)} position lists"
            )
        if doc_array.size > 1 and not np.all(np.diff(doc_array) > 0):
            raise ValueError("doc_ids must be strictly increasing")
        for position_list in positions:
            if len(position_list) == 0:
                raise ValueError("every posting needs at least one position")
        self._doc_ids = doc_array
        self._positions = [
            np.asarray(position_list, dtype=np.int64)
            for position_list in positions
        ]

    def __len__(self) -> int:
        return int(self._doc_ids.size)

    @property
    def doc_ids(self) -> np.ndarray:
        """Sorted doc ids (do not mutate)."""
        return self._doc_ids

    def positions_in(self, doc_id: int) -> Optional[np.ndarray]:
        """Token positions of the term in ``doc_id`` (None if absent)."""
        index = int(np.searchsorted(self._doc_ids, doc_id))
        if index < len(self) and self._doc_ids[index] == doc_id:
            return self._positions[index]
        return None


@dataclass(frozen=True)
class PositionalIndex:
    """An inverted index plus per-term position lists."""

    index: InvertedIndex
    _positions: Dict[str, PositionalPostings]

    def positions_for(self, term: str) -> Optional[PositionalPostings]:
        """Position postings of ``term`` (None for unknown terms)."""
        return self._positions.get(term)

    @property
    def analyzer(self) -> Analyzer:
        """The analyzer the index was built with."""
        return self.index.analyzer


class PositionalIndexBuilder:
    """Builds a :class:`PositionalIndex` from a document collection.

    The frequency index is :class:`IndexBuilder`'s; the position lists
    come from a second pass through the same analyzer, so the two must
    agree (the test suite checks every term's position counts against
    its postings' frequencies).
    """

    def __init__(self, analyzer: Optional[Analyzer] = None):
        self.analyzer = analyzer or default_analyzer()

    def build(self, collection: DocumentCollection) -> PositionalIndex:
        """Analyze and index every document with positions."""
        # term number -> doc id (ascending, as visited) -> positions
        terms, numbers, doc_lengths = term_occurrences(collection, self.analyzer)
        term_positions: Dict[int, Dict[int, List[int]]] = defaultdict(dict)
        ends = np.cumsum(doc_lengths).tolist()
        numbers = numbers.tolist()
        for doc_id, (start, end) in enumerate(zip([0] + ends, ends)):
            for position, number in enumerate(numbers[start:end]):
                term_positions[number].setdefault(doc_id, []).append(position)
        positions = {
            term: PositionalPostings(
                list(term_positions[number]),
                [np.array(found) for found in term_positions[number].values()],
            )
            for term, number in terms.items()
        }
        index = IndexBuilder(self.analyzer).build(collection)
        return PositionalIndex(index=index, _positions=positions)
