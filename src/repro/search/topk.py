"""Bounded top-k heap for result accumulation."""

from __future__ import annotations

from heapq import heappush, heapreplace
from itertools import repeat
from typing import List, NamedTuple, Optional

import numpy as np


class SearchHit(NamedTuple):
    """One ranked result: its relevance score and a document id.

    A plain tuple, so building one costs no ``__init__`` and hits
    compare, hash and pickle as ``(score, doc_id)``.  Ranking order is
    :meth:`sort_key`: score descending, ties toward the lower doc id,
    matching the benchmark's stable tie-breaking.
    """

    score: float
    doc_id: int

    def sort_key(self) -> tuple:
        return (-self.score, self.doc_id)


class TopKHeap:
    """Keeps the ``k`` best ``(score, doc_id)`` entries seen so far.

    Internally a min-heap of size ≤ k over ``(score, -doc_id)`` so the
    weakest retained hit is at the root; :meth:`threshold` exposes its
    score, which WAND-style early termination uses as the pruning bound.
    """

    def __init__(self, k: int):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        # Heap entries are (score, -doc_id): on equal scores, the entry
        # with the *higher* doc id is the weaker one and is evicted first.
        self._heap: List[tuple] = []

    def __len__(self) -> int:
        return len(self._heap)

    def threshold(self) -> float:
        """Score a new hit must exceed to enter a full heap.

        Returns ``-inf`` while the heap is not yet full.
        """
        heap = self._heap
        return heap[0][0] if len(heap) >= self.k else float("-inf")

    def offer(self, doc_id: int, score: float) -> bool:
        """Consider a hit; returns True if it was retained.

        The threshold can only have moved when this returns True, so a
        pruning loop may keep it in a local between retained offers.
        """
        entry = (score, -doc_id)
        heap = self._heap
        if len(heap) < self.k:
            heappush(heap, entry)
            return True
        if entry > heap[0]:
            heapreplace(heap, entry)
            return True
        return False

    def results(
        self, global_doc_ids: Optional[np.ndarray] = None
    ) -> List[SearchHit]:
        """Return retained hits, best first (score desc, doc id asc).

        With ``global_doc_ids`` (a shard's ascending local→global map)
        the hits carry global ids.
        """
        ordered = sorted(self._heap, reverse=True)
        if global_doc_ids is None:
            return [SearchHit(score, -negated) for score, negated in ordered]
        return [
            SearchHit(score, int(global_doc_ids[-negated]))
            for score, negated in ordered
        ]


def select_top_k(
    doc_ids: np.ndarray,
    scores: np.ndarray,
    k: int,
    global_doc_ids: Optional[np.ndarray] = None,
) -> List[SearchHit]:
    """The ``k`` best of parallel ``doc_ids``/``scores`` arrays, best first.

    The array form of offering every pair to a :class:`TopKHeap`: score
    descending, lower doc id first on equal scores, ties at the k-th
    score resolved by doc id.  ``doc_ids`` must be distinct.  With
    ``global_doc_ids`` (a shard's ascending local→global map) the hits
    carry global ids, mapped before they are built.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if len(scores) > k:
        # Everything at or above the k-th best score survives the cut,
        # so the doc-id tie-break below sees every tie at the boundary.
        cut = scores.copy()
        cut.partition(len(scores) - k)
        keep = scores >= cut[len(scores) - k]
        doc_ids, scores = doc_ids[keep], scores[keep]
    order = np.lexsort((doc_ids, -scores))[:k]
    doc_ids = doc_ids[order]
    if global_doc_ids is not None:
        doc_ids = global_doc_ids[doc_ids]
    # ``tuple.__new__`` builds a hit without ``SearchHit.__new__``'s frame.
    pairs = zip(scores[order].tolist(), doc_ids.tolist())
    return list(map(tuple.__new__, repeat(SearchHit, len(order)), pairs))
