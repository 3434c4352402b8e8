"""WAND early-terminated disjunctive evaluation, and the pivot kernel.

WAND (Broder et al., CIKM 2003) skips documents that cannot enter the
current top-k by comparing the sum of per-term score *upper bounds*
against the heap threshold.  The benchmark itself evaluates exhaustively
(Lucene gained WAND much later), so this module serves two roles in the
reproduction:

1. a correctness cross-check — WAND must return the same top-k scores
   as exhaustive DAAT;
2. the substrate for the "future work" ablation comparing exhaustive
   vs. dynamically-pruned evaluation under partitioning.

The pivot loop serves plain WAND only.  Block-Max WAND
(:mod:`repro.search.block_max_wand`) chooses its documents with array
block bounds and scores them with exhaustive DAAT's merge, on a
resident and a tiered index alike, which leaves WAND's pivot sequence
as the independent oracle for the whole pruning family.  The loop is
written for the interpreter: everything it reads per turn is a plain
``int`` / ``float`` slot; numpy is touched only inside ``seek`` and on
first descent into a block.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.index.inverted import InvertedIndex
from repro.search.query import ParsedQuery, QueryMode
from repro.search.scoring import BM25Scorer, _vector_scores, resolve_idf
from repro.search.strategy import TraversalStats
from repro.search.topk import SearchHit, TopKHeap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry


class _Cursor:
    """A postings cursor, as the pivot kernel reads it.

    ``cur`` is the doc id under the cursor as a plain ``int``, written
    only by ``seek``; ``key`` orders cursors by ``(cur, rank)`` in one
    integer, so cursors tied on a document always sort in original term
    order — the order exhaustive DAAT sums contributions in.  An
    exhausted cursor has ``cur = None``, not a sentinel doc id: the
    kernel drops it from its live list the moment ``seek`` returns
    ``None``, and arithmetic on ``None`` raises instead of leaking
    into a seek target or a ``doc_lengths`` lookup.
    """

    __slots__ = (
        "cur",
        "key",
        "rank",
        "stride",
        "idf",
        "max_score",
        "doc_ids",
        "frequencies",
        "size",
        "position",
        "block_size",
        "scores",
        "scores_start",
        "scores_end",
    )

    def __init__(
        self,
        doc_ids: np.ndarray,
        frequencies: np.ndarray,
        block_size: int,
        idf: float,
        max_score: float,
        rank: int,
        stride: int,
    ):
        self.doc_ids = doc_ids
        self.cur = self.doc_ids.item(0)
        self.key = self.cur * stride + rank
        self.rank = rank
        self.stride = stride
        self.idf = idf
        self.max_score = max_score
        self.frequencies = frequencies
        self.size = doc_ids.size
        self.position = 0
        self.block_size = block_size
        self.scores: List[float] = []
        self.scores_start = self.scores_end = 0

    def seek(self, target: int) -> Optional[int]:
        """Advance to the first posting with doc id >= ``target``.

        Returns the new ``cur`` (``None`` when the list is exhausted).
        A target at or behind the cursor is a no-op — the kernel seeks
        every cursor before the pivot *to* the pivot, including ones
        already on it.  Doc ids are strictly increasing and targets
        never go backwards, so the search runs on the whole array: no
        ``[position:]`` slice is needed to keep it forward-only.
        """
        cur = self.cur
        if cur >= target:
            return cur
        doc_ids = self.doc_ids
        size = self.size
        position = self.position + 1
        if position == size:
            cur = None
        else:
            cur = doc_ids.item(position)
            if cur < target:  # the next posting is not the answer
                position = int(doc_ids.searchsorted(target))
                cur = doc_ids.item(position) if position < size else None
        self.position = position
        self.cur = cur
        if cur is not None:
            self.key = cur * self.stride + self.rank
        return cur

    def score(self, scorer, doc_lengths: np.ndarray) -> float:
        """Score the posting under the cursor, via the block memo.

        The first touch of a block scores the whole block in one
        vectorized call; cursors only move forward, so one block's
        list per (query, term) is all that is ever kept.
        """
        position = self.position
        if position >= self.scores_end:
            start = position - position % self.block_size
            end = min(start + self.block_size, self.size)
            self.scores = _vector_scores(
                scorer,
                self.frequencies[start:end],
                doc_lengths[self.doc_ids[start:end]],
                self.idf,
            ).tolist()
            self.scores_start = start
            self.scores_end = end
        return self.scores[position - self.scores_start]


def score_wand(
    index: InvertedIndex,
    query: ParsedQuery,
    scorer: Optional[BM25Scorer] = None,
    metrics: Optional["MetricsRegistry"] = None,
    stats: Optional[TraversalStats] = None,
    global_doc_ids: Optional[np.ndarray] = None,
) -> List[SearchHit]:
    """Evaluate a disjunctive query with WAND pruning.

    Only ``QueryMode.OR`` queries are supported (WAND is a disjunctive
    algorithm; conjunctive queries already skip aggressively).  With
    ``metrics``, the number of fully-scored documents and of pivot
    skips are added to the registry once per call; ``stats``, when
    given, receives the same per-query numbers and the matched volume.
    ``global_doc_ids`` is a shard's local→global id map for the hits.
    """
    if query.mode is not QueryMode.OR:
        raise ValueError("score_wand supports OR queries only")
    if query.is_empty or index.num_documents == 0:
        return []
    if scorer is None:
        scorer = BM25Scorer(
            num_documents=index.num_documents,
            average_doc_length=index.average_doc_length,
        )

    term_ids = index.dictionary.term_ids
    document_frequencies = index.dictionary.document_frequencies
    live: List[_Cursor] = []
    stride = len(query.terms)
    volume = 0
    for rank, term in enumerate(query.terms):
        term_id = term_ids.get(term)
        if term_id is None:
            continue
        document_frequency = document_frequencies[term_id]
        volume += document_frequency
        idf = resolve_idf(scorer, term, document_frequency)
        live.append(
            _Cursor(
                *index.postings_for_id(term_id),
                index.block_size,
                idf,
                scorer.max_score(idf),
                rank,
                stride,
            )
        )

    # The pivot loop.  Every turn: sort the live cursors, pivot on the
    # term-global bounds, then either score the pivot document or skip
    # towards it.  Cursors leave ``live`` as they are exhausted.
    doc_lengths = index.doc_lengths
    heap = TopKHeap(query.k)
    offer = heap.offer
    threshold = heap.threshold()
    by_key = attrgetter("key")
    count = len(live)  # kept in step with ``live``: no len() per turn
    docs_scored = pivot_skips = 0

    while count:
        live.sort(key=by_key)

        # The pivot: the first cursor at which the running sum of upper
        # bounds exceeds the heap threshold.  The strict test is safe
        # because BM25's max_score is a strict supremum (k1 > 0): a
        # document whose bound merely ties the threshold cannot
        # actually reach it.
        upper_bound = 0.0
        for pivot_index, cursor in enumerate(live):
            upper_bound += cursor.max_score
            if upper_bound > threshold:
                break
        else:
            break  # no document can beat the threshold anymore
        pivot_doc = cursor.cur

        if live[0].cur == pivot_doc:
            # Every cursor up to the pivot sits on pivot_doc, and so
            # may trailing ones: score it, summing in sorted order —
            # original term order among the tied cursors, so float
            # rounding matches exhaustive DAAT bit for bit.
            pivot_end = pivot_index + 1
            while pivot_end < count and live[pivot_end].cur == pivot_doc:
                pivot_end += 1
            movers = live[:pivot_end]
            score = 0.0
            for cursor in movers:
                score += cursor.score(scorer, doc_lengths)
            docs_scored += 1
            # A score below the threshold cannot enter the heap (a tie
            # can: the lower doc id wins), and the threshold only moves
            # when the heap retains the offer.
            if score >= threshold and offer(pivot_doc, score):
                threshold = heap.threshold()
            target = pivot_doc + 1
        else:
            # Skip the leading cursors straight to the pivot document.
            pivot_skips += 1
            movers = live[:pivot_index]
            target = pivot_doc

        for cursor in movers:
            if cursor.seek(target) is None:
                live.remove(cursor)
                count -= 1

    if stats is not None:
        stats.matched_volume += volume
        stats.docs_scored += docs_scored
        stats.pivot_skips += pivot_skips
    if metrics is not None:
        metrics.counter("wand.docs_scored").add(docs_scored)
        metrics.counter("wand.pivot_skips").add(pivot_skips)
    return heap.results(global_doc_ids)
