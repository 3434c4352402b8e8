"""Block-Max WAND early-terminated disjunctive evaluation.

Block-Max WAND (Ding & Suel, SIGIR 2011) refines WAND's pruning with
*per-block* score upper bounds.  Plain WAND compares the heap threshold
against term-global bounds, which are hopelessly loose for common
terms: one high-tf posting anywhere in a list inflates the bound for
the entire list.  BMW instead consults the
:class:`~repro.index.blockmax.BlockMetadata` the index keeps per
postings block (last doc id, max tf, min doc length):

1. **Shallow pointer movement** — per-cursor block pointers advance
   over the block summaries (a ``bisect`` only when the pointer's block
   ends before the pivot) without touching postings.
2. **Deep descent only into candidate blocks** — the pivot document is
   scored only when the *sum of local block bounds* can still beat the
   threshold; otherwise the traversal jumps every contributing cursor
   past the earliest block boundary in one skip.
3. **Vectorized block scoring** — on first descent into a block the
   whole block's contributions are computed with the scorer's
   ``score_block`` and memoized, so repeated hits in a hot block cost
   a list index.

The loop itself is :func:`repro.search.wand._traverse` with the block
stage on; this module adds the block summaries and, for a tiered index,
the paged cursor.

Pivot selection is identical to :func:`repro.search.wand.score_wand`
(global bounds, strict ``>`` test — safe because BM25's global bound is
a strict supremum for ``k1 > 0``).  Block bounds, by contrast, are
*achievable*: ``score(max_tf, min_doc_length)`` is attained whenever
one posting realizes both extremes, and the top-k heap admits
threshold-tied documents with smaller doc ids.  The block-skip test is
therefore strict the other way: skip only when ``block_upper <
threshold``, descend on ties.  Under these rules BMW returns the same
top-k — ids *and* bit-identical scores — as exhaustive DAAT, while
scoring a subset of the documents plain WAND scores.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.index.inverted import InvertedIndex
from repro.search.query import ParsedQuery, QueryMode
from repro.search.scoring import BM25Scorer, resolve_idf
from repro.search.strategy import TraversalStats
from repro.search.topk import SearchHit
from repro.search.wand import (
    _block_scores,
    _Cursor,
    _ResidentCursor,
    _traverse,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry


class _PagedCursor(_Cursor):
    """A block-max cursor over tiered (paged) postings.

    Same interface and same traversal arithmetic as the resident
    cursor, but the postings live behind a
    :class:`~repro.index.store.TieredPostings` view and are paged in
    block-at-a-time.  The trick that makes paging cheap is **shallow
    seeking**: the resident per-block first/last doc ids locate the
    only block that can hold a seek target, and when the target lands
    on or before a block's first posting the current doc id is known
    from metadata alone — a cursor that is merely being skipped over
    never fetches.  Only a mid-block landing or an actual scoring
    descent pages the block in, so the traversal fetches exactly the
    blocks it descends into.

    Because the resolved (block, offset) sequence — and the per-block
    score lists — are identical to the resident cursor's, results stay
    bit-identical; only the I/O schedule changes.
    """

    __slots__ = (
        "tiered",
        "first_doc_ids",
        "block",
        "doc_ids",
        "frequencies",
        "offset",
        "scores",
    )

    def __init__(self, tiered_postings, *state):
        self.tiered = tiered_postings
        self.first_doc_ids = tiered_postings.info.first_doc_ids
        super().__init__(self.first_doc_ids.item(0), *state)
        self.block = 0  # block holding the current posting
        self.doc_ids: Optional[np.ndarray] = None  # None until paged in
        self.frequencies: Optional[np.ndarray] = None
        self.offset = 0
        self.scores: Optional[List[float]] = None

    def _load(self) -> np.ndarray:
        """Page the current block in (through the index's block cache)."""
        self.doc_ids, self.frequencies = self.tiered.block(self.block)
        return self.doc_ids

    def seek(self, target: int) -> Optional[int]:
        """Advance to the first posting with doc id >= ``target``.

        Same contract as the resident cursor's ``seek``; pages a block
        in only when the target lands strictly inside it.
        """
        cur = self.cur
        if cur >= target:
            return cur
        block = self.block
        last_doc_ids = self.last_doc_ids
        if last_doc_ids[block] < target:
            block = self.block = bisect_left(last_doc_ids, target, block + 1)
            if block == len(last_doc_ids):
                self.cur = None
                return None
            self.doc_ids = self.frequencies = self.scores = None
            self.offset = 0
        doc_ids = self.doc_ids
        if doc_ids is None:
            # The target precedes the block's first posting — whose id
            # the resident metadata already knows — or lands inside it.
            cur = self.first_doc_ids.item(block)
            if cur < target:
                doc_ids = self._load()
        if doc_ids is not None:
            self.offset = int(doc_ids.searchsorted(target))
            cur = doc_ids.item(self.offset)
        self.cur = cur
        self.key = cur * self.stride + self.rank
        return cur

    def score(self, scorer, doc_lengths: np.ndarray) -> float:
        """Score the posting under the cursor (pages its block in)."""
        if self.scores is None:
            doc_ids = self.doc_ids if self.doc_ids is not None else self._load()
            self.scores = _block_scores(
                scorer, self.frequencies, doc_lengths[doc_ids], self.idf
            )
        return self.scores[self.offset]


def score_block_max_wand(
    index: InvertedIndex,
    query: ParsedQuery,
    scorer: Optional[BM25Scorer] = None,
    metrics: Optional["MetricsRegistry"] = None,
    stats: Optional[TraversalStats] = None,
    max_docs_scored: Optional[int] = None,
) -> List[SearchHit]:
    """Evaluate a disjunctive query with Block-Max WAND pruning.

    Only ``QueryMode.OR`` queries are supported, mirroring
    :func:`~repro.search.wand.score_wand`.  With ``metrics``, the
    scored-document, pivot-skip, and block-skip totals are added to the
    registry once per call (same ``wand.*`` counter family as plain
    WAND, plus ``wand.block_skips``); ``stats``, when given, receives
    the same per-query numbers.

    ``max_docs_scored`` is the deadline scheduler's early-termination
    depth: the traversal stops once that many documents have been
    fully scored and returns the best-so-far heap (an *approximate*
    top-k).  ``None`` — the default — keeps the exact traversal, bit
    identical to exhaustive DAAT.  A truncated run sets
    ``stats.truncated``.
    """
    if query.mode is not QueryMode.OR:
        raise ValueError("score_block_max_wand supports OR queries only")
    if max_docs_scored is not None and max_docs_scored <= 0:
        raise ValueError("max_docs_scored must be positive when given")
    if query.is_empty or index.num_documents == 0:
        return []
    if scorer is None:
        scorer = BM25Scorer(
            num_documents=index.num_documents,
            average_doc_length=index.average_doc_length,
        )

    # A tiered index pages postings block-at-a-time: use the paged
    # cursor so this traversal fetches only the blocks it descends
    # into.  Resident indexes keep the direct-array cursor.
    paged = hasattr(index, "tiered_postings_for_id")
    cursors: List[_Cursor] = []
    stride = len(query.terms)
    for rank, term in enumerate(query.terms):
        info = index.term_info(term)
        if info is None:
            continue
        blocks = index.block_metadata_for_id(info.term_id)
        if blocks.num_blocks == 0:
            continue
        idf = resolve_idf(scorer, term, info.document_frequency)
        # Per (query, term), O(blocks): the summaries the shallow
        # pointer steers by, as Python lists the loop can index cheaply.
        state = (
            idf,
            scorer.max_score(idf),
            rank,
            stride,
            blocks.last_doc_ids.tolist(),
            blocks.max_scores(scorer, idf).tolist(),
        )
        if paged:
            cursors.append(
                _PagedCursor(index.tiered_postings_for_id(info.term_id), *state)
            )
        else:
            cursors.append(
                _ResidentCursor(
                    index.postings_for_id(info.term_id), index.block_size, *state
                )
            )
    if not cursors:
        return []
    return _traverse(
        cursors,
        query.k,
        scorer,
        index.doc_lengths,
        block_stage=True,
        max_docs_scored=max_docs_scored,
        metrics=metrics,
        stats=stats,
    )
