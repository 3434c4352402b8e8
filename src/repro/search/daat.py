"""Document-at-a-time (DAAT) query evaluation.

DAAT is how Lucene — and hence the benchmark's index serving node —
evaluates ranked boolean queries: one cursor per query term advances in
lock-step over doc-id-sorted postings, scoring each candidate document
completely before moving on.  Service time is proportional to the total
postings volume traversed, which is the work model the paper's
characterization (and our simulator calibration) relies on.

A k-way merge of doc-sorted lists is one stable sort, so the lock-step
runs as array operations: the terms' postings are concatenated in query
order and stably sorted by doc id, which is exactly the order in which a
``(doc_id, cursor_index)`` frontier would pop them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.index.inverted import InvertedIndex
from repro.search.query import ParsedQuery, QueryMode
from repro.search.scoring import BM25Scorer, Scorer, _vector_scores, resolve_idf
from repro.search.strategy import TraversalStats
from repro.search.topk import SearchHit, select_top_k

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry


def _merge_postings(
    id_lists: List[np.ndarray], score_lists: List[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The array merge: every document's score from its terms' postings.

    ``id_lists``/``score_lists`` hold one doc-sorted list per query term,
    in query-term order.  Returns the distinct doc ids (ascending), each
    one's summed contribution, and how many lists matched it.  This is
    the one scoring kernel: exhaustive DAAT feeds it every posting,
    resident Block-Max WAND only the postings of the documents its
    block bounds let through.
    """
    ids = np.concatenate(id_lists)
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    contributions = np.concatenate(score_lists)[order]

    # One segment per candidate document, its postings in term order.
    is_start = np.ones(len(ids), dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    matched = np.append(starts[1:], len(ids)) - starts

    # Sum each document's contributions one term at a time from 0.0, as
    # a scalar loop would: reduceat may add pairwise, which rounds
    # differently and would break bit-identity with TAAT and the WAND
    # family.
    totals = 0.0 + contributions[starts]
    for position in range(1, int(matched.max())):
        more = np.flatnonzero(matched > position)
        totals[more] += contributions[starts[more] + position]
    return ids[starts], totals, matched


def score_daat(
    index: InvertedIndex,
    query: ParsedQuery,
    scorer: Scorer | None = None,
    metrics: Optional["MetricsRegistry"] = None,
    stats: Optional[TraversalStats] = None,
) -> List[SearchHit]:
    """Evaluate ``query`` over ``index`` document-at-a-time.

    Returns the top-k hits (best first).  ``scorer`` defaults to BM25
    with the index's collection statistics.  With ``metrics``, the
    traversal's postings/candidate/heap-offer totals — array lengths of
    the merge — are added to the registry; ``stats``, when given,
    receives the per-query scored-document count.
    """
    if query.is_empty:
        return []
    if scorer is None:
        scorer = BM25Scorer(
            num_documents=index.num_documents,
            average_doc_length=index.average_doc_length,
        )

    # Exhaustive traversal reads every posting, so each term's whole
    # contribution array is computed in one pass (bit-identical to the
    # scalar path by score_block's contract).
    doc_lengths = index.doc_lengths
    id_lists: List[np.ndarray] = []
    score_lists: List[np.ndarray] = []
    for term in query.terms:
        info = index.term_info(term)
        if info is None:
            continue
        postings = index.postings_for_id(info.term_id)
        if len(postings) == 0:
            continue
        doc_ids = postings.doc_ids
        id_lists.append(doc_ids)
        score_lists.append(
            _vector_scores(
                scorer,
                postings.frequencies,
                doc_lengths[doc_ids],
                resolve_idf(scorer, term, info.document_frequency),
            )
        )
    if not id_lists:
        return []
    if query.mode is QueryMode.AND and len(id_lists) < len(query.terms):
        # A conjunctive query with a term absent from the index matches
        # nothing.
        return []

    candidates, totals, matched = _merge_postings(id_lists, score_lists)
    scored = len(candidates)
    if query.mode is QueryMode.AND:
        required = matched >= len(query.terms)
        candidates, totals = candidates[required], totals[required]

    if stats is not None:
        stats.docs_scored += scored
    if metrics is not None:
        metrics.counter("daat.postings_traversed").add(
            sum(len(doc_ids) for doc_ids in id_lists)
        )
        metrics.counter("daat.candidates_scored").add(scored)
        metrics.counter("daat.heap_offers").add(len(candidates))
    return select_top_k(candidates, totals, query.k)
