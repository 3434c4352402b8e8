"""Term-at-a-time (TAAT) query evaluation.

TAAT processes one full posting list at a time, accumulating partial
scores in a dense per-document array.  It is the classic alternative
to DAAT: its memory is proportional to the shard where DAAT's merge is
proportional to the query's postings, and the two kernels share only
the scoring and top-k selection, so each is an independent cross-check
of the other (both must produce identical rankings).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.index.inverted import InvertedIndex
from repro.search.query import ParsedQuery, QueryMode
from repro.search.scoring import BM25Scorer, Scorer, _vector_scores, resolve_idf
from repro.search.strategy import TraversalStats
from repro.search.topk import SearchHit, select_top_k


def score_taat(
    index: InvertedIndex,
    query: ParsedQuery,
    scorer: Scorer | None = None,
    stats: Optional[TraversalStats] = None,
    global_doc_ids: Optional[np.ndarray] = None,
) -> List[SearchHit]:
    """Evaluate ``query`` term-at-a-time; returns top-k hits, best first.

    ``stats``, when given, receives the matched volume;
    ``global_doc_ids`` is a shard's local→global id map for the hits.
    """
    if query.is_empty or index.num_documents == 0:
        return []
    if scorer is None:
        scorer = BM25Scorer(
            num_documents=index.num_documents,
            average_doc_length=index.average_doc_length,
        )

    scores = np.zeros(index.num_documents, dtype=np.float64)
    match_counts = np.zeros(index.num_documents, dtype=np.int32)
    doc_lengths = index.doc_lengths
    term_ids = index.dictionary.term_ids
    document_frequencies = index.dictionary.document_frequencies
    terms_found = 0
    volume = 0

    for term in query.terms:
        term_id = term_ids.get(term)
        if term_id is None:
            continue
        document_frequency = document_frequencies[term_id]
        volume += document_frequency
        terms_found += 1
        idf = resolve_idf(scorer, term, document_frequency)
        doc_ids, frequencies = index.postings_for_id(term_id)
        contributions = _vector_scores(
            scorer, frequencies, doc_lengths[doc_ids], idf
        )
        scores[doc_ids] += contributions
        match_counts[doc_ids] += 1

    if stats is not None:
        stats.matched_volume += volume
    if terms_found == 0:
        return []
    if query.mode is QueryMode.AND:
        if terms_found < len(query.terms):
            return []
        candidates = np.flatnonzero(match_counts == terms_found)
    else:
        candidates = np.flatnonzero(match_counts > 0)

    return select_top_k(
        candidates, scores[candidates], query.k, global_doc_ids
    )
