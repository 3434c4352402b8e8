"""Per-block postings metadata for block-max pruning (Ding & Suel).

Each term's postings list is cut into fixed-size blocks (the classic
choice is 128 postings).  For every block we keep:

- the **last doc id** in the block — the shallow "skip pointer" that
  lets a traversal move over whole blocks without touching postings;
- the **maximum term frequency** in the block;
- the **minimum document length** among the block's documents.

The pair (max tf, min doc length) yields a *local* score upper bound
for any monotone scorer: BM25 (and TF-IDF) contributions increase with
term frequency and never increase with document length, so
``score(max_tf, min_doc_length)`` dominates every posting in the
block.  That bound is far tighter than the term-global
``max_score(idf)``, which is what makes Block-Max WAND skip blocks a
plain WAND must descend into.

:func:`block_arrays` computes the metadata of every list of an index
at once; the :class:`~repro.index.builder.IndexBuilder` calls it on
the arrays it builds, and so does loading a v1/v2 payload (format v3
stores the metadata).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["BlockMetadata", "DEFAULT_BLOCK_SIZE"]

#: Postings per block; 128 is the standard choice in the block-max
#: literature (large enough to amortize block bookkeeping, small enough
#: that local maxima stay tight).
DEFAULT_BLOCK_SIZE = 128


def block_arrays(
    offsets: np.ndarray,
    doc_ids: np.ndarray,
    frequencies: np.ndarray,
    doc_lengths: np.ndarray,
    block_size: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The block metadata of every postings list, back to back.

    List ``t`` is ``doc_ids[offsets[t]:offsets[t + 1]]`` with its
    parallel ``frequencies``.  Returns ``(block_offsets, last_doc_ids,
    max_frequencies, min_doc_lengths)``: list ``t``'s blocks are
    ``block_offsets[t]:block_offsets[t + 1]`` of the other three.  A
    block ends where the next one starts, in its own list or the next,
    so one ``reduceat`` over all block starts covers every block of
    every list.
    """
    blocks_per_term = -(-np.diff(offsets) // block_size)
    block_offsets = np.concatenate(([0], np.cumsum(blocks_per_term)))
    block_starts = np.repeat(
        offsets[:-1] - block_offsets[:-1] * block_size, blocks_per_term
    ) + np.arange(block_offsets[-1]) * block_size
    last_doc_ids = doc_ids[np.append(block_starts, doc_ids.size)[1:] - 1]
    max_frequencies = np.maximum.reduceat(frequencies, block_starts)
    min_doc_lengths = np.minimum.reduceat(doc_lengths[doc_ids], block_starts)
    return block_offsets, last_doc_ids, max_frequencies, min_doc_lengths


@dataclass(frozen=True)
class BlockMetadata:
    """Per-block skip pointers and score-bound ingredients for one term.

    Attributes
    ----------
    block_size:
        Number of postings per block (the final block may be shorter).
    last_doc_ids:
        Doc id of each block's last posting (strictly increasing).
    max_frequencies:
        Maximum term frequency within each block.
    min_doc_lengths:
        Minimum analyzed document length among each block's documents.
    """

    block_size: int
    last_doc_ids: np.ndarray
    max_frequencies: np.ndarray
    min_doc_lengths: np.ndarray

    @property
    def num_blocks(self) -> int:
        """Number of blocks covering the postings list."""
        return int(self.last_doc_ids.size)

    @classmethod
    def from_postings(
        cls,
        doc_ids: np.ndarray,
        frequencies: np.ndarray,
        doc_lengths: np.ndarray,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> "BlockMetadata":
        """Compute the metadata of one postings list, block by block.

        ``doc_lengths`` is the index-wide per-document length table the
        block minima are gathered from.  :func:`block_arrays` computes
        the same arrays for every list at once.
        """
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        count = int(doc_ids.size)
        if count == 0:
            empty = np.empty(0, dtype=np.int64)
            return cls(block_size, empty, empty.copy(), empty.copy())
        starts = np.arange(0, count, block_size)
        ends = np.minimum(starts + block_size - 1, count - 1)
        lengths = np.asarray(doc_lengths, dtype=np.int64)[doc_ids]
        return cls(
            block_size=block_size,
            last_doc_ids=doc_ids[ends],
            max_frequencies=np.maximum.reduceat(
                np.asarray(frequencies, dtype=np.int64), starts
            ),
            min_doc_lengths=np.minimum.reduceat(lengths, starts),
        )

    def max_scores(self, scorer, idf: float) -> np.ndarray:
        """Per-block score upper bounds under ``scorer``.

        Valid for any scorer monotone increasing in term frequency and
        non-increasing in document length (BM25, TF-IDF).  Scorers with
        a vectorized ``score_block`` use it; others fall back to a
        per-block scalar loop.
        """
        if self.num_blocks == 0:
            return np.empty(0, dtype=np.float64)
        score_block = getattr(scorer, "score_block", None)
        if score_block is not None:
            return score_block(self.max_frequencies, self.min_doc_lengths, idf)
        return np.array(
            [
                scorer.score(int(frequency), int(length), idf)
                for frequency, length in zip(
                    self.max_frequencies, self.min_doc_lengths
                )
            ],
            dtype=np.float64,
        )
