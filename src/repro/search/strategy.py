"""Traversal strategies and per-query traversal statistics.

The engine evaluates ranked disjunctions three ways:

- ``EXHAUSTIVE`` — the benchmark-faithful baseline: every posting of
  every query term is scored (Lucene's classic DAAT, run as one array
  merge; TAAT is the dense-accumulator equivalent).  Service time is
  affine in the matched postings volume — the paper's work model.
- ``WAND`` — Broder et al.'s weak-AND: documents whose summed per-term
  score *upper bounds* cannot beat the current top-k threshold are
  skipped without scoring.
- ``BLOCK_MAX_WAND`` — Ding & Suel's refinement: postings are grouped
  into fixed-size blocks carrying local maxima, and the block bounds
  of all query terms choose, as arrays, which documents exhaustive
  DAAT's merge scores.  On a tiered index they also choose which
  blocks are fetched: only those that can hold a document reaching the
  threshold.

All three return bit-identical top-k results; they differ only in how
many documents they score, which is exactly the pruning-vs-work
tradeoff the fig25 ablation sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["TraversalStrategy", "TraversalStats"]


class TraversalStrategy(Enum):
    """How the query's postings are traversed and pruned."""

    EXHAUSTIVE = "exhaustive"
    WAND = "wand"
    BLOCK_MAX_WAND = "block_max_wand"

    @property
    def algorithm(self) -> str:
        """The :class:`~repro.search.executor.Searcher` algorithm name."""
        if self is TraversalStrategy.EXHAUSTIVE:
            return "daat"
        return self.value

    @property
    def prunes(self) -> bool:
        """True when the strategy skips documents (WAND family)."""
        return self is not TraversalStrategy.EXHAUSTIVE

    @classmethod
    def coerce(cls, value: "TraversalStrategy | str") -> "TraversalStrategy":
        """Normalize a strategy from an enum member or a name.

        Accepts the enum values (``"exhaustive"``, ``"wand"``,
        ``"block_max_wand"``), dashed spellings (``"block-max-wand"``),
        and the legacy executor algorithm names (``"daat"``/``"taat"``
        are exhaustive traversals).
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            name = value.strip().lower().replace("-", "_")
            name = {"daat": "exhaustive", "taat": "exhaustive"}.get(name, name)
            try:
                return cls(name)
            except ValueError:
                pass
        raise ValueError(
            f"unknown traversal strategy {value!r}; choose from "
            f"{[member.value for member in cls]}"
        )


@dataclass
class TraversalStats:
    """Per-query traversal accounting filled in by the scoring loops.

    ``matched_volume`` is the postings volume of the query's terms in
    the index, summed from the traversal's own term lookups;
    ``docs_scored`` counts documents whose full score was computed;
    ``pivot_skips`` counts WAND pivot advances that skipped candidates
    without scoring; ``block_skips`` counts what block-max bounds pruned
    (BMW only): candidate documents dropped (on a tiered index, only
    those in blocks that were read).
    """

    matched_volume: int = 0
    docs_scored: int = 0
    pivot_skips: int = 0
    block_skips: int = 0
    #: True when a deadline budget stopped the traversal early
    #: (approximate top-k); always False on an exact run.
    truncated: bool = False
