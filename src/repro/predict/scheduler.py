"""The deadline-aware scheduling policy both execution paths interpret.

:class:`DeadlineScheduler` is declarative, like
:class:`~repro.engine.hedging.HedgingPolicy`: it states *what* the
scheduler wants (a predictor, a deadline budget, a long-query
threshold) and each execution path interprets it with its own clock
and mechanisms:

- **Native engine** (:class:`~repro.engine.isn.IndexServingNode`):
  queries are featurized at admission (dictionary only); batch
  dispatch orders work longest-predicted-first; with
  ``depth_from_budget`` and a Block-Max WAND traversal, the remaining
  wall-clock deadline budget is converted — through the predictor's
  own cost model — into a per-query ``max_docs_scored`` early-
  termination depth.
- **DES broker** (:func:`~repro.cluster.hetero.
  run_heterogeneous_open_loop`): each query's *predicted* demand is
  its true demand times a draw from the predictor's log-normal
  residual error model; routing picks the most energy-efficient server
  whose ``core_speed``-scaled completion estimate meets the deadline
  (falling back to the fastest server when none does).
  :class:`DeadlineCappedDemand` models the BMW depth cap for the
  single-server crossover studies: demands predicted to blow the
  budget are truncated to the affordable work, tracking the served
  fraction so quality loss stays measured.

``scheduler=None`` (the default everywhere) keeps both paths
bit-identical to the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.predict.features import QueryFeatures
from repro.predict.predictor import ServiceTimePredictor
from repro.workload.servicetime import ServiceDemandModel

__all__ = ["DeadlineScheduler", "DeadlineCappedDemand"]

#: Fraction of a deadline budget available for scoring work; the rest
#: is slack for queueing, merge, and prediction error.
BUDGET_HEADROOM = 0.8


@dataclass(frozen=True, kw_only=True)
class DeadlineScheduler:
    """Prediction-driven routing and early-termination policy.

    Attributes
    ----------
    predictor:
        The calibrated :class:`~repro.predict.predictor.
        ServiceTimePredictor`.
    deadline_s:
        Per-query completion budget in seconds.  Drives the DES's
        deadline-aware routing and, with ``depth_from_budget``, the
        native BMW depth cap.  ``None`` disables both.
    long_query_threshold_s:
        Predicted service time above which a query is "long".  Used
        for metrics/routing when no deadline is set (threshold-style
        big/little routing, the noisy version of the fig22 oracle).
    min_depth_fraction:
        Early termination never truncates a query below this fraction
        of its work: a floor on result quality.
    depth_from_budget:
        Enable the native deadline → BMW ``max_docs_scored`` mapping
        (and the DES demand-cap mirror).  Off by default so a purely
        routing scheduler never changes results.
    """

    predictor: ServiceTimePredictor
    deadline_s: Optional[float] = None
    long_query_threshold_s: Optional[float] = None
    min_depth_fraction: float = 0.1
    depth_from_budget: bool = False

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if (
            self.long_query_threshold_s is not None
            and self.long_query_threshold_s <= 0
        ):
            raise ValueError("long_query_threshold_s must be positive")
        if not 0.0 < self.min_depth_fraction <= 1.0:
            raise ValueError("min_depth_fraction must be in (0, 1]")
        if self.depth_from_budget and self.deadline_s is None:
            raise ValueError("depth_from_budget needs a deadline_s")

    @property
    def routes(self) -> bool:
        """True when the policy makes routing decisions (DES broker)."""
        return (
            self.deadline_s is not None
            or self.long_query_threshold_s is not None
        )

    def predicted_seconds(self, features: QueryFeatures) -> float:
        """The point prediction routing and ordering decisions use."""
        return self.predictor.predict(features)

    def is_long(self, features: QueryFeatures) -> bool:
        """Classify a query as long at admission.

        Against ``long_query_threshold_s`` when set, otherwise against
        the scoring budget the deadline affords; False when the policy
        has no reference point.
        """
        predicted = self.predicted_seconds(features)
        if self.long_query_threshold_s is not None:
            return predicted > self.long_query_threshold_s
        if self.deadline_s is not None:
            return predicted > self.deadline_s * BUDGET_HEADROOM
        return False

    def max_docs_for(
        self,
        features: QueryFeatures,
        remaining_s: float,
        num_shards: int = 1,
        floor: int = 10,
    ) -> Optional[int]:
        """Map the remaining deadline budget to a per-shard BMW depth.

        Inverts the predictor's own cost model: the budget's scoring
        share buys ``(budget·headroom − base − per_term·terms) /
        per_posting`` postings; the affordable fraction of the query's
        ``total_postings`` (floored at ``min_depth_fraction``) bounds
        the documents each shard may fully score — every scored
        document consumes at least one posting, so the posting budget
        is an upper bound on scored documents.  Returns ``None`` when
        no cap applies (budget ample, feature-free query, or the
        predictor has no per-posting cost to invert).
        """
        if not self.depth_from_budget:
            return None
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if features.total_postings == 0:
            return None
        per_posting = self.predictor.per_posting_seconds
        if per_posting <= 0:
            return None
        scoring_budget = (
            max(remaining_s, 0.0) * BUDGET_HEADROOM
            - self.predictor.base_seconds
            - self.predictor.per_term_seconds * features.term_count
        )
        affordable = max(scoring_budget, 0.0) / per_posting
        fraction = affordable / features.total_postings
        if fraction >= 1.0:
            return None
        fraction = max(fraction, self.min_depth_fraction)
        per_shard = math.ceil(fraction * features.total_postings / num_shards)
        return max(per_shard, max(floor, 1))

    def capped_demand(
        self,
        demand: np.ndarray,
        predicted: np.ndarray,
        core_speed: float,
        parallelism: int = 1,
    ) -> np.ndarray:
        """The DES mirror of the BMW depth cap, in demand units.

        A query *predicted* to exceed the affordable work —
        ``deadline · headroom · core_speed · parallelism`` reference-
        core seconds — is truncated to that affordable demand (never
        below ``min_depth_fraction`` of its true demand).  Queries
        predicted to fit run in full, so prediction error leaks some
        long queries through untruncated — exactly the native
        behaviour, where the cap is computed from the (fallible)
        prediction, not the true cost.  Element-wise over arrays.
        """
        if self.deadline_s is None:
            return demand
        if core_speed <= 0 or parallelism <= 0:
            raise ValueError("core_speed and parallelism must be positive")
        affordable = (
            self.deadline_s * BUDGET_HEADROOM * core_speed * parallelism
        )
        return np.where(
            predicted <= affordable,
            demand,
            np.minimum(
                demand,
                np.maximum(affordable, self.min_depth_fraction * demand),
            ),
        )


@dataclass
class DeadlineCappedDemand:
    """A demand model truncated by a :class:`DeadlineScheduler`.

    Wraps any :class:`~repro.workload.servicetime.ServiceDemandModel`.
    Each realization draws the base demands first (bit-identical to the
    unwrapped model under the same RNG), then a prediction-noise vector
    from the *same* stream, then applies
    :meth:`DeadlineScheduler.capped_demand` element-wise.  The served
    work fraction of the latest realization is kept on
    ``last_served_fraction`` so studies can report quality loss next
    to the latency win.
    """

    base: ServiceDemandModel
    scheduler: DeadlineScheduler
    core_speed: float
    parallelism: int = 1
    last_served_fraction: float = field(default=1.0, init=False)

    def __post_init__(self) -> None:
        if self.core_speed <= 0:
            raise ValueError("core_speed must be positive")
        if self.parallelism <= 0:
            raise ValueError("parallelism must be positive")
        if self.scheduler.deadline_s is None:
            raise ValueError("DeadlineCappedDemand needs a deadline_s")

    def demands(
        self, num_queries: int, rng: np.random.Generator
    ) -> np.ndarray:
        raw = np.asarray(self.base.demands(num_queries, rng), dtype=np.float64)
        sigma = self.scheduler.predictor.residual_log_sigma
        noise = np.exp(sigma * rng.standard_normal(raw.size))
        capped = self.scheduler.capped_demand(
            raw, raw * noise, self.core_speed, self.parallelism
        )
        total = float(raw.sum())
        self.last_served_fraction = (
            float(capped.sum()) / total if total > 0 else 1.0
        )
        return capped

    def mean_demand(self) -> float:
        """Upper bound: the unwrapped mean (truncation only reduces it)."""
        return self.base.mean_demand()
