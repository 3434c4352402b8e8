"""Client drivers for the native engine.

Two measurement modes:

- :func:`replay_serial` — replay a query stream one query at a time on
  a serial ISN pass.  No queueing, no thread contention: the measured
  time *is* the query's service demand, which is what characterization
  (service-time distributions) and simulator calibration need.  Load
  studies (the closed-loop Faban-style client population among them)
  run on the discrete-event simulator this calibrates.
- :class:`OpenLoopDriver` — Poisson arrivals against a single FCFS
  worker: the measured native M/G/1 the capacity model's latency-vs-
  load predictions are validated against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.corpus.querylog import Query, QueryLog
from repro.engine.isn import IndexServingNode


@dataclass(frozen=True)
class QueryMeasurement:
    """One replayed query and its measured cost."""

    query_id: int
    text: str
    num_raw_terms: int
    service_seconds: float
    matched_volume: int
    num_hits: int


def replay_serial(
    isn: IndexServingNode,
    queries: Sequence[Query],
    k: int = 10,
    repeats: int = 1,
    warmup: int = 5,
) -> List[QueryMeasurement]:
    """Measure each query's serial service time on ``isn``.

    Each query is executed ``repeats`` times and the *median* wall time
    is kept (medians resist scheduler noise).  ``warmup`` initial
    executions of the first query warm caches before any measurement.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    if not queries:
        return []
    for _ in range(max(0, warmup)):
        isn.execute_serial(queries[0].text, k=k)

    measurements: List[QueryMeasurement] = []
    for query in queries:
        times = []
        response = None
        for _ in range(repeats):
            response = isn.execute_serial(query.text, k=k)
            times.append(response.latency_s)
        measurements.append(
            QueryMeasurement(
                query_id=query.query_id,
                text=query.text,
                num_raw_terms=len(query.raw_terms),
                service_seconds=float(np.median(times)),
                matched_volume=response.matched_volume,
                num_hits=len(response.hits),
            )
        )
    return measurements


@dataclass
class OpenLoopResult:
    """Outcome of one open-loop (Poisson) native run.

    ``latencies[i] = waits[i] + service_seconds[i]`` — queueing delay
    behind earlier arrivals plus the query's own execution.
    """

    latencies: np.ndarray
    waits: np.ndarray
    service_seconds: np.ndarray
    offered_qps: float
    mode: str

    @property
    def utilization(self) -> float:
        """Offered load as a fraction of the single worker's capacity."""
        return self.offered_qps * float(self.service_seconds.mean())


class OpenLoopDriver:
    """Open-loop Poisson load against one FCFS native worker (M/G/1).

    Two dispatch modes:

    - ``"replay"`` (default) — every query executes natively and its
      wall time is measured, but queueing is derived afterwards by the
      Lindley recursion ``W[i] = max(0, W[i-1] + S[i-1] - gap[i])``
      over the sampled Poisson arrival sequence.  This is *exactly*
      FCFS M/G/1 over the measured service times, with no scheduler or
      GIL noise in the waits — the right mode for validating a
      queueing model on a shared or single-core box.
    - ``"realtime"`` — arrivals are dispatched at wall-clock Poisson
      times into a single worker thread and latency is measured from
      the *intended* arrival instant.  Faithful end-to-end, but the
      generator thread contends with the worker for the GIL, so waits
      absorb scheduler noise; prefer it only on an idle multi-core box.
    """

    def __init__(
        self,
        isn: IndexServingNode,
        query_log: QueryLog,
        k: int = 10,
        seed: int = 0,
    ):
        self.isn = isn
        self.query_log = query_log
        self.k = k
        self.seed = seed

    def run(
        self,
        rate_qps: float,
        num_queries: int,
        mode: str = "replay",
        repeats: int = 1,
    ) -> OpenLoopResult:
        """``repeats`` (replay mode only): median-of-N service timing —
        medians resist scheduler noise, the same reason
        :func:`replay_serial` offers it."""
        if rate_qps <= 0:
            raise ValueError("rate_qps must be positive")
        if num_queries <= 0:
            raise ValueError("num_queries must be positive")
        if mode not in ("replay", "realtime"):
            raise ValueError(f"unknown mode {mode!r}")
        rng = np.random.default_rng(self.seed)
        queries = self.query_log.sample_stream(num_queries, rng)
        arrivals = np.cumsum(rng.exponential(1.0 / rate_qps, num_queries))
        if mode == "replay":
            return self._run_replay(queries, arrivals, rate_qps, repeats)
        return self._run_realtime(queries, arrivals, rate_qps)

    def _run_replay(
        self, queries, arrivals, rate_qps, repeats
    ) -> OpenLoopResult:
        measurements = replay_serial(
            self.isn, queries, k=self.k, repeats=repeats, warmup=5
        )
        service = np.asarray(
            [m.service_seconds for m in measurements], dtype=np.float64
        )
        waits = np.zeros_like(service)
        for i in range(1, len(service)):
            gap = arrivals[i] - arrivals[i - 1]
            waits[i] = max(0.0, waits[i - 1] + service[i - 1] - gap)
        return OpenLoopResult(
            latencies=waits + service,
            waits=waits,
            service_seconds=service,
            offered_qps=rate_qps,
            mode="replay",
        )

    def _run_realtime(self, queries, arrivals, rate_qps) -> OpenLoopResult:
        import concurrent.futures

        # Warm caches before the clock starts.
        for _ in range(5):
            self.isn.execute_serial(queries[0].text, k=self.k)

        finish_offsets = np.zeros(len(queries), dtype=np.float64)
        service = np.zeros(len(queries), dtype=np.float64)

        def execute(index: int, query_text: str, epoch: float) -> None:
            response = self.isn.execute_serial(query_text, k=self.k)
            finish_offsets[index] = time.perf_counter() - epoch
            service[index] = response.latency_s

        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            epoch = time.perf_counter()
            for index, (query, offset) in enumerate(zip(queries, arrivals)):
                # Hybrid wait: coarse sleeps release the GIL to the
                # worker; the final stretch polls at sub-ms granularity.
                while True:
                    remaining = offset - (time.perf_counter() - epoch)
                    if remaining <= 0:
                        break
                    time.sleep(min(remaining, 0.0005))
                pool.submit(execute, index, query.text, epoch)
        latencies = finish_offsets - arrivals
        return OpenLoopResult(
            latencies=latencies,
            waits=np.maximum(latencies - service, 0.0),
            service_seconds=service,
            offered_qps=rate_qps,
            mode="realtime",
        )
