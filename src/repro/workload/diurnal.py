"""Synthetic diurnal + flash-crowd arrival traces.

Production search traffic is not stationary: request rate follows a
smooth daily cycle (roughly sinusoidal between a nightly trough and an
afternoon peak) with occasional *flash crowds* — news events that
multiply the offered load within minutes.  Capacity planning and
autoscaling studies need exactly this shape, because static
provisioning pays for the peak around the clock while the trough runs
near-idle.

:class:`DiurnalArrivals` generates such traffic as a non-homogeneous
Poisson process via Lewis–Shedler thinning of a dominating homogeneous
process, optionally modulated by the same two-state burst machinery as
:class:`~repro.workload.arrivals.MMPPArrivals` for second-scale
burstiness on top of the hour-scale cycle.  It satisfies the
:class:`~repro.workload.arrivals.ArrivalProcess` protocol, so it plugs
into every existing open-loop runner, and :meth:`realize_trace`
produces a plain timestamp array compatible with
:func:`~repro.workload.trace.save_trace` /
:class:`~repro.workload.trace.TraceArrivals`, so one generated 24-hour
trace can drive the native engine and the DES identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class FlashCrowd:
    """One flash-crowd event: a ramp up, a plateau, a decay.

    The event multiplies the diurnal rate by a factor that ramps
    linearly from 1 to ``magnitude`` over ``ramp_s``, holds for
    ``hold_s``, and decays linearly back to 1 over ``decay_s``.
    """

    start_s: float
    magnitude: float
    ramp_s: float = 60.0
    hold_s: float = 300.0
    decay_s: float = 300.0

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if self.magnitude < 1.0:
            raise ValueError("magnitude must be >= 1 (a crowd, not a dip)")
        if self.ramp_s < 0 or self.hold_s < 0 or self.decay_s < 0:
            raise ValueError("ramp/hold/decay durations must be non-negative")

    @property
    def end_s(self) -> float:
        """When the multiplier returns to 1."""
        return self.start_s + self.ramp_s + self.hold_s + self.decay_s

    def multiplier_at(self, t: np.ndarray) -> np.ndarray:
        """Vectorized rate multiplier at times ``t``."""
        t = np.asarray(t, dtype=np.float64)
        ramp_end = self.start_s + self.ramp_s
        hold_end = ramp_end + self.hold_s
        rise = (
            (t - self.start_s) / self.ramp_s
            if self.ramp_s > 0
            else np.ones_like(t)
        )
        fall = (
            (self.end_s - t) / self.decay_s
            if self.decay_s > 0
            else np.zeros_like(t)
        )
        extra = self.magnitude - 1.0
        factor = np.ones_like(t)
        factor = np.where(
            (t >= self.start_s) & (t < ramp_end), 1.0 + extra * rise, factor
        )
        factor = np.where(
            (t >= ramp_end) & (t < hold_end), self.magnitude, factor
        )
        factor = np.where(
            (t >= hold_end) & (t < self.end_s), 1.0 + extra * fall, factor
        )
        return factor


@dataclass(frozen=True)
class DiurnalArrivals:
    """Diurnal-cycle arrivals with optional flash crowds and bursts.

    The deterministic rate envelope is::

        rate(t) = base + (peak - base) * (1 + cos(2pi (t - t_peak)/T)) / 2

    — a raised cosine between ``base_qps`` (trough) and ``peak_qps``
    (peak at ``peak_time_s``).  Each :class:`FlashCrowd` multiplies
    the envelope during its window.

    With ``burst_multiplier > 1`` the thinned process is additionally
    modulated by a two-state Markov chain (exponential dwell times,
    exactly :class:`~repro.workload.arrivals.MMPPArrivals`' mechanism):
    in the burst state the instantaneous rate is multiplied, adding
    second-scale burstiness the hour-scale envelope cannot express.

    Determinism: ``arrival_times`` consumes only the caller's RNG, so
    under :class:`~repro.sim.random.RandomStreams` the same master seed
    yields the same trace regardless of any other simulation parameter
    (partition count, replica count, policies) — the common-random-
    numbers contract every sweep relies on.
    """

    base_qps: float
    peak_qps: float
    period_s: float = 86_400.0
    peak_time_s: float = 54_000.0  # 15:00 on a midnight-anchored day
    flash_crowds: Tuple[FlashCrowd, ...] = ()
    burst_multiplier: float = 1.0
    mean_burst_dwell_s: float = 2.0
    mean_base_dwell_s: float = 20.0

    def __post_init__(self) -> None:
        if self.base_qps <= 0:
            raise ValueError("base_qps must be positive")
        if self.peak_qps < self.base_qps:
            raise ValueError("peak_qps must be >= base_qps")
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.burst_multiplier < 1.0:
            raise ValueError("burst_multiplier must be >= 1")
        if self.mean_burst_dwell_s <= 0 or self.mean_base_dwell_s <= 0:
            raise ValueError("dwell times must be positive")

    # ------------------------------------------------------------------
    # The deterministic rate envelope.

    def envelope_qps(self, t) -> np.ndarray:
        """Deterministic rate envelope (diurnal × flash crowds) at ``t``.

        This is the *expected* instantaneous rate excluding burst-state
        modulation — what a capacity planner sizes against.
        """
        t = np.asarray(t, dtype=np.float64)
        phase = 2.0 * math.pi * (t - self.peak_time_s) / self.period_s
        shape = (1.0 + np.cos(phase)) / 2.0
        rate = self.base_qps + (self.peak_qps - self.base_qps) * shape
        for crowd in self.flash_crowds:
            rate = rate * crowd.multiplier_at(t)
        return rate

    def peak_envelope_qps(self, horizon_s: float | None = None) -> float:
        """Largest envelope rate over ``horizon_s`` (one period default).

        Evaluated on a dense grid — the envelope is smooth, so a
        1-second grid bounds the maximum to well under a percent.
        """
        horizon = float(horizon_s) if horizon_s is not None else self.period_s
        grid = np.arange(0.0, horizon, min(1.0, horizon / 1_000.0))
        return float(self.envelope_qps(grid).max())

    def mean_envelope_qps(self, horizon_s: float | None = None) -> float:
        """Time-averaged envelope rate over ``horizon_s``."""
        horizon = float(horizon_s) if horizon_s is not None else self.period_s
        grid = np.arange(0.0, horizon, min(1.0, horizon / 1_000.0))
        return float(self.envelope_qps(grid).mean())

    # ------------------------------------------------------------------
    # The stochastic arrival process (Lewis–Shedler thinning).
    #
    # Candidates come from a dominating homogeneous Poisson process at
    # the envelope ceiling and are accepted with probability
    # rate(t)/ceiling — generated in vectorized chunks (exponential
    # gaps, cumulative sum, one vectorized envelope evaluation and one
    # uniform draw per chunk), which is ~100x faster than an
    # arrival-at-a-time loop for day-length traces.  When burst
    # modulation is on, the two-state chain's flip times are drawn
    # *first* (the chain is independent of the candidate process), and
    # each candidate looks up its state with a searchsorted — the same
    # distribution as interleaved simulation, in vectorizable form.

    def _burst_flips(
        self, rng: np.random.Generator, until_s: float
    ) -> np.ndarray:
        """State-flip times of the burst chain covering ``[0, until_s]``.

        The chain starts in the base state; flip ``i`` toggles it, so a
        time ``t`` is in the burst state iff ``searchsorted(flips, t,
        'right')`` is odd.
        """
        flips: list = []
        clock = 0.0
        while clock <= until_s:
            # One base dwell, one burst dwell per iteration pair; drawn
            # in chunks to bound Python-level loop iterations.
            chunk = 256
            base = rng.exponential(self.mean_base_dwell_s, size=chunk)
            burst = rng.exponential(self.mean_burst_dwell_s, size=chunk)
            dwells = np.empty(2 * chunk)
            dwells[0::2] = base
            dwells[1::2] = burst
            segment = clock + np.cumsum(dwells)
            flips.append(segment)
            clock = float(segment[-1])
        return np.concatenate(flips)

    def _candidate_chunk(
        self,
        rng: np.random.Generator,
        start: float,
        ceiling: float,
        flips: np.ndarray | None,
        chunk: int,
    ) -> Tuple[np.ndarray, float]:
        """One thinned chunk: accepted arrivals after ``start``, new clock."""
        gaps = rng.exponential(1.0 / ceiling, size=chunk)
        times = start + np.cumsum(gaps)
        rates = self.envelope_qps(times)
        if flips is not None:
            in_burst = (
                np.searchsorted(flips, times, side="right") % 2
            ) == 1
            rates = np.where(in_burst, rates * self.burst_multiplier, rates)
        accepted = rng.random(chunk) < rates / ceiling
        return times[accepted], float(times[-1])

    def arrival_times(
        self, num_queries: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Return ``num_queries`` sorted arrival timestamps from t=0."""
        if num_queries < 0:
            raise ValueError("num_queries must be non-negative")
        if num_queries == 0:
            return np.empty(0, dtype=np.float64)
        span = self.period_s
        for crowd in self.flash_crowds:
            span = max(span, crowd.end_s)
        ceiling = self.peak_envelope_qps(span) * self.burst_multiplier
        mean_rate = self.mean_envelope_qps(span)
        flips: np.ndarray | None = None
        covered = 0.0
        if self.burst_multiplier > 1.0:
            covered = 2.0 * num_queries / mean_rate + 100.0
            flips = self._burst_flips(rng, covered)
        pieces = []
        produced = 0
        clock = 0.0
        while produced < num_queries:
            chunk = max(
                1024,
                int(1.2 * ceiling * (num_queries - produced) / mean_rate),
            )
            if flips is not None and clock + chunk / ceiling > covered:
                covered = clock + 2.0 * chunk / ceiling + 100.0
                flips = self._burst_flips(rng, covered)
            accepted, clock = self._candidate_chunk(
                rng, clock, ceiling, flips, chunk
            )
            pieces.append(accepted)
            produced += accepted.size
        return np.concatenate(pieces)[:num_queries]

    def realize_trace(
        self, horizon_s: float, rng: np.random.Generator
    ) -> np.ndarray:
        """All arrivals in ``[0, horizon_s)`` as a plain timestamp array.

        The result feeds :func:`~repro.workload.trace.save_trace`
        directly and round-trips through
        :class:`~repro.workload.trace.TraceArrivals`, so one generated
        trace can drive the native engine and the DES identically.
        """
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        ceiling = self.peak_envelope_qps(horizon_s) * self.burst_multiplier
        flips = (
            self._burst_flips(rng, horizon_s)
            if self.burst_multiplier > 1.0
            else None
        )
        pieces = []
        clock = 0.0
        while clock < horizon_s:
            chunk = max(1024, int(1.2 * ceiling * (horizon_s - clock)))
            chunk = min(chunk, 1_000_000)
            accepted, clock = self._candidate_chunk(
                rng, clock, ceiling, flips, chunk
            )
            pieces.append(accepted)
        times = np.concatenate(pieces)
        return times[times < horizon_s]
