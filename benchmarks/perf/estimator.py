"""Floor-latency estimator: the statistic every end-to-end metric uses.

On the 2-core sandbox this repository is measured on, interference
arrives in 4-16 s bursts that slow the CPU by about 40% (steal is ~0, so
CPU-time clocks do not help).  A whole-round wall-clock average therefore
moves 15-40% between two runs of the same commit.  The estimator here
replays one fixed op list round after round for a fixed window and keeps,
*per operation*, the minimum latency seen over all rounds.  An op's floor
is reached as soon as one of its executions falls outside a burst, so the
floors repeat to a few percent as long as the window outlasts a burst.

Nothing in this module imports the program under test; the self-tests
drive it with a synthetic clock.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

#: A round counts as "clean" when its duration is within this share of
#: the best round's; a run with fewer than ``CLEAN_ROUNDS_WANTED`` clean
#: rounds is flagged noisy (reported, never used to drop the run).
CLEAN_ROUND_TOLERANCE = 0.05
CLEAN_ROUNDS_WANTED = 3


@dataclass
class Measurement:
    """What one measurement window produced."""

    floors_s: List[float]
    round_times_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    window_s: float = 0.0
    failures: List[str] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        """Complete passes over the op list."""
        return len(self.round_times_s)

    @property
    def complete(self) -> bool:
        """True when every op has at least one successful sample."""
        return all(math.isfinite(value) for value in self.floors_s)


def measure(
    ops: Sequence,
    run_op: Callable,
    check: Callable,
    seconds: float,
    max_rounds: Optional[int] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> Measurement:
    """Replay ``ops`` in order, round after round, for ``seconds``.

    ``run_op(op)`` is timed; ``check(op, output)`` (untimed) returns an
    error string or ``None``.  An exception or a failed check counts the
    op as failed and contributes no latency sample.  The window closes at
    the first op boundary after ``seconds`` have elapsed, but never before
    one full round, so every op has a sample; ``max_rounds`` closes it
    earlier (quick mode).
    """
    floors = [math.inf] * len(ops)
    result = Measurement(floors_s=floors)
    window_start = clock()
    deadline = window_start + seconds
    closed = False
    while not closed:
        round_start = clock()
        for position, op in enumerate(ops):
            start = clock()
            try:
                output = run_op(op)
                error = None
            except Exception as exc:  # the op failed; the run goes on
                output = None
                error = f"{type(exc).__name__}: {exc}"
            end = clock()
            result.attempted += 1
            if error is None:
                error = check(op, output)
            if error is not None:
                result.failed += 1
                if len(result.failures) < 5:
                    result.failures.append(error)
            elif end - start < floors[position]:
                floors[position] = end - start
            if (
                end >= deadline
                and result.rounds >= 1
                and position + 1 < len(ops)
            ):
                closed = True
                break
        else:
            result.round_times_s.append(clock() - round_start)
            closed = clock() >= deadline or result.rounds == max_rounds
    result.window_s = clock() - window_start
    return result


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def latency_metrics(
    floors_s: Sequence[float],
    work_per_op: float,
    weights: Optional[Sequence[int]] = None,
) -> dict:
    """``qps``/``p50_ms``/``p95_ms`` from the per-op floors.

    An op of weight ``w`` stands for ``w`` occurrences in the stream.
    ``qps`` is units of work per second at the floor: the stream's op
    count times ``work_per_op`` over its summed floor latencies.
    """
    if weights is not None:
        floors_s = [
            floor for floor, weight in zip(floors_s, weights)
            for _ in range(weight)
        ]
    return {
        "qps": len(floors_s) * work_per_op / sum(floors_s),
        "p50_ms": percentile(floors_s, 50) * 1e3,
        "p95_ms": percentile(floors_s, 95) * 1e3,
    }


def round_diagnostics(round_times_s: Sequence[float]) -> dict:
    """How noisy the window was: round count, spread, the noisy flag."""
    best = min(round_times_s)
    clean = sum(
        1 for t in round_times_s if t <= best * (1.0 + CLEAN_ROUND_TOLERANCE)
    )
    median = statistics.median(round_times_s)
    return {
        "rounds": len(round_times_s),
        "median_round_s": median,
        "round_spread": median / best,
        "clean_rounds": clean,
        "noisy": clean < CLEAN_ROUNDS_WANTED,
    }


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
