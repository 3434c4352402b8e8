"""cProfile of one pass of the perf benchmark's ``des_sweep`` workload.

Builds the 200 simulation cells of ``des_sweep`` (plain, tail-tolerant
and autoscaled clusters at full scale) and runs each once — one pass of
what ``benchmarks/perf/run.py --workload des_sweep`` times per round.
Prints the unprofiled wall clock of three passes, the exact call counts
of the numpy entry points a simulated query can reach (``dirichlet``
calls and the rows they drew, ``np.any``, ``np.ones``, ``np.full``,
``np.percentile``), the events the DES kernel processed, and the top 20
functions by own time.

``benchmarks/results/profile_des_sweep.txt`` holds the output of

    PYTHONPATH=src python benchmarks/profile_des_sweep.py

before and after the block-drawn Dirichlet shares.  cProfile charges
every Python-level call and no native work, so read it for *where the
calls are*, and ``run.py`` for time.  The call counts do not depend on
the host.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import re
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "perf"))

import workloads  # noqa: E402  (benchmarks/perf/workloads.py)

from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.random import RandomStreams  # noqa: E402

UNPROFILED_RUNS = 3
#: (label, filename, function name) of each Python-level call counted
#: from the profile.
COUNTED = (
    ("np.any", "fromnumeric.py", "any"),
    ("np.ones", "numeric.py", "ones"),
    ("np.full", "numeric.py", "full"),
    ("np.percentile", "_function_base_impl.py", "percentile"),
    ("CoreBank.submit", "resources.py", "submit"),
    ("Simulator.schedule", "engine.py", "schedule"),
)


class _CountingGenerator:
    """A named stream that counts its ``dirichlet`` calls and rows
    (``Generator`` is a native type: its methods cannot be profiled or
    patched, only wrapped)."""

    def __init__(self, rng, counts):
        self._rng = rng
        self._counts = counts

    def dirichlet(self, alpha, size=None):
        rows = self._rng.dirichlet(alpha, size)
        self._counts["dirichlet calls"] += 1
        self._counts["dirichlet rows"] += 1 if size is None else len(rows)
        return rows

    def __getattr__(self, name):
        return getattr(self._rng, name)


def counted_pass(cells) -> dict:
    """Run every cell once with counting streams and kernel; return the
    ``dirichlet`` calls, the rows they drew and the DES events."""
    counts = {"dirichlet calls": 0, "dirichlet rows": 0, "DES events": 0}
    original_stream = RandomStreams.stream
    original_run = Simulator.run

    def counting_stream(self, name):
        return _CountingGenerator(original_stream(self, name), counts)

    def counting_run(self, *args, **kwargs):
        try:
            return original_run(self, *args, **kwargs)
        finally:
            counts["DES events"] += self.events_processed

    RandomStreams.stream = counting_stream
    Simulator.run = counting_run
    try:
        for op in cells:
            op.payload()
    finally:
        RandomStreams.stream = original_stream
        Simulator.run = original_run
    return counts


def main() -> None:
    workload = workloads.WORKLOADS["des_sweep"]
    cells = workload.build(workloads.FULL)
    walls = []
    for _ in range(UNPROFILED_RUNS):
        started = time.perf_counter()
        for op in cells:
            op.payload()
        walls.append(time.perf_counter() - started)

    counts = counted_pass(cells)
    profile = cProfile.Profile()
    profile.enable()
    for op in cells:
        op.payload()
    profile.disable()

    out = io.StringIO()
    stats = pstats.Stats(profile, stream=out)
    simulated = len(cells) * workloads.FULL.sim_queries
    print(f"cells                       {len(cells)} ({simulated} simulated queries)")
    print(
        "unprofiled pass             "
        + ", ".join(f"{wall:.2f}" for wall in walls)
        + f" s (min {min(walls):.2f} s = "
        f"{1e6 * min(walls) / simulated:.0f} us per simulated query)"
    )
    for label, count in counts.items():
        print(f"{label:<28}{count}")
    print(f"profiled function calls     {stats.total_calls}")
    calls_by = {
        (Path(filename).name, name): calls
        for (filename, _, name), (_, calls, _, _, _) in stats.stats.items()
    }
    for label, filename, name in COUNTED:
        print(f"{label + ' calls':<28}{calls_by.get((filename, name), 0)}")
    stats.sort_stats("tottime").print_stats(20)
    listing = out.getvalue().rstrip().replace(str(Path.cwd()) + "/", "")
    print(re.sub(r"\S*/site-packages/", "", listing))


if __name__ == "__main__":
    main()
