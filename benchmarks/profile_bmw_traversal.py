"""cProfile of ``Searcher.search`` over the ``bmw_1p`` population.

Builds the perf benchmark's ``bmw_1p`` system (3,000 documents, one
partition, Block-Max WAND), takes its fixed population of distinct
queries and calls ``Searcher.search(text, k=10)`` on the shard's index
directly — parse, gather and merge are inside the noise on this
workload, so this *is* the service time.  Prints the per-query floor
without the profiler, then the profiled call count per loop turn and
the top 20 functions by own time.

``benchmarks/results/profile_bmw_traversal.txt`` holds the output of

    PYTHONPATH=src python benchmarks/profile_bmw_traversal.py

at the commit before the pivot kernel and at the commit that added it.
cProfile charges every Python-level call and no native work, so read
it for *where the calls are*, and ``benchmarks/perf/run.py`` for time.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "perf"))

import workloads  # noqa: E402  (benchmarks/perf/workloads.py)
from layers import item_floors  # noqa: E402  (benchmarks/perf/layers.py)

from repro.search.block_max_wand import score_block_max_wand  # noqa: E402
from repro.search.executor import Searcher  # noqa: E402
from repro.search.strategy import TraversalStats  # noqa: E402

FLOOR_PASSES = 7


def main() -> None:
    workload = workloads.WORKLOADS["bmw_1p"]
    engine = workload.build(workloads.FULL)
    try:
        texts = [
            op.payload for op in workload.population(engine, workloads.FULL)
        ]
        index = engine.service.partitioned.shards[0].index
        searcher = Searcher(index=index, algorithm="block_max_wand")
        floors = item_floors(
            lambda text: searcher.search(text, k=10), texts, FLOOR_PASSES
        )
        work = TraversalStats()
        for text in texts:
            score_block_max_wand(index, searcher.parse(text, k=10), stats=work)
        profile = cProfile.Profile()
        profile.enable()
        for text in texts:
            searcher.search(text, k=10)
        profile.disable()
    finally:
        engine.close()
    turns = work.docs_scored + work.pivot_skips + work.block_skips
    out = io.StringIO()
    stats = pstats.Stats(profile, stream=out)
    mean_ms = 1e3 * sum(floors) / len(floors)
    print(f"distinct queries            {len(texts)}")
    print(
        f"unprofiled floor            {mean_ms:.3f} ms/query "
        f"({1e3 / mean_ms:.1f} qps, min of {FLOOR_PASSES} passes per query)"
    )
    print(f"profiled function calls     {stats.total_calls}")
    print(
        f"loop turns                  {turns} ({work.docs_scored} scored, "
        f"{work.pivot_skips} pivot skips, {work.block_skips} block skips)"
    )
    print(f"calls per loop turn         {stats.total_calls / turns:.1f}")
    stats.sort_stats("tottime").print_stats(20)
    print(out.getvalue().rstrip())


if __name__ == "__main__":
    main()
