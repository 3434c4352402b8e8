"""cProfile of ``Searcher.search`` over a perf-benchmark population.

Builds the perf benchmark's ``daat_1p`` or ``bmw_1p`` system (3,000
documents, one partition), takes its fixed population of distinct
queries and calls ``Searcher.search(text, k=10)`` on the shard's index
directly — parse, gather and merge are inside the noise on these
workloads, so this *is* the service time.  Prints the per-query floor
without the profiler, then the profiled call count per unit of work (a
posting for the exhaustive merge, a candidate document — scored or
dropped by its block bound — for resident Block-Max WAND) and the top
20 functions by own time.

``benchmarks/results/profile_daat_traversal.txt`` and
``profile_bmw_traversal.txt`` hold the output of

    PYTHONPATH=src python benchmarks/profile_traversal.py --workload daat_1p
    PYTHONPATH=src python benchmarks/profile_traversal.py --workload bmw_1p

at the commit before each kernel and at the commit that added it.
cProfile charges every Python-level call and no native work, so read
it for *where the calls are*, and ``benchmarks/perf/run.py`` for time.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "perf"))

import workloads  # noqa: E402  (benchmarks/perf/workloads.py)
from layers import item_floors  # noqa: E402  (benchmarks/perf/layers.py)

from repro.obs.registry import MetricsRegistry  # noqa: E402
from repro.search.executor import Searcher  # noqa: E402

FLOOR_PASSES = 7

#: workload -> (unit of work, the traversal counters that add up to it).
WORK = {
    "daat_1p": ("posting", ("daat.postings_traversed",)),
    "bmw_1p": ("candidate", ("wand.docs_scored", "wand.block_skips")),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORK), required=True)
    name = parser.parse_args().workload
    unit, counters = WORK[name]
    workload = workloads.WORKLOADS[name]
    engine = workload.build(workloads.FULL)
    try:
        texts = [
            op.payload for op in workload.population(engine, workloads.FULL)
        ]
        index = engine.partitioned.shards[0].index
        algorithm = workload.engine["algorithm"]
        searcher = Searcher(index=index, algorithm=algorithm)
        floors = item_floors(
            lambda text: searcher.search(text, k=10), texts, FLOOR_PASSES
        )
        registry = MetricsRegistry()
        counting = Searcher(index=index, algorithm=algorithm, metrics=registry)
        for text in texts:
            counting.search(text, k=10)
        profile = cProfile.Profile()
        profile.enable()
        for text in texts:
            searcher.search(text, k=10)
        profile.disable()
    finally:
        engine.close()
    work = {counter: registry.counter(counter).value for counter in counters}
    total = sum(work.values())
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
        f"{unit + 's':<28}{total} ("
        + ", ".join(f"{count} {counter}" for counter, count in work.items())
        + ")"
    )
    print(f"{'calls per ' + unit:<28}{stats.total_calls / total:.2f}")
    stats.sort_stats("tottime").print_stats(20)
    print(out.getvalue().rstrip())


if __name__ == "__main__":
    main()
