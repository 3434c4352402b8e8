"""cProfile of ``Searcher.search`` over a perf-benchmark population.

Builds the perf benchmark's ``daat_1p`` or ``bmw_1p`` system (3,000
documents, one partition), takes its fixed population of distinct
queries and calls ``Searcher.search(text, k=10)`` on the shard's index
directly — parse, gather and merge are inside the noise on these
workloads, so this *is* the service time.  Prints the per-query floor
without the profiler, then what a Block-Max WAND searcher's term-impact
memo meets on the workload's query stream (the ``num_ops`` queries the
population is cut from, in stream order, repeats included): the share
of its lookups of index terms that reach a term an earlier query of the
stream named, and the time of a whole stream pass with a new searcher
per query (no memo: every term cold), by a new searcher (cold) and by
one that has served the stream once (warm).  Then the
memo's size, and for a first pass and a warm pass of the population the
profiled call count per unit of work (a posting for the exhaustive
merge, a candidate document — scored or dropped by its block bound —
for resident Block-Max WAND) and the top 20 functions by own time.

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
import time
from pathlib import Path

import numpy as np

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


def _profiled_pass(searcher, texts, unit: str, total: int) -> str:
    """One pass of the population under cProfile: calls and the top 20."""
    profile = cProfile.Profile()
    profile.enable()
    for text in texts:
        searcher.search(text, k=10)
    profile.disable()
    out = io.StringIO()
    stats = pstats.Stats(profile, stream=out)
    out.write(f"profiled function calls     {stats.total_calls}\n")
    out.write(f"{'calls per ' + unit:<28}{stats.total_calls / total:.2f}\n")
    stats.sort_stats("tottime").print_stats(20)
    return out.getvalue().rstrip()


def _term_repetition(searcher, texts):
    """(lookups of index terms, lookups of a term already named before)."""
    seen = set()
    lookups = repeats = 0
    for text in texts:
        for term in searcher.parse(text, k=10).terms:
            if searcher.index.term_info(term) is None:
                continue
            lookups += 1
            repeats += term in seen
            seen.add(term)
    return lookups, repeats


def _stream_pass(searcher, texts) -> float:
    """Wall time (s) of one pass of ``texts``, in order."""
    start = time.perf_counter()
    for text in texts:
        searcher.search(text, k=10)
    return time.perf_counter() - start


def _unshared_pass(index, algorithm, texts) -> float:
    """Wall time (s) of one pass of ``texts``, a new searcher per query."""
    start = time.perf_counter()
    for text in texts:
        Searcher(index=index, algorithm=algorithm).search(text, k=10)
    return time.perf_counter() - start


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
        stream = [
            query.text
            for query in engine.query_log.sample_stream(
                workload.num_ops,
                np.random.default_rng(workloads.POPULATION_SEED),
            )
        ]
        index = engine.partitioned.shards[0].index
        algorithm = workload.engine["algorithm"]
        registry = MetricsRegistry()
        counting = Searcher(index=index, algorithm=algorithm, metrics=registry)
        for text in texts:
            counting.search(text, k=10)
        work = {
            counter: registry.counter(counter).value for counter in counters
        }
        total = sum(work.values())
        lookups, repeats = _term_repetition(counting, stream)
        # No memo: a new searcher per query, so no term is memoised.
        # Cold: a new searcher per pass, so every pass starts with no
        # term-impact records.  Warm: one searcher, after a first pass.
        unshared = min(
            _unshared_pass(index, algorithm, stream)
            for _ in range(FLOOR_PASSES)
        )
        cold = min(
            _stream_pass(Searcher(index=index, algorithm=algorithm), stream)
            for _ in range(FLOOR_PASSES)
        )
        served = Searcher(index=index, algorithm=algorithm)
        _stream_pass(served, stream)
        warm = min(_stream_pass(served, stream) for _ in range(FLOOR_PASSES))
        searcher = Searcher(index=index, algorithm=algorithm)
        floors = item_floors(
            lambda text: searcher.search(text, k=10), texts, FLOOR_PASSES
        )
        first_profile = _profiled_pass(
            Searcher(index=index, algorithm=algorithm), texts, unit, total
        )
        warm_profile = _profiled_pass(searcher, texts, unit, total)
    finally:
        engine.close()
    mean_ms = 1e3 * sum(floors) / len(floors)
    print(f"distinct queries            {len(texts)}")
    print(
        f"unprofiled floor            {mean_ms:.3f} ms/query "
        f"({1e3 / mean_ms:.1f} qps, min of {FLOOR_PASSES} passes per query)"
    )
    print(
        f"query stream                {len(stream)} queries, "
        f"{lookups} lookups of index terms, {lookups - repeats} distinct"
    )
    print(
        f"term repetition             {100 * repeats / lookups:.1f}% of the "
        f"lookups name a term an earlier query named"
    )
    for label, seconds in (
        ("no memo", unshared),
        ("cold", cold),
        ("warm", warm),
    ):
        ms = 1e3 * seconds / len(stream)
        print(
            f"{'stream pass, ' + label:<28}{ms:.3f} ms/query "
            f"({1e3 / ms:.1f} qps, min of {FLOOR_PASSES} passes)"
        )
    records = getattr(searcher, "_impacts", {}).values()
    if records:
        postings = sum(len(record.scores) for record in records)
        bounds = sum(len(record.bounds) for record in records)
        print(
            f"term impacts                {len(records)} records, "
            f"{postings} postings, {bounds} block bounds "
            f"({8 * (postings + bounds) / 2**20:.2f} MiB of float64)"
        )
    print(
        f"{unit + 's':<28}{total} ("
        + ", ".join(f"{count} {counter}" for counter, count in work.items())
        + ")"
    )
    print(f"\n---- profiled: first pass of a new searcher\n{first_profile}")
    print(f"\n---- profiled: after {FLOOR_PASSES} passes\n{warm_profile}")


if __name__ == "__main__":
    main()
