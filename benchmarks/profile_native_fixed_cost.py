"""Where the fixed cost of a policy-free native query goes.

Five tables over the perf benchmark's reference corpus, built layer by
layer as ``benchmarks/perf/layers.py`` builds it (no policy; tables 1-4
use the first 30 queries of the reference replay stream, every number
the mean over those queries of the per-query floor):

1. ``IndexServingNode.execute`` against ``execute_serial`` for
   {daat, block_max_wand} x 1/2/4 partitions at 3,000 and 16,000
   documents.  ``execute_serial`` runs the shard attempts in order on
   the caller's thread; ``execute`` ran them on a thread pool up to the
   parent of the commit that added this script and runs them on the
   caller's thread since, so at the parent the two columns are "pooled"
   and "caller's thread" and afterwards they are the same path.
2. the per-frame budget of one ``execute`` on the 1-partition DAAT
   node: ``execute`` minus ``Searcher.search``, split into ``_admit``,
   ``_gather`` (less the shard attempts inside it), ``_assemble`` and
   what is left to ``execute``/``_serve`` themselves.
3. the process backend: DAAT ``execute`` on ``backend="processes"``
   for P = 1/2/4 partitions and W = 1 and P - 1 workers, beside the
   serial thread path at the same P, at 3,000 and 16,000 documents.
4. the crossover: processes at P = 2 (one worker) against threads at
   P = 1 over a ladder of corpus sizes, and the size at which the
   process node starts to win — where intra-server partitioning begins
   to pay on this host.
5. the fit: for the distinct queries of the ``daat_1p`` population (the
   first 400 queries of the reference replay stream), the per-query
   floor of ``IndexServingNode.execute`` (= ``SearchEngine.search``) on
   a 1-partition DAAT node, fitted by least squares as intercept +
   per-term cost x terms + per-posting cost x matched postings, at
   3,000, 6,000 and 16,000 documents.  The fixed share is the part of
   the floors' sum that the postings term does not explain.

``benchmarks/results/profile_native_fixed_cost.txt`` holds the output of

    PYTHONPATH=src python benchmarks/profile_native_fixed_cost.py

at a commit and at its parent (the file's header names both).  Floors,
not averages: read them for where the microseconds are, and
``benchmarks/perf/run.py`` for the measurement of record.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent / "perf"))

import workloads  # noqa: E402  (benchmarks/perf/workloads.py)
from layers import Rig, item_floors  # noqa: E402  (benchmarks/perf/layers.py)
from repro.engine.execution import ExecutionConfig  # noqa: E402
from repro.engine.isn import IndexServingNode  # noqa: E402

SIZES = (3_000, 16_000)
FIT_SIZES = (3_000, 6_000, 16_000)
FIT_ROUNDS = 10
ALGORITHMS = ("daat", "block_max_wand")
PARTITIONS = (1, 2, 4)
CROSSOVER_SIZES = (3_000, 8_000, 16_000, 24_000, 32_000)
FLOOR_ROUNDS = 15
FRAMES = ("_admit", "_gather", "_assemble")


def mean_us(floors) -> float:
    return 1e6 * sum(floors) / len(floors)


def execute_us(rig: Rig, run) -> float:
    """Mean over the probe queries of ``run(text)``'s per-query floor."""
    return mean_us(item_floors(
        lambda text: run(text, k=10), rig.probe_texts, FLOOR_ROUNDS
    ))


def process_us(rig: Rig, partitions: int, workers: int) -> float:
    """``execute_us`` of a DAAT node on ``workers`` worker processes."""
    with IndexServingNode(
        rig.partitioned(partitions),
        algorithm="daat",
        execution=ExecutionConfig(backend="processes", workers=workers),
    ) as node:
        node.execute_batch(rig.probe_texts)  # attach and warm the workers
        return execute_us(rig, node.execute)


def fit_row(rig: Rig) -> str:
    """Least squares of per-query floors on terms and matched postings."""
    node = rig.isn(1, "daat")
    stream = rig.query_log.sample_stream(
        workloads.WORKLOADS["daat_1p"].num_ops,
        np.random.default_rng(workloads.POPULATION_SEED),
    )
    texts = list(dict.fromkeys(query.text for query in stream))
    floors = np.array(item_floors(
        lambda text: node.execute(text, k=10), texts, FIT_ROUNDS
    ))
    terms = np.array([len(node.parser.parse(text).terms) for text in texts])
    postings = np.array([node.execute(text).matched_volume for text in texts])
    design = np.column_stack([np.ones(len(texts)), terms, postings])
    (intercept, per_term, per_posting), *_ = np.linalg.lstsq(
        design, floors, rcond=None
    )
    residuals = floors - design @ (intercept, per_term, per_posting)
    r2 = 1.0 - residuals.var() / floors.var()
    fixed = 1.0 - per_posting * postings.sum() / floors.sum()
    return (
        f"  {rig.scale.docs:6d} documents  {len(texts)} queries  "
        f"{1e6 * intercept:6.1f} us + {1e6 * per_term:5.1f} us/term + "
        f"{1e9 * per_posting:5.1f} ns/posting  "
        f"mean {1e6 * floors.mean():6.1f} us  fixed {fixed:5.1%}  R2 {r2:.2f}"
    )


def fanout_table(rig: Rig) -> None:
    print(f"{rig.scale.docs} documents: execute / execute_serial, us per query")
    for algorithm in ALGORITHMS:
        for partitions in PARTITIONS:
            node = rig.isn(partitions, algorithm)
            execute, serial = (
                execute_us(rig, run)
                for run in (node.execute, node.execute_serial)
            )
            print(
                f"  {algorithm:<15} P={partitions}  "
                f"{execute:9.0f} {serial:9.0f}   x{execute / serial:.2f}"
            )


def frame_budget(rig: Rig) -> None:
    """Floors of each frame of ``execute`` on the 1-partition DAAT node.

    The three frames are wrapped with a stopwatch for the length of the
    probe and every figure comes from the same executions; the two
    ``perf_counter`` reads per frame are inside ``execute + _serve``.
    """
    node = rig.isn(1, "daat")
    texts = rig.probe_texts
    elapsed = {}

    def timed(name):
        inner = getattr(node, name)

        def frame(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                elapsed[name] = time.perf_counter() - start

        return frame

    for name in FRAMES:
        setattr(node, name, timed(name))
    rows = ("execute", "search", *FRAMES, "rest")
    floors = {row: [float("inf")] * len(texts) for row in rows}
    for _ in range(FLOOR_ROUNDS):
        for position, text in enumerate(texts):
            start = time.perf_counter()
            response = node.execute(text, k=10)
            total = time.perf_counter() - start
            search = sum(response.timings.shard_seconds)
            samples = dict(elapsed, execute=total, search=search)
            samples["rest"] = total - sum(elapsed.values())
            samples["_gather"] -= search
            for row, sample in samples.items():
                floors[row][position] = min(floors[row][position], sample)
    for name in FRAMES:
        delattr(node, name)

    total, search = mean_us(floors["execute"]), mean_us(floors["search"])
    print("per-frame budget, 3,000 documents, daat, P=1, us per query")
    print(f"  execute                    {total:7.1f}")
    print(f"  Searcher.search            {search:7.1f}")
    print(f"  execute - Searcher.search  {total - search:7.1f}")
    for name in FRAMES:
        print(f"    {name:<25}{mean_us(floors[name]):7.1f}")
    print(f"    {'execute + _serve':<25}{mean_us(floors['rest']):7.1f}")


def process_table(rig: Rig) -> None:
    print(
        f"{rig.scale.docs} documents: daat, execute on processes / "
        "serial threads, us per query"
    )
    for partitions in PARTITIONS:
        serial = execute_us(rig, rig.isn(partitions, "daat").execute_serial)
        for workers in sorted({1, max(1, partitions - 1)}):
            floor = process_us(rig, partitions, workers)
            print(
                f"  P={partitions} W={workers}  "
                f"{floor:9.0f} {serial:9.0f}   x{floor / serial:.2f}"
            )


def crossover_table(rows) -> None:
    """Where processes at P = 2 (W = 1) start to beat threads at P = 1.

    ``rows`` holds ``(docs, processes_us, threads_us)``; the crossover
    is interpolated linearly in the ratio between the two ladder sizes
    that bracket 1.0.
    """
    print("processes P=2 W=1 / threads P=1, daat, us per query")
    for docs, processes, threads in rows:
        print(
            f"  {docs:6d} documents  "
            f"{processes:9.0f} {threads:9.0f}   x{processes / threads:.2f}"
        )
    ratios = [(docs, processes / threads) for docs, processes, threads in rows]
    for (low, above), (high, below) in zip(ratios, ratios[1:]):
        if above >= 1.0 > below:
            docs = low + (high - low) * (above - 1.0) / (above - below)
            print(f"  processes at P=2 win from ~{docs:,.0f} documents")
            return
    if ratios[0][1] < 1.0:
        print(f"  processes at P=2 win already at {ratios[0][0]:,} documents")
    else:
        print(f"  threads at P=1 still win at {ratios[-1][0]:,} documents")


def main() -> None:
    crossover, fit = [], []
    for docs in sorted(set(SIZES) | set(CROSSOVER_SIZES) | set(FIT_SIZES)):
        rig = Rig(workloads.Scale(str(docs), docs=docs, sim_queries=0))
        try:
            if docs in FIT_SIZES:
                fit.append(fit_row(rig))
            if docs not in CROSSOVER_SIZES:
                continue
            if docs in SIZES:
                fanout_table(rig)
                if docs == SIZES[0]:
                    frame_budget(rig)
                process_table(rig)
            crossover.append((
                docs, process_us(rig, 2, 1),
                execute_us(rig, rig.isn(1, "daat").execute),
            ))
        finally:
            rig.close()
    crossover_table(crossover)
    print(
        "fit of execute floors, daat, P=1: intercept + per term + per "
        "posting, fixed share"
    )
    print("\n".join(fit))


if __name__ == "__main__":
    main()
