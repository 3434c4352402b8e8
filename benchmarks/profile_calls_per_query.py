"""Exact Python and builtin calls per ``SearchEngine.search``, per term.

Builds the perf benchmark's ``daat_1p`` and ``bmw_1p`` systems (3,000
documents, one partition) and, over their fixed query populations,
counts the calls one ``search(text, k=10)`` makes with
``sys.setprofile``: every Python-level call (``call`` events) and every
call of a builtin or C method (``c_call`` events).  Each query is
counted twice in a row.  The second count is the *warm* one, as
``benchmarks/perf/run.py``'s rounds see it: lazy imports are done and
Block-Max WAND's term memo holds every term of the query.  The first
count, in population order, is the *first pass*: it includes the
memo's fills, the only place Block-Max WAND reads the index per term.

Prints, per algorithm and pass, the mean calls per query over the
population (each distinct query weighted by its multiplicity in the
replay stream), the warm mean per parsed-term count, and a
least-squares fit of calls = intercept + slope × terms over the 1-, 2-
and 3-term queries: the slope is the per-term share of a query's fixed
cost.

``benchmarks/results/calls_per_query.txt`` holds the output of

    PYTHONPATH=src python benchmarks/profile_calls_per_query.py

before and after the index kept its layout and a term → id map instead
of per-term objects, and before and after the gather's policy-free turn
stopped arming timers and DAAT's kernel got leaner.  The counts are
exact and do not depend on the host; they count calls, not their cost,
so read ``run.py`` for time.  ``tests/test_calls_per_query.py`` pins the
same kind of count on a small engine.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent / "perf"))

import workloads  # noqa: E402  (benchmarks/perf/workloads.py)

from repro.search.query import QueryParser  # noqa: E402

SYSTEMS = ("daat_1p", "bmw_1p")
FIT_TERMS = (1, 2, 3)


def counted_calls(search, text: str) -> tuple:
    """``(Python calls, builtin calls)`` of one ``search(text, k=10)``."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        search(text, k=10)
    finally:
        sys.setprofile(None)
    # The profiler sees its own sys.setprofile(None) as a builtin call.
    return counts["call"], counts["c_call"] - 1


def fit(terms, weights, calls):
    """``(intercept, slope)`` of calls against terms, 1-3 term queries."""
    used = np.isin(terms, FIT_TERMS)
    root = np.sqrt(weights[used])
    design = np.column_stack([np.ones(used.sum()), terms[used]]) * root[:, None]
    (intercept, slope), *_ = np.linalg.lstsq(
        design, calls[used] * root, rcond=None
    )
    return intercept, slope


def measure(name: str) -> None:
    workload = workloads.WORKLOADS[name]
    engine = workload.build(workloads.FULL)
    try:
        population = workload.population(engine, workloads.FULL)
        parser = QueryParser(engine.analyzer)
        # Per distinct query: terms, weight, first-pass and warm
        # (Python, builtin) calls.
        rows = np.array(
            [
                (
                    len(parser.parse(op.payload).terms),
                    op.weight,
                    *counted_calls(engine.search, op.payload),
                    *counted_calls(engine.search, op.payload),
                )
                for op in population
            ],
            dtype=np.float64,
        )
    finally:
        engine.close()
    terms, weights = rows[:, 0], rows[:, 1]
    first_pass = rows[:, 2] + rows[:, 3]
    warm = rows[:, 4] + rows[:, 5]

    print(f"{name}: {len(rows)} distinct queries, {int(weights.sum())} in "
          f"the stream, {len(engine.collection)} documents")
    for label, calls in (
        ("warm python", rows[:, 4]),
        ("warm builtin", rows[:, 5]),
        ("warm total", warm),
        ("first-pass total", first_pass),
    ):
        mean = np.average(calls, weights=weights)
        print(f"  mean {label + ' calls':<24}{mean:8.1f} per query")
    for count in np.unique(terms):
        at = terms == count
        mean = np.average(warm[at], weights=weights[at])
        print(f"  {int(count)} terms: {int(weights[at].sum()):4d} queries, "
              f"{mean:8.1f} warm calls")
    for label, calls in (("warm", warm), ("first pass", first_pass)):
        intercept, slope = fit(terms, weights, calls)
        print(f"  {label} fit over {FIT_TERMS} terms: {intercept:.1f} + "
              f"{slope:.1f} per term")


def main() -> None:
    for name in SYSTEMS:
        measure(name)


if __name__ == "__main__":
    main()
