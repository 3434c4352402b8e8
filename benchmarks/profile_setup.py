"""cProfile of one ``SearchEngine(...)`` set-up of the perf benchmark.

Builds the perf benchmark's ``daat_1p`` system (3,000 documents, one
partition) — vocabulary, corpus generation, index build, executor start:
what ``benchmarks/perf/run.py`` reports as ``setup_s``.  Prints the
unprofiled wall clock of three set-ups, then the profiled share of each
phase and the top 20 functions by own time.

``benchmarks/results/profile_index_build.txt`` holds the output of

    PYTHONPATH=src python benchmarks/profile_setup.py

at the commit before the array index build and at the commit that added
it, and before and after the block-drawn corpus with the index built
from the generator's token ids.  cProfile charges every Python-level
call and no native work, so read it for *where the calls are*, and
``run.py`` for time.  A phase whose function the checkout does not
have is left out, so one script profiles both sides of that change.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "perf"))

import workloads  # noqa: E402  (benchmarks/perf/workloads.py)

#: phase -> the function whose cumulative time is the phase.
PHASES = {
    "vocabulary": ("vocabulary.py", "_generate_words"),
    "corpus generation": ("generator.py", "generate"),
    "  of which body draws": ("generator.py", "body"),
    "  (before: _make_body)": ("generator.py", "_make_body"),
    "index build": ("builder.py", "build"),
    "  of which pass 1": ("builder.py", "term_occurrences"),
    "  of which analysis": ("analyzer.py", "normalize"),
}
UNPROFILED_RUNS = 3


def main() -> None:
    workload = workloads.WORKLOADS["daat_1p"]
    walls = []
    for _ in range(UNPROFILED_RUNS):
        started = time.perf_counter()
        engine = workload.build(workloads.FULL)
        walls.append(time.perf_counter() - started)
        engine.close()
    profile = cProfile.Profile()
    profile.enable()
    engine = workload.build(workloads.FULL)
    profile.disable()
    documents = len(engine.collection)
    engine.close()

    out = io.StringIO()
    stats = pstats.Stats(profile, stream=out)
    print(f"documents                   {documents}")
    print(
        "unprofiled set-up           "
        + ", ".join(f"{wall:.2f}" for wall in walls)
        + f" s (min {min(walls):.2f} s = "
        f"{1e3 * min(walls) / documents:.2f} s per 1,000 documents)"
    )
    print(f"profiled function calls     {stats.total_calls}")
    by_name = {
        (Path(filename).name, name): (calls, cumulative)
        for (filename, _, name), (_, calls, _, cumulative, _) in stats.stats.items()
    }
    for phase, key in PHASES.items():
        if key in by_name:
            calls, cumulative = by_name[key]
            print(f"{phase:<28}{cumulative:.2f} s profiled, {calls} calls")
    stem_calls = by_name.get(("stemmer.py", "stem"), (0, 0.0))[0]
    print(f"{'stem() calls':<28}{stem_calls}")
    stats.sort_stats("tottime").print_stats(20)
    print(out.getvalue().rstrip().replace(str(Path.cwd()) + "/", ""))


if __name__ == "__main__":
    main()
