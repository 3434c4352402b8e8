"""Compare two sets of run records (the A/A and parent/change tool).

    python3 benchmarks/perf/compare.py OUT_A [OUT_B]

Each argument is a directory of ``run_*.json`` records written by
``run.py``.  Per (workload, end-to-end metric) it prints each side's
median and quartiles, the difference as a ratio with its base, and a
verdict against the metric's bound:

- ``regression``  B's median is worse than A's by more than the bound;
- ``unresolved``  the run-to-run spread of either side exceeds the bound
  (unless every run of B reads better than every run of A);
- ``ok``          otherwise.

With one directory it prints that set's medians and spreads only.  Exits
1 on a regression, a failed op or an incorrect run.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from catalogue import END_TO_END  # noqa: E402
from estimator import quartile_spread  # noqa: E402


def load(directory) -> dict:
    """``{"values": {workload: {metric: [values]}}, "bad": [records of
    runs that failed an op or a check]}``."""
    values = defaultdict(lambda: defaultdict(list))
    bad = []
    for path in sorted(Path(directory).glob("run_*.json")):
        with open(path) as handle:
            record = json.load(handle)
        if not record["correct"] or record["failed"]:
            bad.append(path.name)
        for name, entry in record["metrics"].items():
            if entry["value"] is not None:
                values[record["workload"]][name].append(entry["value"])
    return {"values": values, "bad": bad}


def describe(samples) -> str:
    if len(samples) < 2:
        return f"{samples[0]:.5g} (n=1)"
    first, median, third = statistics.quantiles(samples, n=4)
    return f"{median:.5g} [{first:.5g}, {third:.5g}] n={len(samples)}"


def worsening(metric_better: str, base: float, other: float) -> float:
    """Share of ``base`` by which ``other`` is worse (negative: better)."""
    if metric_better == "lower":
        return (other - base) / base
    return (base - other) / base


def all_better(metric_better: str, base, other) -> bool:
    if metric_better == "lower":
        return max(other) < min(base)
    return min(other) > max(base)


def compare(side_a: dict, side_b: dict | None) -> int:
    status = 0
    for workload in sorted(side_a["values"]):
        print(f"== {workload}")
        for name, unit, better, bound in END_TO_END:
            a = side_a["values"][workload].get(name)
            if not a:
                continue
            spread_a = quartile_spread(a)
            line = f"  {name:12s} {unit:4s} A {describe(a)} spread {spread_a:.1%}"
            if side_b is not None:
                b = side_b["values"].get(workload, {}).get(name)
                if not b:
                    print(line + "  B missing")
                    status = 1
                    continue
                spread_b = quartile_spread(b)
                base, other = statistics.median(a), statistics.median(b)
                worse = worsening(better, base, other)
                if worse > bound:
                    verdict = "regression"
                    status = 1
                elif max(spread_a, spread_b) > bound and not all_better(
                    better, a, b
                ):
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                line += (
                    f" | B {describe(b)} spread {spread_b:.1%}"
                    f" | B/A {other / base:.4f} (base {base:.5g} {unit})"
                    f" worse by {worse:+.1%} of bound {bound:.0%}: {verdict}"
                )
            print(line)
    for label, side in (("A", side_a), ("B", side_b)):
        if side is not None and side["bad"]:
            print(f"{label}: failed ops or checks in {side['bad']}")
            status = 1
    return status


def main(argv) -> int:
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    sides = [load(directory) for directory in argv]
    return compare(sides[0], sides[1] if len(sides) == 2 else None)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
