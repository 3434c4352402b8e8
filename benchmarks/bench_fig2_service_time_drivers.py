"""F2 — What drives service time: term count and postings volume.

Regenerates the two characterization breakdowns: (a) service time by
query term count, (b) service time by matched-postings-volume quartile.
The paper-shape claim: service time is governed by the postings volume
the query touches, with term count acting only through volume.
"""

import numpy as np

from repro.analysis.stats import linear_fit
from repro.core.characterization import (
    characterize_service_times,
    service_time_by_term_count,
    service_time_by_volume,
)
from repro.core.reporting import format_table


def test_fig2_service_time_drivers(benchmark, service, emit):
    characterization = benchmark.pedantic(
        characterize_service_times,
        args=(service.isn, service.query_log),
        kwargs={"num_queries": 400, "repeats": 3, "seed": 1},
        rounds=1,
        iterations=1,
    )
    measurements = characterization.measurements

    term_rows = [
        [row.term_count, row.num_queries,
         row.mean_seconds * 1000, row.p99_seconds * 1000, row.mean_volume]
        for row in service_time_by_term_count(measurements)
    ]
    volume_rows = [
        [f"[{row.low_volume}, {row.high_volume}]", row.num_queries,
         row.mean_seconds * 1000]
        for row in service_time_by_volume(measurements, num_buckets=4)
    ]
    volumes = [m.matched_volume for m in measurements]
    times = [m.service_seconds for m in measurements]
    _, slope, r_squared = linear_fit(volumes, times)

    emit(
        "fig2_service_time_drivers",
        format_table(
            ["terms", "queries", "mean_ms", "p99_ms", "mean_volume"],
            term_rows,
            title="F2a: service time by query term count",
        )
        + "\n\n"
        + format_table(
            ["volume range", "queries", "mean_ms"],
            volume_rows,
            title="F2b: service time by matched-postings-volume quartile",
        )
        + f"\n\nvolume->time linear fit: slope={slope:.3e} s/posting, "
        f"R^2={r_squared:.3f}",
    )

    # Paper-shape assertions: volume drives time.
    assert r_squared > 0.5
    quartiles = service_time_by_volume(measurements, num_buckets=4)
    assert quartiles[-1].mean_seconds > 2 * quartiles[0].mean_seconds
