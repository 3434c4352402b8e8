"""Shared fixtures for the table/figure regeneration benchmarks.

The expensive artifacts — the native benchmark instance (corpus +
partitioned index + ISN) and the calibration run that bridges native
measurements into the simulator — are built once per pytest session and
shared by every bench.  pytest is the only runner and ``emit`` the only
writer: a bench hands ``emit`` its rendered table (and, for the perf
trajectory, a ``data`` dict), and the files are written when the test
has passed, so one ``pytest benchmarks --ignore=benchmarks/perf`` run
refreshes exactly the results that EXPERIMENTS.md may quote.
"""

from __future__ import annotations

import json
import platform
import subprocess
from pathlib import Path

import pytest

from repro.core.calibration import (
    calibrate_isn,
    cost_model_from_calibration,
    demand_model_from_calibration,
)
from repro.corpus.generator import CorpusConfig
from repro.corpus.querylog import QueryLogConfig
from repro.corpus.vocabulary import VocabularyConfig
from repro.engine.service import SearchService, SearchServiceConfig

#: The reference benchmark instance every bench measures.
BENCH_CORPUS = CorpusConfig(
    num_documents=6_000,
    vocabulary=VocabularyConfig(size=30_000, exponent=1.0, seed=7),
    mean_length=250,
    length_sigma=0.7,
    seed=42,
)
BENCH_QUERY_LOG = QueryLogConfig(num_unique_queries=1_000, seed=1234)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Simulated benches whose shape gates hold on the scalar-loop calibration
#: (6 ms mean service, fixed cost 3% of it) and not on the array merge's
#: (0.37 ms, fixed cost 55%): ``cost_model_from_calibration`` sets the
#: per-partition overhead to that fixed cost, and delays and load points
#: in these files are absolute.  Expected failures until the reference
#: instance is re-anchored (EXPERIMENTS.md, "Calibration after the array
#: merge"); their committed results are the scalar-loop runs and say so
#: on their first line.  Delete an entry when its bench passes again.
OUT_OF_REGIME = {
    "test_fig4_partitioning_tail": "p99 at 4 partitions is above the unpartitioned one (2.5 vs 1.2 ms)",
    "test_fig15_gc_pauses": "clean p99 at 8 partitions is not below 0.6x the unpartitioned one",
    "test_fig18_bursty_traffic": "partitioning no longer cuts the p99 under bursts",
    "test_fig16_replication": "at 8 partitions per server the best hedge duplicates 34-100% of queries by calibration run (gate < 35%)",
    "test_fig12_cluster_fanout": "0.3 ms of network against 0.6 ms of work: 8-way fan-out does not halve the median",
    "test_fig21_shard_skew": "at 0.35 of the 8-partition capacity the p99 is flat in the skew (1.20-1.21 ms, gate +10%) and above the unpartitioned 0.9 ms: the per-partition fixed cost sets the tail, not the straggler",
    "test_fig22_mixed_fleet": "the mixed fleet cuts the all-little p99 by 36% (gate 40%): the routed tail is half as long",
    "test_fig6_lowpower_crossover": "the little server meets the QoS bar at no partition count (marginal before)",
    "test_fig7_energy": "the little server meets the QoS bar at no partition count (marginal before)",
    "test_table3_provisioning": "the little server meets the QoS bar at no partition count (marginal before)",
}


def pytest_addoption(parser):
    """Execution-backend selection for the native side of the benches.

    ``--bench-backend=processes`` runs the native engine (and therefore
    the calibration every DES bench derives its cost model from) on the
    GIL-free process backend — the configuration the fig5/parity
    studies need on multi-core runners.  Defaults stay on threads so a
    plain run matches historical results on any machine.
    """
    parser.addoption(
        "--bench-backend",
        choices=("threads", "processes"),
        default="threads",
        help="native execution backend for the benchmark instance",
    )
    parser.addoption(
        "--bench-workers",
        type=int,
        default=None,
        help="worker count for the chosen backend (default: auto)",
    )
    parser.addoption(
        "--quick",
        action="store_true",
        help="smoke sizes for the benches that have one; writes no result",
    )


def pytest_collection_modifyitems(items):
    for item in items:
        reason = OUT_OF_REGIME.get(item.name)
        if reason is not None:
            # Only a failed gate is expected: a crash still fails.
            item.add_marker(
                pytest.mark.xfail(
                    reason=f"gate set on the scalar-loop calibration: {reason}",
                    raises=AssertionError,
                    strict=False,
                )
            )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Hand the test body's report to ``emit``'s teardown."""
    outcome = yield
    if call.when == "call":
        item.bench_report = outcome.get_result()


@pytest.fixture(scope="session")
def quick(request):
    """True under ``--quick``: a bench with a smoke size runs it."""
    return request.config.getoption("--quick")


@pytest.fixture(scope="session")
def bench_backend(request):
    return request.config.getoption("--bench-backend")


@pytest.fixture(scope="session")
def service(request, bench_backend):
    """The native benchmark instance (single partition)."""
    from repro.engine.execution import ExecutionConfig

    config = SearchServiceConfig(
        corpus=BENCH_CORPUS,
        query_log=BENCH_QUERY_LOG,
        num_partitions=1,
        execution=ExecutionConfig(
            backend=bench_backend,
            workers=request.config.getoption("--bench-workers"),
        ),
    )
    instance = SearchService(config)
    yield instance
    instance.close()


@pytest.fixture(scope="session")
def calibration(service):
    """Affine work model fitted to the native engine."""
    return calibrate_isn(
        service.isn, service.query_log, num_queries=150, repeats=3, seed=0
    )


@pytest.fixture(scope="session")
def demand_model(service, calibration):
    """Calibrated per-query demand model for the simulator."""
    return demand_model_from_calibration(
        calibration, service.partitioned[0].index, service.query_log
    )


@pytest.fixture(scope="session")
def cost_model(calibration):
    """Calibrated partitioning cost model for the simulator."""
    return cost_model_from_calibration(calibration)


@pytest.fixture(scope="session")
def positional_index(service):
    """Positional index over the reference corpus (for phrase/snippet
    characterization)."""
    from repro.index.positional import PositionalIndexBuilder

    return PositionalIndexBuilder(service.analyzer).build(service.collection)


@pytest.fixture(scope="session")
def bench_root():
    """Where results land: ``<root>/benchmarks/results/`` and
    ``<root>/BENCH_<fig>.json``."""
    return REPO_ROOT


@pytest.fixture()
def emit(bench_root, quick, request):
    """Print a rendered table now; write it once the test has passed.

    ``emit(name, text)`` stands for ``benchmarks/results/<name>.txt``;
    with ``data=`` also for the machine-readable ``BENCH_<fig>.json``
    (``<fig>`` is the leading ``figN``/``tableN`` token of ``name``),
    the bench's dict wrapped in one envelope.  Both are written at
    teardown, and only by a full-size run whose test passed outright:
    a failing, ``xfail`` or ``--quick`` run leaves the tracked files
    as they were.
    """
    emitted = []

    def _emit(name: str, text: str, data: dict | None = None) -> None:
        print(f"\n{text}")
        emitted.append((name, text, data))

    yield _emit

    # No report: set-up failed.  ``wasxfail`` on a passed one: XPASS.
    report = getattr(request.node, "bench_report", None)
    passed = report and report.passed and not hasattr(report, "wasxfail")
    if quick or not passed:
        return
    results = bench_root / "benchmarks" / "results"
    results.mkdir(parents=True, exist_ok=True)
    for name, text, data in emitted:
        (results / f"{name}.txt").write_text(text + "\n")
        if data is None:
            continue
        figure = name.split("_")[0]
        envelope = {
            "figure": figure,
            "quick": quick,
            "seed": data.get("seed"),
            "git_sha": _git_sha(),
            "host": platform.node(),
            "python": platform.python_version(),
            "wall_s": report.duration,
            "data": data,
        }
        (bench_root / f"BENCH_{figure}.json").write_text(
            json.dumps(envelope, indent=2, sort_keys=True) + "\n"
        )


def _git_sha() -> str | None:
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    return done.stdout.strip() or None
