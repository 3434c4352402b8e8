"""F5 — QoS-bounded maximum throughput vs. partition count.

Regenerates the throughput side of the partitioning study: the largest
sustainable QPS whose p99 stays under the QoS target, per partition
count.  Paper shape: moderate partitioning buys throughput headroom
under a tail-latency SLA (the tail shrinks, so the QoS binds later),
but the per-partition work inflation eventually claws it back.

The native instance behind the calibration honors ``--bench-backend``:
``pytest benchmarks/bench_fig5_partitioning_throughput.py
--bench-backend=processes`` calibrates against the GIL-free process
backend, the configuration whose intra-node scaling the DES parity test
(``tests/test_fanout_hedging.py``) checks on multi-core runners.
"""

import os
import time

import numpy as np
import pytest

from repro.core.capacity import capacity_vs_partitions
from repro.core.reporting import format_series
from repro.engine.execution import ExecutionConfig
from repro.engine.isn import IndexServingNode
from repro.servers.catalog import BIG_SERVER

PARTITIONS = [1, 2, 4, 8, 16]
SEED = 0


def test_fig5_partitioning_throughput(
    benchmark, demand_model, cost_model, emit, bench_backend
):
    # QoS: 2.5x the mean unloaded service time — a tight tail target
    # that an unpartitioned server can only meet at low load.
    qos = 2.5 * demand_model.mean_demand()

    points = benchmark.pedantic(
        capacity_vs_partitions,
        args=(BIG_SERVER, demand_model, PARTITIONS, qos),
        kwargs={
            "cost_model": cost_model,
            "num_queries": 5_000,
            "tolerance_qps": 0.02
            * BIG_SERVER.compute_capacity
            / demand_model.mean_demand(),
            "seed": SEED,
        },
        rounds=1,
        iterations=1,
    )

    emit(
        "fig5_partitioning_throughput",
        format_series(
            f"F5: max throughput under p99 <= {qos * 1000:.1f} ms "
            f"(backend={bench_backend})",
            "partitions",
            PARTITIONS,
            [
                ("max_qps", [p.max_qps for p in points]),
                ("p99_at_max_ms", [p.p99_at_max * 1000 for p in points]),
                ("util_at_max", [p.utilization_at_max for p in points]),
            ],
        ),
        data={
            "figure": "fig5",
            "backend": bench_backend,
            "qos_ms": qos * 1000,
            "seed": SEED,
            "points": [
                {
                    "partitions": p.num_partitions,
                    "max_qps": p.max_qps,
                    "p99_at_max_ms": p.p99_at_max * 1000,
                    "util_at_max": p.utilization_at_max,
                }
                for p in points
            ],
        },
    )

    by_partitions = {p.num_partitions: p for p in points}
    # Partitioning must buy QoS-bounded throughput over P=1...
    assert by_partitions[4].max_qps > by_partitions[1].max_qps
    # ...and every reported point respects the QoS.
    for point in points:
        if point.max_qps > 0:
            assert point.p99_at_max <= qos


def test_fig5_process_backend_scaling(service):
    """The process backend must actually escape the GIL.

    Batched execution over the reference instance is bit-identical
    (doc ids *and* float scores) between the thread backend and the
    process backend at every worker count, and on a machine with the
    cores to show it 4 workers deliver at least 2x the 1-worker
    throughput.
    """
    rng = np.random.default_rng(3)
    texts = [q.text for q in service.query_log.sample_stream(50, rng)]

    def run(execution):
        with IndexServingNode(
            service.partitioned, execution=execution
        ) as node:
            node.execute_batch(texts[:8])  # warm pools/workers
            start = time.perf_counter()
            responses = node.execute_batch(texts)
            elapsed = time.perf_counter() - start
        pairs = [
            [(hit.doc_id, hit.score) for hit in response.hits]
            for response in responses
        ]
        return len(texts) / elapsed, pairs

    _, expected = run(ExecutionConfig(backend="threads"))
    throughput = {}
    for workers in (1, 4):
        throughput[workers], pairs = run(
            ExecutionConfig(backend="processes", workers=workers)
        )
        assert pairs == expected, f"workers={workers} diverged"

    cores = len(os.sched_getaffinity(0))
    if cores < 4:
        pytest.skip(f"scaling gate needs 4 cores, have {cores}")
    assert throughput[4] >= 2.0 * throughput[1], throughput
