"""The four end-to-end workloads, written against ``repro.api`` only.

Each workload is a closed loop of one client calling the public surface
a characterization/calibration script would call.  A workload owns a
*fixed population* of operations; ``--seed`` decides the order in which
the population is replayed.  The population is fixed because sampling it
anew per seed was measured to move the metrics by 5-17% (p50/p95/qps of
a 400-query sample of a 1,000-query Zipf log) — more than any bound a
regression check could use — while a change of replay order moves them by
less than the noise floor.

Importing this module needs ``repro`` on ``sys.path`` (``run.py`` adds
the checkout's ``src``); no other part of the program is imported here,
so a refactor of its internals cannot break the end-to-end path.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import api

#: Seed of the reference replay stream the native populations are cut
#: from (the same stream ``benchmarks/bench_micro_engine.py`` samples).
POPULATION_SEED = 3

#: Ops replayed untimed before the window opens (share of the op list).
WARMUP_SHARE = 0.125


@dataclass(frozen=True)
class Scale:
    """Instance size: the full benchmark or the ``--quick`` smoke."""

    name: str
    docs: int
    sim_queries: int


#: 3,000 documents (not the 6,000 of ``benchmarks/conftest.py``): two
#: cold set-ups per run cost 2 x 5 s instead of 2 x 8.6 s, which is what
#: lets a 20 s window with >= 8 rounds fit the driver's run-time cap.
FULL = Scale("full", docs=3_000, sim_queries=50)
QUICK = Scale("quick", docs=1_500, sim_queries=20)
SCALES = {scale.name: scale for scale in (FULL, QUICK)}


@dataclass(frozen=True)
class Op:
    """One operation: ``key`` names it in ``expected.json``; ``weight``
    is how many times it occurs in the stream it stands for."""

    key: str
    payload: Any
    weight: int = 1


def reference_corpus(scale: Scale) -> api.CorpusConfig:
    """The reference corpus shape of ``benchmarks/conftest.py`` at
    ``scale.docs`` documents."""
    return api.CorpusConfig(
        num_documents=scale.docs,
        vocabulary=api.VocabularyConfig(size=30_000, exponent=1.0, seed=7),
        mean_length=250,
        length_sigma=0.7,
        seed=42,
    )


QUERY_LOG = api.QueryLogConfig(num_unique_queries=1_000, seed=1234)


def native_digest(response) -> Optional[str]:
    """Digest of a top-k answer; ``None`` when it is shed or partial."""
    if getattr(response, "shed", False) or response.coverage < 1.0:
        return None
    digest = hashlib.sha256()
    for hit in response.hits:
        digest.update(struct.pack("<qd", hit.doc_id, hit.score))
    return digest.hexdigest()[:16]


def _float_digest(values: Sequence[float]) -> str:
    packed = struct.pack(f"<{len(values)}d", *values)
    return hashlib.sha256(packed).hexdigest()[:16]


@dataclass(frozen=True)
class NativeWorkload:
    """``SearchEngine.search(text, k=10)`` over the reference corpus."""

    name: str
    why: str
    num_ops: int
    engine: Dict[str, Any]
    family: str = "native"
    setup_repeats: int = 2

    def build(self, scale: Scale):
        """Corpus + index build + executor/pool start."""
        return api.SearchEngine(
            corpus=reference_corpus(scale), query_log=QUERY_LOG, **self.engine
        )

    def population(self, system, scale: Scale) -> List[Op]:
        """The first ``num_ops`` queries of the reference replay stream.

        Popularity is Zipfian, so popular queries repeat.  A repeated
        query costs the same each time (the engine keeps no result
        cache), so each distinct query is executed once per round and
        weighted by its multiplicity: the metrics are those of the
        ``num_ops``-query stream at about 60% of its round time, which
        buys the floor estimator that many more rounds.
        """
        stream = system.query_log.sample_stream(
            self.num_ops, np.random.default_rng(POPULATION_SEED)
        )
        multiplicity = Counter(query.query_id for query in stream)
        texts = {query.query_id: query.text for query in stream}
        return [
            Op(str(query_id), texts[query_id], weight)
            for query_id, weight in multiplicity.items()
        ]

    def work_per_op(self, scale: Scale) -> int:
        """One op is one query."""
        return 1

    def run(self, system, op: Op):
        return system.search(op.payload, k=10)

    digest = staticmethod(native_digest)

    def close(self, system) -> None:
        system.close()


# ----------------------------------------------------------------------
# des_sweep: heterogeneous simulation cells


_PLAIN_GRID = [
    (servers, partitions, rate)
    for servers in (1, 2, 4, 8, 16)
    for partitions in (1, 2, 4)
    for rate in (20.0, 40.0, 60.0)
]
_TAIL_GRID = [
    (servers, partitions, rate)
    for servers in (1, 2, 4, 8)
    for partitions in (1, 2)
    for rate in (20.0, 40.0)
]
_AUTOSCALE_GRID = [
    (shards, replicas, peak)
    for shards in (1, 2)
    for replicas in (1, 2)
    for peak in (60.0, 120.0)
]
_TAIL_POLICY = dict(
    hedging=api.HedgingPolicy(hedge_delay_s=0.01, deadline_s=0.5),
    hiccups=api.HiccupConfig(mean_interval=1.0, pause_duration=0.03),
    replicas_per_shard=2,
)
#: A small node so replica counts, not raw speed, carry the dynamics.
_AUTOSCALE_NODE = api.ServerSpec(
    name="autoscale-node",
    num_cores=2,
    core_speed=0.5,
    idle_power_watts=30.0,
    peak_power_watts=90.0,
)
#: The demand model of every cell (the shape ``repro.api`` defaults to).
DEMAND = api.LognormalDemand(mu=-4.6, sigma=0.8)

CELL_KINDS = ("plain", "tail", "autoscale")


@dataclass(frozen=True)
class CellSpec:
    """One simulation cell: ``params`` is ``(servers, partitions, rate)``
    for cluster cells and ``(shards, replicas, peak_qps)`` for autoscale
    cells; ``seed`` drives every random stream of the cell."""

    key: str
    kind: str
    seed: int
    num_queries: int
    params: tuple


def cell_specs(num_cells: int, scale: Scale) -> List[CellSpec]:
    """The fixed cell population: kinds alternate, grids cycle."""
    grids = dict(plain=_PLAIN_GRID, tail=_TAIL_GRID, autoscale=_AUTOSCALE_GRID)
    specs = []
    for index in range(num_cells):
        kind = CELL_KINDS[index % len(CELL_KINDS)]
        grid = grids[kind]
        specs.append(
            CellSpec(
                key=f"{kind}-{index}",
                kind=kind,
                seed=index,
                num_queries=scale.sim_queries,
                params=grid[(index // len(CELL_KINDS)) % len(grid)],
            )
        )
    return specs


def cluster_config(spec: CellSpec) -> api.ClusterConfig:
    """The simulated cluster of a plain or tail-tolerant cell."""
    servers, partitions, _ = spec.params
    policy = _TAIL_POLICY if spec.kind == "tail" else {}
    return api.ClusterConfig(
        num_servers=servers, num_partitions=partitions, **policy
    )


def autoscale_inputs(spec: CellSpec) -> tuple:
    """``(config, policy, arrivals, demands)`` of an autoscale cell.

    Realising the trace is input generation: it happens at set-up and
    the timed op replays it.
    """
    shards, replicas, peak = spec.params
    rng = np.random.default_rng(spec.seed)
    arrivals = api.DiurnalArrivals(
        base_qps=peak / 4.0, peak_qps=peak, period_s=4.0, peak_time_s=1.0
    ).arrival_times(spec.num_queries, rng)
    demands = DEMAND.demands(spec.num_queries, rng)
    config = api.AutoscaleConfig(
        spec=_AUTOSCALE_NODE,
        shards=shards,
        initial_replicas=replicas,
        max_replicas=8,
        warmup_s=0.2,
        control_interval_s=0.1,
        scale_down_cooldown_s=0.5,
    )
    return config, api.ReactivePolicy(target_utilization=0.6), arrivals, demands


def cell_summary(spec: CellSpec, result) -> List[float]:
    """The simulated statistics a cell is checked on: count, simulated
    p50/p99, mean coverage, hedges issued (cluster cells) or
    replica-hours (autoscale cells), queries shed."""
    summary = result.summary()
    if spec.kind == "autoscale":
        coverage, extra = 1.0, result.replica_hours()
    else:
        coverage, extra = result.mean_coverage(), float(result.hedges_issued)
    return [
        float(summary.count),
        summary.p50,
        summary.p99,
        coverage,
        extra,
        float(result.shed_count),
    ]


def make_cell(spec: CellSpec) -> Callable[[], List[float]]:
    """The cell as the end-to-end path runs it, through ``repro.api``."""
    if spec.kind == "autoscale":
        config, policy, arrivals, demands = autoscale_inputs(spec)

        def run() -> List[float]:
            result = api.run_autoscaled_cluster(
                config, policy, arrivals, demands, seed=spec.seed
            )
            return cell_summary(spec, result)

    else:
        model = api.ClusterModel(cluster_config(spec))
        rate = spec.params[2]

        def run() -> List[float]:
            result = model.run(
                rate_qps=rate,
                num_queries=spec.num_queries,
                demand=DEMAND,
                seed=spec.seed,
            )
            return cell_summary(spec, result)

    return run


def des_digest(output: List[float]) -> Optional[str]:
    """Digest of a cell's simulated summary; ``None`` when the cell shed
    a query or answered one partially."""
    if output[3] < 1.0 or output[5] > 0:
        return None
    return _float_digest(output)


@dataclass(frozen=True)
class DesWorkload:
    """A sweep of small simulations, one op per cell."""

    name: str
    why: str
    num_ops: int
    family: str = "des"
    #: A set-up takes about 15 ms, so many are affordable and needed.
    setup_repeats: int = 9

    def build(self, scale: Scale) -> List[Op]:
        """Construct every cell's model and realise autoscale traces."""
        return [
            Op(spec.key, make_cell(spec))
            for spec in cell_specs(self.num_ops, scale)
        ]

    def population(self, system: List[Op], scale: Scale) -> List[Op]:
        return system

    def work_per_op(self, scale: Scale) -> int:
        """One op is one cell of ``sim_queries`` simulated queries."""
        return scale.sim_queries

    def run(self, system, op: Op):
        return op.payload()

    digest = staticmethod(des_digest)

    def close(self, system) -> None:
        pass


WORKLOADS = {
    workload.name: workload
    for workload in (
        NativeWorkload(
            name="daat_1p",
            why="exhaustive traversal + vectorised BM25 on one shard: "
            "block scoring does nearly all the work",
            num_ops=400,
            engine=dict(num_partitions=1, algorithm="daat"),
        ),
        NativeWorkload(
            name="bmw_1p",
            why="Block-Max WAND on the same index: pruning, cursor "
            "bookkeeping and the top-k heap dominate, scoring does little",
            num_ops=200,
            engine=dict(num_partitions=1, algorithm="block_max_wand"),
        ),
        NativeWorkload(
            name="daat_2p_procs",
            why="2 partitions on the process backend: IPC, shared arena and "
            "gather/merge join scoring on the blocking path",
            num_ops=400,
            # One worker, not nproc: with two workers the floor needs both
            # vCPUs quiet at once, and six runs of unchanged code ranged
            # 382-555 qps; with one worker they ranged 372-383.
            engine=dict(
                num_partitions=2,
                algorithm="daat",
                execution=api.ExecutionConfig(backend="processes", workers=1),
            ),
        ),
        DesWorkload(
            name="des_sweep",
            why="200 small simulations (plain, tail-tolerant, autoscaled): "
            "no index or scoring, only the DES kernel and its brokers",
            num_ops=200,
        ),
    )
}


def replay_order(population: Sequence[Op], seed: int) -> List[Op]:
    """The population in the order ``seed`` decides."""
    order = np.random.default_rng(seed).permutation(len(population))
    return [population[i] for i in order]
