"""Unit tests for the simulated fork-join server."""

import pytest

from repro.cluster.results import QueryRecord
from repro.cluster.server import PartitionModelConfig, SimulatedServer
from repro.servers.spec import ServerSpec
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

IDEAL = PartitionModelConfig(
    num_partitions=1,
    partition_overhead=0.0,
    merge_base=0.0,
    merge_per_partition=0.0,
)


def make_server(sim, completions, partitions=IDEAL, cores=4, speed=1.0):
    spec = ServerSpec(
        name="test",
        num_cores=cores,
        core_speed=speed,
        idle_power_watts=0.0,
        peak_power_watts=1.0,
    )
    return SimulatedServer(
        sim,
        spec,
        partitions,
        RandomStreams(0),
        "imbalance",
        on_complete=completions.append,
    )


def submit(sim, server, arrival, demand, query_id=0):
    record = QueryRecord(query_id=query_id, client_send=arrival, demand=demand)
    sim.schedule(arrival, server.handle_arrival, record)
    return record


class TestSimulatedServerSinglePartition:
    def test_unloaded_latency_equals_demand(self):
        sim = Simulator()
        done = []
        server = make_server(sim, done)
        record = submit(sim, server, arrival=1.0, demand=0.5)
        sim.run()
        assert len(done) == 1
        assert record.merge_end == pytest.approx(1.5)
        assert record.queue_wait == pytest.approx(0.0)
        assert record.straggler_skew == pytest.approx(0.0)

    def test_speed_scales_latency(self):
        sim = Simulator()
        done = []
        server = make_server(sim, done, speed=0.5)
        record = submit(sim, server, arrival=0.0, demand=1.0)
        sim.run()
        assert record.merge_end == pytest.approx(2.0)

    def test_queueing_under_overload(self):
        sim = Simulator()
        done = []
        server = make_server(sim, done, cores=1)
        first = submit(sim, server, 0.0, 1.0, query_id=0)
        second = submit(sim, server, 0.1, 1.0, query_id=1)
        sim.run()
        assert first.queue_wait == pytest.approx(0.0)
        assert second.queue_wait == pytest.approx(0.9)
        assert second.merge_end == pytest.approx(2.0)


class TestSimulatedServerPartitioned:
    def test_partitioning_shortens_unloaded_latency(self):
        # One long query on an idle server: P=4 cuts service ~4x.
        latencies = {}
        for partitions in (1, 4):
            sim = Simulator()
            done = []
            config = PartitionModelConfig(
                num_partitions=partitions,
                partition_overhead=0.0,
                imbalance_concentration=1e6,  # nearly even split
                merge_base=0.0,
                merge_per_partition=0.0,
            )
            server = make_server(sim, done, partitions=config, cores=4)
            record = submit(sim, server, 0.0, 1.0)
            sim.run()
            latencies[partitions] = record.merge_end
        assert latencies[4] == pytest.approx(latencies[1] / 4, rel=0.05)

    def test_more_partitions_than_cores_serializes(self):
        sim = Simulator()
        done = []
        config = PartitionModelConfig(
            num_partitions=8,
            partition_overhead=0.0,
            imbalance_concentration=1e6,
            merge_base=0.0,
            merge_per_partition=0.0,
        )
        server = make_server(sim, done, partitions=config, cores=2)
        record = submit(sim, server, 0.0, 1.0)
        sim.run()
        # 8 tasks of 1/8 each on 2 cores: 4 waves -> 0.5 total.
        assert record.merge_end == pytest.approx(0.5, rel=0.05)

    def test_overhead_inflates_total_work(self):
        config = PartitionModelConfig(
            num_partitions=4, partition_overhead=0.01,
            merge_base=0.005, merge_per_partition=0.001,
        )
        assert config.total_work(1.0) == pytest.approx(1.0 + 0.04 + 0.009)

    def test_merge_runs_after_last_task(self):
        sim = Simulator()
        done = []
        config = PartitionModelConfig(
            num_partitions=2,
            partition_overhead=0.0,
            merge_base=0.1,
            merge_per_partition=0.0,
        )
        server = make_server(sim, done, partitions=config, cores=4)
        record = submit(sim, server, 0.0, 1.0)
        sim.run()
        assert record.merge_start >= record.last_task_end
        assert record.merge_end == pytest.approx(record.merge_start + 0.1)

    def test_imbalance_creates_skew(self):
        sim = Simulator()
        done = []
        config = PartitionModelConfig(
            num_partitions=4,
            partition_overhead=0.0,
            imbalance_concentration=2.0,  # very uneven
            merge_base=0.0,
            merge_per_partition=0.0,
        )
        server = make_server(sim, done, partitions=config, cores=4)
        record = submit(sim, server, 0.0, 1.0)
        sim.run()
        assert record.straggler_skew > 0.0

    def test_work_shares_sum_to_one(self):
        sim = Simulator()
        server = make_server(sim, [], partitions=PartitionModelConfig(
            num_partitions=8))
        shares = server._shares.next()
        assert len(shares) == 8
        assert sum(shares) == pytest.approx(1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PartitionModelConfig(num_partitions=0)
        with pytest.raises(ValueError):
            PartitionModelConfig(partition_overhead=-1.0)
        with pytest.raises(ValueError):
            PartitionModelConfig(imbalance_concentration=0.0)
        with pytest.raises(ValueError):
            PartitionModelConfig(merge_base=-0.1)


class TestTraversalCostModel:
    def test_default_is_exhaustive(self):
        from repro.search.strategy import TraversalStrategy

        config = PartitionModelConfig()
        assert config.traversal is TraversalStrategy.EXHAUSTIVE
        assert config.effective_demand(2.0) == 2.0

    def test_string_traversal_coerced(self):
        from repro.search.strategy import TraversalStrategy

        config = PartitionModelConfig(traversal="block-max-wand")
        assert config.traversal is TraversalStrategy.BLOCK_MAX_WAND

    def test_unknown_traversal_rejected(self):
        with pytest.raises(ValueError):
            PartitionModelConfig(traversal="magic")

    def test_pruning_factor_validated(self):
        with pytest.raises(ValueError):
            PartitionModelConfig(pruning_factor=0.0)
        with pytest.raises(ValueError):
            PartitionModelConfig(pruning_factor=1.5)

    def test_pruning_scales_demand(self):
        config = PartitionModelConfig(traversal="wand", pruning_factor=0.4)
        assert config.effective_demand(2.0) == pytest.approx(0.8)

    def test_pruning_factor_ignored_for_exhaustive(self):
        config = PartitionModelConfig(
            traversal="exhaustive", pruning_factor=0.4
        )
        assert config.effective_demand(2.0) == 2.0

    def test_total_work_scales_only_scoring_demand(self):
        exhaustive = PartitionModelConfig(
            num_partitions=4, traversal="exhaustive"
        )
        pruned = PartitionModelConfig(
            num_partitions=4, traversal="wand", pruning_factor=0.5
        )
        # Overheads and merge are posting-volume independent.
        saved = exhaustive.total_work(1.0) - pruned.total_work(1.0)
        assert saved == pytest.approx(0.5)

    def test_pruned_latency_beats_exhaustive(self):
        results = {}
        for traversal in ("exhaustive", "wand"):
            sim = Simulator()
            completions = []
            config = PartitionModelConfig(
                num_partitions=1,
                partition_overhead=0.0,
                merge_base=0.0,
                merge_per_partition=0.0,
                traversal=traversal,
                pruning_factor=0.5,
            )
            server = make_server(sim, completions, partitions=config)
            record = submit(sim, server, 0.0, 1.0)
            sim.run()
            results[traversal] = record.merge_end
        assert results["wand"] == pytest.approx(results["exhaustive"] / 2)

    def test_pruning_counters_recorded(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        sim = Simulator()
        spec = ServerSpec(
            name="test",
            num_cores=2,
            core_speed=1.0,
            idle_power_watts=0.0,
            peak_power_watts=1.0,
        )
        config = PartitionModelConfig(traversal="wand", pruning_factor=0.25)
        server = SimulatedServer(
            sim,
            spec,
            config,
            RandomStreams(0),
            "imbalance",
            metrics=registry,
        )
        submit(sim, server, 0.0, 2.0)
        sim.run()
        assert registry.counter("sim.wand.queries_pruned").value == 1
        assert registry.counter(
            "sim.wand.demand_saved_s"
        ).value == pytest.approx(1.5)
