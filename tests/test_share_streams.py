"""Block-drawn Dirichlet shares equal one-at-a-time draws, bit for bit.

A server splits each query's demand over its partitions, and the broker
splits each query over its shards, by a Dirichlet draw.  Both draw a
block of rows per numpy call from a stream nothing else reads.  That is
only exact when (a) numpy's block rows equal its one-row draws — for
both of its algorithms, stick-breaking below α = 0.1 and gamma
normalisation above — and (b) every consumer holds a Generator no
other code touches.  (a) is checked here against the one-row reference;
(b) for all four simulation drivers, and by the stream-ownership lint
in ``test_one_broker_lint.py``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.cluster import server as server_module
from repro.cluster.broker import Broker
from repro.cluster.fanout import FanoutConfig, run_fanout_open_loop
from repro.cluster.hetero import (
    HeterogeneousConfig,
    run_heterogeneous_open_loop,
)
from repro.cluster.server import PartitionModelConfig, SimulatedServer
from repro.cluster.simulation import (
    ClusterConfig,
    run_closed_loop,
    run_open_loop,
)
from repro.engine.hedging import HedgingPolicy
from repro.servers.catalog import BIG_SERVER, SMALL_SERVER
from repro.servers.spec import ServerSpec
from repro.sim.autoscale import (
    AutoscaleConfig,
    StaticPolicy,
    run_autoscaled_cluster,
)
from repro.sim.engine import Simulator
from repro.sim.failures import TraceFailures
from repro.sim.random import RandomStreams
from repro.workload.arrivals import ClosedLoopSpec, PoissonArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import LognormalDemand

BLOCK = server_module._SHARE_BLOCK
#: Enough draws to cross two block boundaries.
DRAWS = 2 * BLOCK + 7
DEMAND = LognormalDemand(mu=-4.6, sigma=0.8)
NODE = ServerSpec(
    name="share-test-node",
    num_cores=2,
    core_speed=0.5,
    idle_power_watts=30.0,
    peak_power_watts=90.0,
)


def one_at_a_time(seed, alpha, count=DRAWS):
    rng = np.random.default_rng(seed)
    return [rng.dirichlet(alpha).tolist() for _ in range(count)]


@pytest.mark.parametrize("concentration", [0.05, 0.5, 5.0, 20.0])
@pytest.mark.parametrize("parts", [2, 3, 4, 16])
def test_block_rows_equal_one_row_draws(concentration, parts):
    alpha = np.full(parts, concentration)
    block = np.random.default_rng(11).dirichlet(alpha, size=BLOCK)
    assert block.tolist() == one_at_a_time(11, alpha, BLOCK)

    stream = server_module._ShareStream(
        np.random.default_rng(11), parts, concentration
    )
    drawn = [stream.next() for _ in range(DRAWS)]
    assert drawn == one_at_a_time(11, alpha)
    # Three blocks drawn; what the third did not hand out is kept.
    assert len(stream._rows) == 3 * BLOCK - DRAWS


@pytest.mark.parametrize("parts", [2, 4, 16])
def test_server_share_sequence_matches_twin_generator(parts):
    config = PartitionModelConfig(num_partitions=parts)
    server = SimulatedServer(
        Simulator(), NODE, config, imbalance_rng=np.random.default_rng(5)
    )
    drawn = [list(server._shares.next()) for _ in range(DRAWS)]
    assert drawn == one_at_a_time(
        5, np.full(parts, config.imbalance_concentration)
    )


def test_single_partition_server_draws_nothing():
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    server = SimulatedServer(
        Simulator(), NODE, PartitionModelConfig(), imbalance_rng=rng
    )
    assert [server._shares.next() for _ in range(3)] == [(1.0,)] * 3
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_broker_shard_split_matches_twin_generator(shards):
    broker = Broker(
        Simulator(),
        RandomStreams(9),
        shards,
        merge_per_server=0.0,
        concentration=60.0,
    )
    drawn = [list(broker._shard_shares.next()) for _ in range(DRAWS)]
    if shards == 1:
        assert drawn == [[1.0]] * DRAWS
        return
    twin = RandomStreams(9).stream("server-imbalance")
    assert drawn == [
        twin.dirichlet(np.full(shards, 60.0)).tolist() for _ in range(DRAWS)
    ]


# ----------------------------------------------------------------------
# Stream ownership across the drivers.


@pytest.fixture
def handouts(monkeypatch):
    """Record every server built and every stream handed out."""
    built = {"servers": [], "brokers": [], "streams": []}
    original_stream = RandomStreams.stream
    original_server_init = SimulatedServer.__init__
    original_broker_init = Broker.__init__

    def stream(self, name):
        rng = original_stream(self, name)
        built["streams"].append((name, rng))
        return rng

    def server_init(self, *args, **kwargs):
        original_server_init(self, *args, **kwargs)
        built["servers"].append(self)

    def broker_init(self, *args, **kwargs):
        original_broker_init(self, *args, **kwargs)
        built["brokers"].append(self)

    monkeypatch.setattr(RandomStreams, "stream", stream)
    monkeypatch.setattr(SimulatedServer, "__init__", server_init)
    monkeypatch.setattr(Broker, "__init__", broker_init)
    return built


def assert_sole_owners(built):
    """Every share stream is its own Generator, handed out exactly once."""
    owned = [server._shares._share_rng for server in built["servers"]] + [
        broker._shard_shares._share_rng for broker in built["brokers"]
    ]
    assert len({id(rng) for rng in owned}) == len(owned)
    handed = Counter(id(rng) for _, rng in built["streams"])
    assert all(handed[id(rng)] == 1 for rng in owned)
    return {
        name
        for name, rng in built["streams"]
        if any(rng is other for other in owned)
    }


def scenario(rate=200.0, num_queries=200):
    return WorkloadScenario(
        arrivals=PoissonArrivals(rate), demands=DEMAND, num_queries=num_queries
    )


def test_fanout_servers_own_their_streams(handouts):
    config = FanoutConfig(
        num_servers=3,
        spec=BIG_SERVER,
        partitioning=PartitionModelConfig(num_partitions=4),
        hedging=HedgingPolicy(hedge_delay_s=0.005),
        replicas_per_shard=2,
    )
    run_fanout_open_loop(config, scenario(), seed=3)
    names = assert_sole_owners(handouts)
    assert len(handouts["servers"]) == 6
    assert "server-imbalance" in names


def test_autoscaled_servers_own_their_streams_across_generations(handouts):
    config = AutoscaleConfig(
        spec=NODE,
        shards=2,
        initial_replicas=2,
        min_replicas=2,
        max_replicas=2,
        warmup_s=0.5,
        partitioning=PartitionModelConfig(num_partitions=2),
        failures=TraceFailures({0: ((2.0, 1.0),)}),
    )
    arrivals = np.arange(1, 401) / 40.0
    demands = DEMAND.demands(len(arrivals), np.random.default_rng(0))
    result = run_autoscaled_cluster(
        config, StaticPolicy(replicas=2), arrivals, demands, seed=4
    )
    assert result.replica_recoveries == 1
    names = assert_sole_owners(handouts)
    assert any(name.endswith("-g1") for name in names)
    assert len(handouts["servers"]) == 6


def test_heterogeneous_servers_own_their_streams(handouts):
    config = HeterogeneousConfig(
        big_spec=BIG_SERVER,
        num_big=2,
        little_spec=SMALL_SERVER,
        num_little=3,
        partitioning=PartitionModelConfig(num_partitions=4),
        demand_threshold=0.01,
    )
    run_heterogeneous_open_loop(config, scenario(), seed=2)
    assert_sole_owners(handouts)
    assert len(handouts["servers"]) == 5


def test_single_server_drivers_own_their_streams(handouts):
    config = ClusterConfig(
        spec=BIG_SERVER, partitioning=PartitionModelConfig(num_partitions=4)
    )
    run_open_loop(config, scenario(), seed=1)
    run_closed_loop(
        config,
        ClosedLoopSpec(num_clients=4, mean_think_time=0.01),
        DEMAND,
        num_queries=100,
        seed=1,
    )
    assert_sole_owners(handouts)
    assert len(handouts["servers"]) == 2
