"""Unit tests for RNG streams and network models."""

import numpy as np
import pytest

from repro.sim.network import FixedDelay, LognormalDelay, NoDelay
from repro.sim.random import RandomStreams


class TestRandomStreams:
    def test_same_name_same_stream_object(self):
        streams = RandomStreams(7)
        assert streams.stream("arrivals") is streams.stream("arrivals")

    def test_reproducible_across_instances(self):
        first = RandomStreams(7).stream("arrivals").random(5)
        second = RandomStreams(7).stream("arrivals").random(5)
        assert np.array_equal(first, second)

    def test_independent_of_request_order(self):
        streams_a = RandomStreams(7)
        streams_a.stream("demands")
        a = streams_a.stream("arrivals").random(5)
        streams_b = RandomStreams(7)
        b = streams_b.stream("arrivals").random(5)
        assert np.array_equal(a, b)

    def test_different_names_differ(self):
        streams = RandomStreams(7)
        a = streams.stream("arrivals").random(5)
        b = streams.stream("demands").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x").random(5)
        b = RandomStreams(2).stream("x").random(5)
        assert not np.array_equal(a, b)


#: Seeds across the 32-bit word boundaries numpy splits an int at.
ORACLE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200]
#: The stream names the simulation drivers open (and the empty name).
DRIVER_STREAMS = [
    "arrivals",
    "demands",
    "network",
    "faults",
    "selection",
    "server-imbalance",
    "imbalance",
    "imbalance-0",
    "imbalance-3r1",
    "imbalance-1-12-g2",
    "imbalance-little-4",
    "hiccups",
    "hiccups-2-1",
    "replica-failures-7",
    "routing",
    "prediction",
    "think",
    "",
]


class TestStreamDerivationOracle:
    """A stream is numpy's own ``SeedSequence(entropy=seed,
    spawn_key=<the name's code points>)``, however it is assembled."""

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_state_equals_numpy_spawn_key_derivation(self, seed):
        streams = RandomStreams(seed)
        for name in DRIVER_STREAMS:
            reference = np.random.default_rng(
                np.random.SeedSequence(
                    entropy=seed, spawn_key=tuple(map(ord, name))
                )
            )
            assert (
                streams.stream(name).bit_generator.state
                == reference.bit_generator.state
            ), name

    def test_numpy_integer_seed(self):
        assert (
            RandomStreams(np.uint64(2**63 + 5)).stream("x").random()
            == RandomStreams(2**63 + 5).stream("x").random()
        )

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_raises_like_numpy(self, seed):
        with pytest.raises(ValueError) as numpy_error:
            np.random.SeedSequence(entropy=seed)
        with pytest.raises(ValueError) as ours:
            RandomStreams(seed).stream("arrivals")
        assert str(ours.value) == str(numpy_error.value)


class TestNetworkModels:
    def test_no_delay(self, rng):
        assert NoDelay().delay(rng) == 0.0

    def test_fixed_delay(self, rng):
        assert FixedDelay(0.001).delay(rng) == 0.001

    def test_fixed_delay_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedDelay(-0.1)

    def test_lognormal_delay_positive(self, rng):
        model = LognormalDelay(median=0.001, sigma=0.5)
        delays = [model.delay(rng) for _ in range(500)]
        assert all(delay > 0 for delay in delays)

    def test_lognormal_delay_median(self, rng):
        model = LognormalDelay(median=0.002, sigma=0.3)
        delays = np.array([model.delay(rng) for _ in range(5_000)])
        assert np.median(delays) == pytest.approx(0.002, rel=0.1)

    def test_lognormal_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LognormalDelay(median=0.0)
        with pytest.raises(ValueError):
            LognormalDelay(median=1.0, sigma=-1.0)
