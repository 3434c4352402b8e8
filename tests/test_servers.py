"""Unit tests for server specs, catalog, and power model."""

import pytest

from repro.servers.catalog import BIG_SERVER, SERVER_CATALOG, SMALL_SERVER
from repro.servers.power import PowerModel
from repro.servers.spec import ServerSpec


class TestServerSpec:
    def test_compute_capacity(self):
        spec = ServerSpec("s", num_cores=4, core_speed=0.5,
                          idle_power_watts=10, peak_power_watts=20)
        assert spec.compute_capacity == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerSpec("s", 0, 1.0, 10, 20)
        with pytest.raises(ValueError):
            ServerSpec("s", 1, 0.0, 10, 20)
        with pytest.raises(ValueError):
            ServerSpec("s", 1, 1.0, -1, 20)
        with pytest.raises(ValueError):
            ServerSpec("s", 1, 1.0, 30, 20)

    def test_dvfs_scaling(self):
        scaled = BIG_SERVER.scaled(0.5)
        assert scaled.core_speed == pytest.approx(BIG_SERVER.core_speed * 0.5)
        assert scaled.idle_power_watts == BIG_SERVER.idle_power_watts
        # Cubic dynamic-power rule.
        dynamic = BIG_SERVER.peak_power_watts - BIG_SERVER.idle_power_watts
        assert scaled.peak_power_watts == pytest.approx(
            BIG_SERVER.idle_power_watts + dynamic * 0.125
        )

    def test_dvfs_invalid(self):
        with pytest.raises(ValueError):
            BIG_SERVER.scaled(0.0)

    def test_dvfs_custom_name(self):
        assert BIG_SERVER.scaled(0.8, name="slow").name == "slow"


class TestCatalog:
    def test_big_is_reference_speed(self):
        assert BIG_SERVER.core_speed == 1.0

    def test_small_server_ratios(self):
        # The study's premises: much slower cores, much lower power.
        assert SMALL_SERVER.core_speed < 0.5
        assert SMALL_SERVER.peak_power_watts < BIG_SERVER.peak_power_watts / 3

    def test_catalog_names_consistent(self):
        for name, spec in SERVER_CATALOG.items():
            assert spec.name == name


class TestPowerModel:
    def setup_method(self):
        self.model = PowerModel(BIG_SERVER)

    def test_idle_and_peak(self):
        assert self.model.power_at(0.0) == BIG_SERVER.idle_power_watts
        assert self.model.power_at(1.0) == BIG_SERVER.peak_power_watts

    def test_linear_midpoint(self):
        expected = (BIG_SERVER.idle_power_watts + BIG_SERVER.peak_power_watts) / 2
        assert self.model.power_at(0.5) == pytest.approx(expected)

    def test_invalid_utilization(self):
        with pytest.raises(ValueError):
            self.model.power_at(1.5)
        with pytest.raises(ValueError):
            self.model.power_at(-0.1)

    def test_small_server_less_energy_at_matched_throughput(self):
        # Joules per query are watts over qps: at one throughput the
        # busier small server still draws less.
        big = PowerModel(BIG_SERVER).power_at(0.5)
        small = PowerModel(SMALL_SERVER).power_at(0.9)
        assert small < big
