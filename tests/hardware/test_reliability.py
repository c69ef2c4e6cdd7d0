"""The memory-reliability catalog: FIT envelopes per device technology."""

import pytest

from repro.core.errors import ConfigurationError
from repro.hardware import (
    DEVICE_TECHNOLOGY,
    TECHNOLOGIES,
    MemoryReliabilitySpec,
    default_catalog,
    reliability_for,
)


class TestCatalog:
    def test_every_device_has_a_technology(self):
        catalog = default_catalog()
        for name in catalog.names():
            assert name in DEVICE_TECHNOLOGY
            assert DEVICE_TECHNOLOGY[name] in TECHNOLOGIES

    def test_lookup_accepts_name_device_and_spec(self):
        device = default_catalog().get("hpc-gpu")
        by_name = reliability_for("hpc-gpu")
        assert by_name.technology == "hbm"
        assert reliability_for(device) == by_name
        assert reliability_for(device.spec) == by_name

    def test_unknown_device_lists_the_catalog(self):
        with pytest.raises(ConfigurationError, match="epyc-class-cpu"):
            reliability_for("quantum-annealer")

    def test_hbm_runs_hotter_than_dram(self):
        assert (
            TECHNOLOGIES["hbm"].fit_per_gib
            > TECHNOLOGIES["dram"].fit_per_gib
        )
        assert (
            TECHNOLOGIES["sram"].fit_per_gib
            > TECHNOLOGIES["hbm"].fit_per_gib
        )


class TestSpec:
    def test_upset_rate_arithmetic(self):
        spec = MemoryReliabilitySpec(technology="dram", fit_per_gib=3.6e12)
        # 3.6e12 failures per 1e9 device-hours per GiB over exactly one
        # GiB = 3600 failures/hour = one upset per second.
        assert spec.upset_rate(1024.0 ** 3) == pytest.approx(1.0)
        with pytest.raises(ConfigurationError, match="capacity_bytes"):
            spec.upset_rate(0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MemoryReliabilitySpec(technology="dram", fit_per_gib=-1.0)
        with pytest.raises(ConfigurationError):
            MemoryReliabilitySpec(
                technology="dram", fit_per_gib=1.0, mbu_fraction=1.5
            )
        with pytest.raises(ConfigurationError):
            MemoryReliabilitySpec(
                technology="dram", fit_per_gib=1.0, mbu_cluster_mean=1.5
            )
