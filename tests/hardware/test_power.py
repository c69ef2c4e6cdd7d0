"""Tests for rack/datacenter power and cooling models."""

import pytest

from repro.core.errors import CapacityError, ConfigurationError
from repro.hardware.device import DeviceKind, DeviceSpec
from repro.hardware.power import (
    CoolingTechnology,
    DatacenterPowerModel,
    RackPowerModel,
)
from repro.hardware.precision import Precision


def accelerator_spec(tdp=400.0):
    return DeviceSpec(
        name=f"accel-{tdp}",
        kind=DeviceKind.GPU,
        peak_flops={Precision.FP32: 20e12},
        memory_bandwidth=1e12,
        memory_capacity=40e9,
        tdp=tdp,
        idle_power=tdp * 0.15,
    )


class TestCoolingTechnology:
    def test_liquid_supports_paper_rack_density(self):
        """The paper's 400 kW/rack requires direct liquid cooling."""
        assert CoolingTechnology.DIRECT_LIQUID.max_rack_power == 400_000.0
        assert CoolingTechnology.AIR.max_rack_power < 400_000.0

    def test_liquid_pue_better_than_air(self):
        assert (
            CoolingTechnology.DIRECT_LIQUID.partial_pue
            < CoolingTechnology.AIR.partial_pue
        )


class TestRackPowerModel:
    def test_peak_power_sums_devices(self):
        rack = RackPowerModel(
            cooling=CoolingTechnology.DIRECT_LIQUID,
            devices=[accelerator_spec()] * 10,
        )
        assert rack.peak_power == pytest.approx(10 * 400.0 + 500.0)

    def test_air_cooled_dense_rack_rejected(self):
        with pytest.raises(CapacityError):
            RackPowerModel(
                cooling=CoolingTechnology.AIR,
                devices=[accelerator_spec()] * 100,  # 40 kW >> 20 kW air limit
            )

    def test_idle_power_below_peak(self):
        rack = RackPowerModel(
            cooling=CoolingTechnology.DIRECT_LIQUID,
            devices=[accelerator_spec()] * 5,
        )
        assert rack.idle_power < rack.peak_power


class TestDatacenterPowerModel:
    def make_rack(self):
        return RackPowerModel(
            cooling=CoolingTechnology.DIRECT_LIQUID,
            devices=[accelerator_spec()] * 100,  # ~40 kW
        )

    def test_envelope_enforced(self):
        DatacenterPowerModel(facility_limit=100_000.0, racks=[self.make_rack()])
        with pytest.raises(CapacityError):
            DatacenterPowerModel(
                facility_limit=100_000.0, racks=[self.make_rack()] * 3
            )

    def test_pue_above_one(self):
        datacenter = DatacenterPowerModel(
            facility_limit=35e6, racks=[self.make_rack()]
        )
        assert datacenter.pue() > 1.0

    def test_facility_power_charges_each_rack_its_cooling(self):
        liquid = self.make_rack()
        air = RackPowerModel(
            cooling=CoolingTechnology.AIR, devices=[accelerator_spec()] * 10,
        )
        datacenter = DatacenterPowerModel(facility_limit=35e6, racks=[liquid, air])
        assert datacenter.total_facility_power() == pytest.approx(
            liquid.peak_power * CoolingTechnology.DIRECT_LIQUID.partial_pue
            + air.peak_power * CoolingTechnology.AIR.partial_pue
        )
        assert datacenter.pue() == pytest.approx(
            datacenter.total_facility_power() / datacenter.it_power()
        )

    def test_empty_datacenter_pue_is_one(self):
        assert DatacenterPowerModel().pue() == 1.0

    def test_energy_cost(self):
        datacenter = DatacenterPowerModel(electricity_price=0.10)
        assert datacenter.energy_cost(3.6e6) == pytest.approx(0.10)  # 1 kWh

    def test_energy_cost_rejects_negative(self):
        with pytest.raises(ValueError):
            DatacenterPowerModel().energy_cost(-1.0)
