"""Power and cooling models for racks and datacenters.

The paper (§II.C): "the exascale supercomputing generation is expected to
require a 30-40 MW datacenter with aggressive liquid cooling and very
high-density racks, up to 400 kW per rack." These models let experiments
check whether a proposed machine fits a site's power envelope, compare
cooling technologies, and charge energy to jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List

from repro.core.errors import CapacityError, ConfigurationError
from repro.hardware.device import DeviceSpec


class CoolingTechnology(Enum):
    """Rack cooling options with their practical per-rack power ceilings."""

    AIR = "air"
    REAR_DOOR_HEAT_EXCHANGER = "rear_door"
    DIRECT_LIQUID = "direct_liquid"
    IMMERSION = "immersion"

    @property
    def max_rack_power(self) -> float:
        """Practical per-rack ceiling in watts for the technology."""
        ceilings = {
            CoolingTechnology.AIR: 20_000.0,
            CoolingTechnology.REAR_DOOR_HEAT_EXCHANGER: 60_000.0,
            CoolingTechnology.DIRECT_LIQUID: 400_000.0,  # paper's 400 kW/rack
            CoolingTechnology.IMMERSION: 250_000.0,
        }
        return ceilings[self]

    @property
    def partial_pue(self) -> float:
        """Cooling-only PUE contribution (overhead per IT watt)."""
        overheads = {
            CoolingTechnology.AIR: 1.5,
            CoolingTechnology.REAR_DOOR_HEAT_EXCHANGER: 1.25,
            CoolingTechnology.DIRECT_LIQUID: 1.08,
            CoolingTechnology.IMMERSION: 1.05,
        }
        return overheads[self]


@dataclass
class RackPowerModel:
    """A rack with a cooling technology and a set of installed devices."""

    cooling: CoolingTechnology
    devices: List[DeviceSpec]
    overhead_power: float = 500.0  # fans, BMC, switches in-rack

    def __post_init__(self) -> None:
        if self.overhead_power < 0:
            raise ConfigurationError("overhead_power must be non-negative")
        if self.peak_power > self.cooling.max_rack_power:
            raise CapacityError(
                f"rack draws {self.peak_power / 1e3:.1f} kW at peak but "
                f"{self.cooling.value} cooling supports only "
                f"{self.cooling.max_rack_power / 1e3:.1f} kW"
            )

    @property
    def peak_power(self) -> float:
        """Worst-case rack draw (all devices at TDP) in watts."""
        return sum(spec.tdp for spec in self.devices) + self.overhead_power

    @property
    def idle_power(self) -> float:
        """Rack draw with all devices idle, watts."""
        return sum(spec.idle_power for spec in self.devices) + self.overhead_power

    def headroom(self) -> float:
        """Watts of cooling capacity left at peak."""
        return self.cooling.max_rack_power - self.peak_power

    def can_add(self, spec: DeviceSpec) -> bool:
        """Whether one more device of this spec fits the cooling envelope."""
        return spec.tdp <= self.headroom()


@dataclass
class DatacenterPowerModel:
    """A facility power envelope hosting many racks.

    Attributes
    ----------
    facility_limit:
        Total facility power available, watts (paper: 30-40 MW for
        exascale).
    electricity_price:
        Dollars per kWh, used for energy accounting.
    """

    facility_limit: float = 35e6
    electricity_price: float = 0.08
    racks: List[RackPowerModel] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.facility_limit <= 0:
            raise ConfigurationError("facility_limit must be positive")
        if self.racks is None:
            self.racks = []
        self._check_envelope()

    def _check_envelope(self) -> None:
        if self.total_facility_power() > self.facility_limit:
            raise CapacityError(
                f"facility draw {self.total_facility_power() / 1e6:.1f} MW "
                f"exceeds limit {self.facility_limit / 1e6:.1f} MW"
            )

    def add_rack(self, rack: RackPowerModel) -> None:
        """Install a rack, enforcing the facility envelope."""
        self.racks.append(rack)
        try:
            self._check_envelope()
        except CapacityError:
            self.racks.pop()
            raise

    def it_power(self) -> float:
        """Peak IT (compute) power across all racks, watts."""
        return sum(rack.peak_power for rack in self.racks)

    def total_facility_power(self) -> float:
        """Peak facility power including cooling overhead (PUE), watts."""
        return sum(rack.peak_power * rack.cooling.partial_pue for rack in self.racks)

    def pue(self) -> float:
        """Facility power usage effectiveness (1.0 = no overhead)."""
        it = self.it_power()
        if it == 0:
            return 1.0
        return self.total_facility_power() / it

    def max_racks_supported(self, rack: RackPowerModel) -> int:
        """How many racks of a given build fit the remaining envelope."""
        per_rack = rack.peak_power * rack.cooling.partial_pue
        remaining = self.facility_limit - self.total_facility_power()
        return int(remaining // per_rack)

    def energy_cost(self, joules: float) -> float:
        """Dollar cost of an energy quantity at the facility tariff."""
        if joules < 0:
            raise ValueError("joules must be non-negative")
        kwh = joules / 3.6e6
        return kwh * self.electricity_price
