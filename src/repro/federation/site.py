"""Sites: the places where computing happens.

A :class:`Site` is one island of the paper's "archipelago of tightly
connected supercomputing islands" (§III.B): an instrumentation edge, an
on-premise cluster, a supercomputing core, or a cloud region. Sites hold
devices (with counts), a power envelope, pricing, and a noise level (cloud
sites exhibit the interference that breaks barrier-synchronised codes,
§II.C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional

from repro.core.errors import ConfigurationError
from repro.hardware.device import Device


class SiteKind(Enum):
    """Figure 3's delivery-model taxonomy, collapsed to simulation classes."""

    EDGE = "edge"
    ON_PREMISE = "on_premise"
    SUPERCOMPUTER = "supercomputer"
    CLOUD = "cloud"
    COLO = "colo"


#: Default OS/interference noise by site kind: the per-rank slowdown's
#: coefficient of variation. Clouds are noisy ("the built-in sharing of
#: infrastructure and the interference of other applications ... creates
#: noise and makes barrier-based synchronizations ineffective", §II.C);
#: supercomputers run noise-optimised stacks.
DEFAULT_NOISE = {
    SiteKind.EDGE: 0.02,
    SiteKind.ON_PREMISE: 0.01,
    SiteKind.SUPERCOMPUTER: 0.003,
    SiteKind.CLOUD: 0.08,
    SiteKind.COLO: 0.02,
}


@dataclass
class Site:
    """One computing site in the federation.

    Attributes
    ----------
    name:
        Unique site name.
    kind:
        Site class (sets default noise).
    devices:
        Device model -> installed count.
    power_limit:
        Site power envelope, watts.
    price_per_device_hour:
        Device name -> $/hour rental price (aaS price list).
    noise_level:
        Coefficient of variation of per-rank interference; ``None`` uses
        the kind default.
    interconnect_bandwidth / interconnect_latency:
        Intra-site network per-node bandwidth (bytes/s) and latency (s)
        used for communication phases. Clouds default to slow/late.
    """

    name: str
    kind: SiteKind
    devices: Dict[Device, int] = field(default_factory=dict)
    power_limit: float = 1e6
    price_per_device_hour: Dict[str, float] = field(default_factory=dict)
    noise_level: Optional[float] = None
    interconnect_bandwidth: float = 12.5e9
    interconnect_latency: float = 2e-6

    def __post_init__(self) -> None:
        if self.power_limit <= 0:
            raise ConfigurationError(f"{self.name}: power_limit must be positive")
        if any(count <= 0 for count in self.devices.values()):
            raise ConfigurationError(f"{self.name}: device counts must be positive")
        if self.noise_level is None:
            self.noise_level = DEFAULT_NOISE[self.kind]
        if self.interconnect_bandwidth <= 0 or self.interconnect_latency < 0:
            raise ConfigurationError(f"{self.name}: invalid interconnect parameters")

    # --- inventory -----------------------------------------------------------

    def total_devices(self) -> int:
        return sum(self.devices.values())

    def count(self, device: Device) -> int:
        return self.devices.get(device, 0)

    # --- occupancy ------------------------------------------------------------

    # --- pricing ---------------------------------------------------------------

    def hourly_price(self, device: Device) -> float:
        """$/hour for one device; defaults to amortised acquisition cost.

        The default amortises the device's unit cost over a 3-year life at
        40% average utilisation — a crude but standard on-premise figure.
        """
        if device.name in self.price_per_device_hour:
            return self.price_per_device_hour[device.name]
        amortisation_hours = 3 * 365 * 24 * 0.4
        return device.spec.unit_cost / amortisation_hours

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Site({self.name!r}, {self.kind.value}, devices={self.total_devices()})"
