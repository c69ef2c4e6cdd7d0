"""High-radix switch ASIC model and generation scaling.

The paper (§II.B): "State of the art switches (12.8 Tbps) combine high radix
and high per-port bandwidth. Current designs have one more natural step (to
25.6 Tbps with 64 ports at 400 Gbps). These designs have a very high wire
density, much of their area is taken up by SerDes, and they make only
limited gains from improvements in process technology. Radical change is
required beyond this point."

The model splits switch die area into a crossbar/buffer core (which shrinks
with process) and SerDes (which barely shrinks — analog circuits do not
scale like logic). Generations beyond 25.6 Tbps blow past the reticle limit
unless bandwidth escapes optically (co-packaged SiPh).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.errors import ConfigurationError

#: Manufacturing reticle limit for a single die, mm^2.
RETICLE_LIMIT_MM2 = 850.0


@dataclass(frozen=True)
class SwitchSpec:
    """A switch ASIC described by radix and per-port speed.

    Attributes
    ----------
    radix:
        Number of ports.
    port_gbps:
        Per-port line rate in Gbps.
    serdes_area_per_100g:
        Die area of SerDes per 100 Gbps of I/O, mm^2. Near-constant across
        nodes — the heart of the scaling wall.
    core_area_per_tbps:
        Die area of crossbar + buffering per Tbps switched, mm^2, at the
        reference process node; shrinks with process.
    process_scale:
        Logic-area scale factor versus the reference node (1.0 = reference,
        0.5 = one full shrink).
    """

    radix: int
    port_gbps: float
    serdes_area_per_100g: float = 1.6
    core_area_per_tbps: float = 16.0
    process_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.radix <= 0 or self.port_gbps <= 0:
            raise ConfigurationError("radix and port_gbps must be positive")
        if self.process_scale <= 0:
            raise ConfigurationError("process_scale must be positive")

    @property
    def throughput_tbps(self) -> float:
        """Aggregate switching capacity in Tbps."""
        return self.radix * self.port_gbps / 1000.0

    def serdes_area(self) -> float:
        """SerDes die area, mm^2 (process-insensitive)."""
        total_io_gbps = self.radix * self.port_gbps
        return (total_io_gbps / 100.0) * self.serdes_area_per_100g

    def core_area(self) -> float:
        """Crossbar/buffer die area, mm^2 (scales with process)."""
        return self.throughput_tbps * self.core_area_per_tbps * self.process_scale

    def die_area(self) -> float:
        """Total die area, mm^2."""
        return self.serdes_area() + self.core_area()

    def serdes_fraction(self) -> float:
        """Fraction of the die consumed by SerDes."""
        return self.serdes_area() / self.die_area()

    def is_manufacturable(self, reticle_limit: float = RETICLE_LIMIT_MM2) -> bool:
        """Whether the die fits within the manufacturing reticle."""
        return self.die_area() <= reticle_limit

    def with_optical_escape(self, escape_fraction: float) -> "SwitchSpec":
        """Model co-packaged optics replacing a fraction of SerDes area.

        Co-packaged SiPh moves bandwidth off-die through fibre ("take
        hundreds of fibres from each switch ASIC", §III.C); optical escape
        I/O needs roughly a third of the equivalent SerDes area.
        """
        if not 0.0 <= escape_fraction <= 1.0:
            raise ConfigurationError("escape_fraction must be in [0, 1]")
        remaining = 1.0 - escape_fraction * (1.0 - 1.0 / 3.0)
        return SwitchSpec(
            radix=self.radix,
            port_gbps=self.port_gbps,
            serdes_area_per_100g=self.serdes_area_per_100g * remaining,
            core_area_per_tbps=self.core_area_per_tbps,
            process_scale=self.process_scale,
        )


@dataclass(frozen=True)
class SwitchGeneration:
    """A named point on the switch scaling roadmap."""

    name: str
    spec: SwitchSpec

    @property
    def throughput_tbps(self) -> float:
        return self.spec.throughput_tbps


def roadmap(process_shrink_per_generation: float = 0.8) -> List[SwitchGeneration]:
    """The paper's switch roadmap: 12.8 → 25.6 → 51.2 → 102.4 Tbps.

    Each generation doubles port speed (or radix), while logic area gets a
    modest process shrink and SerDes area does not shrink. The 51.2+ entries
    exist to show the wall: they exceed the reticle without optical escape.
    """
    generations = [
        ("12.8T (64x200G)", 64, 200.0, 1.0),
        ("25.6T (64x400G)", 64, 400.0, process_shrink_per_generation),
        ("51.2T (64x800G)", 64, 800.0, process_shrink_per_generation**2),
        ("102.4T (64x1600G)", 64, 1600.0, process_shrink_per_generation**3),
    ]
    return [
        SwitchGeneration(
            name=name,
            spec=SwitchSpec(radix=radix, port_gbps=gbps, process_scale=scale),
        )
        for name, radix, gbps, scale in generations
    ]
