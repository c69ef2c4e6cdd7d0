"""Semiconductor technology scaling: the paper's opening premise.

§I: "After decades of steady gains driven by semiconductor process
improvements, we have run out of the traditional means of increasing
computational capacity." §II.A dates the end of Dennard scaling to roughly
2005, after which general-purpose performance-per-watt gains collapsed and
specialisation became the only lever.

The model tracks, per process node:

* transistor density (still improving, slower post-2020 — Moore's law
  decelerating, not dead in the paper's timeframe),
* frequency (flat after Dennard's end: voltage stopped scaling),
* power density (rising once Dennard ended → dark silicon),
* the usable ("lit") fraction of the die at a fixed power budget,

and derives the general-purpose throughput trajectory versus what a
specialised architecture extracts from the same transistor budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class ProcessNode:
    """One semiconductor process generation.

    Attributes
    ----------
    name:
        Marketing name, e.g. ``'28nm'``.
    year:
        Approximate volume year.
    density:
        Transistor density relative to the 2005 reference node.
    frequency:
        Achievable clock relative to the reference.
    volts:
        Supply voltage, V.
    """

    name: str
    year: int
    density: float
    frequency: float
    volts: float

    def __post_init__(self) -> None:
        if min(self.density, self.frequency, self.volts) <= 0:
            raise ConfigurationError(f"{self.name}: scaling factors must be positive")

    def power_density(self) -> float:
        """Relative power density: C V^2 f per unit area.

        Capacitance per transistor falls as 1/linear-dimension ~
        1/sqrt(density); density transistors per area multiply back in.
        Under Dennard scaling V and f conspire to keep this flat; once V
        stalls it rises.
        """
        capacitance_per_transistor = 1.0 / self.density**0.5
        return (
            self.density
            * capacitance_per_transistor
            * self.volts**2
            * self.frequency
        )

    def lit_fraction(self, power_budget: float = 1.0) -> float:
        """Fraction of the die that can switch within the power budget.

        The budget is expressed relative to the reference node's full-die
        power. Below 1.0 the die is partially **dark** — the dark-silicon
        regime that makes specialisation free in area terms.
        """
        if power_budget <= 0:
            raise ConfigurationError("power_budget must be positive")
        reference_power_density = 1.0  # by construction of the reference node
        return min(1.0, power_budget * reference_power_density / self.power_density())


def default_roadmap() -> List[ProcessNode]:
    """A stylised 2005-2025 roadmap.

    Density keeps doubling-ish per generation (slowing after 2017);
    frequency and voltage freeze shortly after 2005 — the end of Dennard.
    Voltages are expressed relative to the reference node (1.20 V), so the
    reference power density is exactly 1.0.
    """
    reference_volts = 1.20
    raw = [
        ("90nm", 2005, 1.0, 1.00, 1.20),
        ("65nm", 2007, 1.9, 1.15, 1.10),
        ("45nm", 2009, 3.6, 1.25, 1.00),
        ("32nm", 2011, 6.7, 1.32, 0.97),
        ("22nm", 2013, 12.2, 1.37, 0.92),
        ("14nm", 2015, 21.9, 1.41, 0.88),
        ("10nm", 2017, 37.9, 1.44, 0.85),
        ("7nm", 2019, 60.8, 1.46, 0.82),
        ("5nm", 2021, 91.8, 1.47, 0.80),
        ("3nm", 2024, 128.0, 1.48, 0.78),
    ]
    return [
        ProcessNode(name, year, density=density, frequency=frequency,
                    volts=volts / reference_volts)
        for name, year, density, frequency, volts in raw
    ]


@dataclass(frozen=True)
class ArchitectureModel:
    """How an architecture converts lit transistors into throughput.

    ``transistor_efficiency`` is relative throughput per lit transistor per
    clock: general-purpose cores burn most transistors on control
    (out-of-order machinery, coherence, caches); a domain-specific
    dataflow/systolic design spends them on arithmetic. The ratio between
    the two is the specialisation gain the paper builds its thesis on
    (10-100x is the commonly cited range; 40x default here).
    """

    name: str
    transistor_efficiency: float

    def __post_init__(self) -> None:
        if self.transistor_efficiency <= 0:
            raise ConfigurationError("transistor_efficiency must be positive")

    def throughput(self, node: ProcessNode, power_budget: float = 1.0) -> float:
        """Relative throughput at a node under a fixed power budget."""
        lit = node.lit_fraction(power_budget)
        return (
            node.density * lit * node.frequency * self.transistor_efficiency
        )


GENERAL_PURPOSE = ArchitectureModel("general-purpose", transistor_efficiency=1.0)
SPECIALIZED = ArchitectureModel("specialized-accelerator", transistor_efficiency=40.0)


def dennard_break_year(roadmap: List[ProcessNode] = None) -> int:
    """First year power density exceeds the reference by >= 25%.

    The paper puts this "roughly 2005"; with the default roadmap the model
    crosses in the late 2000s as voltage scaling stalls.
    """
    nodes = roadmap if roadmap is not None else default_roadmap()
    for node in nodes:
        if node.power_density() > 1.25:
            return node.year
    return nodes[-1].year
