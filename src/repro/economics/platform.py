"""Platform-enablement cost model (§III.E).

The paper's argument, quantified:

* every (silicon option, system vendor) pair needs a platform enablement
  effort — high-speed board design, signal integrity, firmware — costing
  "a few million dollars";
* the silicon ecosystem is "blooming" (many CPUs x variants, >= 3 GPU
  vendors, FPGAs, custom ASICs, ML silicon), so per-vendor enablement
  scales as ``options x vendors``;
* a standard board (OCP-like) is developed **once per silicon option**
  (usually by the silicon maker) and integrated by every vendor for a
  small integration cost, so total industry cost scales as
  ``options + options x vendors x integration`` with
  ``integration << enablement``.

The crossing of those two curves — and the number of silicon options the
industry can sustain under a fixed R&D budget — is experiment C11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class SiliconOption:
    """One piece of silicon needing platform enablement.

    ``board_complexity`` scales the enablement cost: high-power,
    high-signal-rate parts (the paper's Megtron-6-class boards) cost more.
    """

    name: str
    board_complexity: float = 1.0

    def __post_init__(self) -> None:
        if self.board_complexity <= 0:
            raise ConfigurationError("board_complexity must be positive")


@dataclass(frozen=True)
class PlatformCostModel:
    """Industry-level platform development cost under two regimes.

    Attributes
    ----------
    enablement_cost:
        Dollars for one full custom platform enablement ("a few million
        dollars" — default 3M).
    integration_cost:
        Dollars for a vendor to integrate an existing standard board into
        its platform (chassis fit, management, qualification).
    standard_premium:
        Multiplier on the one-off standard-board development versus a
        custom board (a standard must cover more mechanical/electrical
        envelope: "high-power devices, liquid-cooling options, custom
        management ASICs ... within the same mechanical and electrical
        specifications").
    """

    enablement_cost: float = 3e6
    integration_cost: float = 0.25e6
    standard_premium: float = 1.5

    def __post_init__(self) -> None:
        if self.enablement_cost <= 0 or self.integration_cost <= 0:
            raise ConfigurationError("costs must be positive")
        if self.standard_premium < 1.0:
            raise ConfigurationError("standard_premium must be >= 1")

    # --- regimes -----------------------------------------------------------------

    def custom_total_cost(self, options: Sequence[SiliconOption], vendors: int) -> float:
        """Total industry cost when every vendor does its own enablement."""
        if vendors <= 0:
            raise ConfigurationError("vendors must be positive")
        return sum(
            self.enablement_cost * option.board_complexity * vendors
            for option in options
        )

    def standard_total_cost(self, options: Sequence[SiliconOption], vendors: int) -> float:
        """Total industry cost under the standard-board model."""
        if vendors <= 0:
            raise ConfigurationError("vendors must be positive")
        development = sum(
            self.enablement_cost * self.standard_premium * option.board_complexity
            for option in options
        )
        integration = self.integration_cost * len(options) * vendors
        return development + integration

    # --- sustainability ------------------------------------------------------------

    def sustainable_options(
        self, budget: float, vendors: int, standard: bool,
        board_complexity: float = 1.0,
    ) -> int:
        """How many silicon options fit a fixed industry R&D budget.

        The paper's conundrum: "the silicon ecosystem is blooming but the
        ever more expensive system development process can really sustain
        fewer and fewer options."
        """
        if budget <= 0:
            raise ConfigurationError("budget must be positive")
        if vendors <= 0:
            raise ConfigurationError("vendors must be positive")
        if standard:
            per_option = (
                self.enablement_cost * self.standard_premium * board_complexity
                + self.integration_cost * vendors
            )
        else:
            per_option = self.enablement_cost * board_complexity * vendors
        return int(budget // per_option)


def standardization_savings(
    model: PlatformCostModel, options: Sequence[SiliconOption], vendors: int
) -> float:
    """Relative industry saving of the standard model (0.6 = 60% cheaper)."""
    custom = model.custom_total_cost(options, vendors)
    standard = model.standard_total_cost(options, vendors)
    if custom == 0:
        return 0.0
    return 1.0 - standard / custom


def default_silicon_ecosystem() -> List[SiliconOption]:
    """The paper's "Cambrian explosion": a representative 2021 option list."""
    return [
        SiliconOption("x86-cpu-a", 1.0),
        SiliconOption("x86-cpu-b", 1.0),
        SiliconOption("arm-cpu", 1.1),
        SiliconOption("gpu-vendor-a", 1.4),
        SiliconOption("gpu-vendor-b", 1.4),
        SiliconOption("gpu-vendor-c", 1.3),
        SiliconOption("fpga", 1.2),
        SiliconOption("ml-asic-a", 1.5),
        SiliconOption("ml-asic-b", 1.5),
        SiliconOption("ml-asic-c", 1.6),
        SiliconOption("analog-dpe", 1.3),
        SiliconOption("optical-mvm", 1.8),
    ]
