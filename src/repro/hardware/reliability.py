"""Memory-reliability catalog: FIT rates per device memory technology.

The paper's sustainability and resiliency arguments (denser pooled
memory, tighter power envelopes) imply memory itself is a failure
domain, not just nodes and links.  This module gives every catalog
device a :class:`MemoryReliabilitySpec` — the soft-error envelope of its
memory technology expressed in FIT (Failures In Time, upsets per 10^9
device-hours) per GiB — so :mod:`repro.resilience.memerrors` can derive
upset rates from a device's :attr:`~repro.hardware.device.DeviceSpec.memory_capacity`
instead of hand-set MTBFs.

Numbers are order-of-magnitude realistic for the paper's 2021 timeframe
(field studies put DRAM at 10^4-10^5 FIT/Mbit of *raw* upsets; what
matters for every experiment here is the relative shape across
technologies, not vendor-exact rates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Union

from repro.core.errors import ConfigurationError

GIB = 1024.0 ** 3

#: Seconds in 10^9 hours — the FIT denominator.
FIT_HOURS = 1e9
SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class MemoryReliabilitySpec:
    """The soft-error envelope of one memory technology.

    Attributes
    ----------
    technology:
        Memory technology label ("dram", "hbm", "sram", "lpddr").
    fit_per_gib:
        Raw upset rate in FIT per GiB of capacity (corrected + DUE +
        silent together; the ECC policy decides the split).
    mbu_fraction:
        Fraction of upsets that are clustered multi-bit upsets rather
        than single-bit flips.
    mbu_cluster_mean:
        Mean bits per MBU cluster (minimum cluster is 2 bits; the excess
        over 2 is geometric).
    accumulation_time:
        Phenomenological time constant for correctable-error
        accumulation: a correctable upset escalates to uncorrectable
        with probability ``interval / (interval + accumulation_time)``
        under a patrol scrub of period ``interval`` (no scrubbing
        escalates with certainty in the limit).  See
        :class:`repro.resilience.memerrors.ScrubPolicy`.
    """

    technology: str
    fit_per_gib: float
    mbu_fraction: float = 0.03
    mbu_cluster_mean: float = 3.0
    accumulation_time: float = 14_400.0

    def __post_init__(self) -> None:
        # Negated comparisons, so a NaN (false under every comparison)
        # is rejected too.
        if not 0.0 < self.fit_per_gib < math.inf:
            raise ConfigurationError(
                f"{self.technology}: fit_per_gib must be positive and "
                f"finite: {self.fit_per_gib!r}"
            )
        if not 0.0 <= self.mbu_fraction <= 1.0:
            raise ConfigurationError(
                f"{self.technology}: mbu_fraction must be in [0, 1]"
            )
        if not 2.0 <= self.mbu_cluster_mean < math.inf:
            raise ConfigurationError(
                f"{self.technology}: mbu_cluster_mean must be >= 2 "
                f"(clusters have at least two bits) and finite: "
                f"{self.mbu_cluster_mean!r}"
            )
        if not 0.0 < self.accumulation_time < math.inf:
            raise ConfigurationError(
                f"{self.technology}: accumulation_time must be positive "
                f"and finite: {self.accumulation_time!r}"
            )

    def upset_rate(self, capacity_bytes: float) -> float:
        """Raw upsets per second across ``capacity_bytes`` of this memory."""
        if capacity_bytes <= 0:
            raise ConfigurationError(
                f"capacity_bytes must be positive: {capacity_bytes}"
            )
        gib = capacity_bytes / GIB
        return self.fit_per_gib * gib / (FIT_HOURS * SECONDS_PER_HOUR)


#: Technology envelopes.  HBM stacks run hotter and denser than DDR
#: DIMMs (higher raw FIT, larger clusters); on-wafer/on-chip SRAM is the
#: most upset-prone per bit; LPDDR edge parts trade density for a lower
#: envelope.
TECHNOLOGIES: Dict[str, MemoryReliabilitySpec] = {
    "dram": MemoryReliabilitySpec(
        "dram", fit_per_gib=6_000.0, mbu_fraction=0.03,
        mbu_cluster_mean=3.0, accumulation_time=14_400.0,
    ),
    "hbm": MemoryReliabilitySpec(
        "hbm", fit_per_gib=15_000.0, mbu_fraction=0.06,
        mbu_cluster_mean=4.0, accumulation_time=10_800.0,
    ),
    "sram": MemoryReliabilitySpec(
        "sram", fit_per_gib=40_000.0, mbu_fraction=0.10,
        mbu_cluster_mean=4.0, accumulation_time=7_200.0,
    ),
    "lpddr": MemoryReliabilitySpec(
        "lpddr", fit_per_gib=4_000.0, mbu_fraction=0.02,
        mbu_cluster_mean=3.0, accumulation_time=21_600.0,
    ),
}

#: Which technology each default-catalog device carries.
DEVICE_TECHNOLOGY: Dict[str, str] = {
    "epyc-class-cpu": "dram",
    "hpc-gpu": "hbm",
    "tpu-like": "hbm",
    "wafer-scale-engine": "sram",
    "datacenter-fpga": "dram",
    "analog-dpe": "sram",
    "optical-mvm": "sram",
    "edge-npu": "lpddr",
}


def reliability_for(device: Union[str, object]) -> MemoryReliabilitySpec:
    """The :class:`MemoryReliabilitySpec` for a catalog device.

    Accepts a device name, a :class:`~repro.hardware.device.Device` or a
    :class:`~repro.hardware.device.DeviceSpec`.  Unknown devices get a
    helpful error naming what the catalog knows.
    """
    name = device if isinstance(device, str) else getattr(device, "name", None)
    if not isinstance(name, str):
        raise ConfigurationError(
            f"cannot derive a device name from {device!r}"
        )
    try:
        technology = DEVICE_TECHNOLOGY[name]
    except KeyError:
        known = ", ".join(sorted(DEVICE_TECHNOLOGY))
        raise ConfigurationError(
            f"no memory-reliability entry for device {name!r}; "
            f"catalog covers: {known}"
        ) from None
    return TECHNOLOGIES[technology]
