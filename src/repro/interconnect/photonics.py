"""Silicon-photonics escape bandwidth.

The paper (§III.C): "Silicon photonics provides the means to bring bandwidth
off the switch devices and directly into a low-cost optical network ... it
will be possible to take hundreds of fibres from each switch ASIC ... A
system fabric of essentially unlimited scale can be constructed from
low-cost switches and passive optical cables."

:func:`escape_bandwidth_tbps` is the off-ASIC optical bandwidth that claim
rests on (C3 sets it against the SerDes area wall).
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError


def escape_bandwidth_tbps(
    fibers: int, wavelengths_per_fiber: int = 8, gbps_per_wavelength: float = 100.0
) -> float:
    """Aggregate off-ASIC optical escape bandwidth in Tbps.

    "Hundreds of fibres from each switch ASIC" with dense WDM is how a
    fabric of "essentially unlimited scale" escapes the SerDes area wall.
    """
    if fibers <= 0 or wavelengths_per_fiber <= 0 or gbps_per_wavelength <= 0:
        raise ConfigurationError("all escape parameters must be positive")
    return fibers * wavelengths_per_fiber * gbps_per_wavelength / 1000.0
