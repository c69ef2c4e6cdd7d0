"""Base device abstraction shared by all processor and accelerator models.

A :class:`Device` answers, for a kernel described by a
:class:`KernelProfile`, how long it takes and how much energy it burns.
The default implementation is a derated roofline; specialised accelerators
(systolic arrays, analog engines, ...) override :meth:`Device.time_for` to
capture their structural behaviour.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional

from repro.core.errors import ConfigurationError
from repro.hardware.precision import Precision
from repro.hardware.roofline import RooflineModel

_device_ids = itertools.count()


class DeviceKind(Enum):
    """Broad device classes used by schedulers and catalogs."""

    CPU = "cpu"
    GPU = "gpu"
    FPGA = "fpga"
    SYSTOLIC = "systolic"
    WAFER_SCALE = "wafer_scale"
    ANALOG = "analog"
    OPTICAL = "optical"
    EDGE_INFERENCE = "edge_inference"


@dataclass(frozen=True)
class KernelProfile:
    """A device-independent description of one computational kernel.

    Attributes
    ----------
    flops:
        Total floating-point (or MAC-equivalent) operations.
    bytes_moved:
        Bytes transferred to/from device memory.
    precision:
        Numeric format the kernel requests.
    mvm_dimension:
        For matrix-vector-multiply-shaped kernels, the vector length N.
        Analog and optical engines use this to apply their O(N) cost model;
        ``None`` means "not an MVM kernel".
    parallel_fraction:
        Fraction of work that parallelises across the device (Amdahl term).
    """

    flops: float
    bytes_moved: float
    precision: Precision = Precision.FP32
    mvm_dimension: Optional[int] = None
    parallel_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_moved < 0:
            raise ConfigurationError("flops and bytes_moved must be non-negative")
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise ConfigurationError(
                f"parallel_fraction must be in [0, 1]: {self.parallel_fraction}"
            )
        if self.mvm_dimension is not None and self.mvm_dimension <= 0:
            raise ConfigurationError(
                f"mvm_dimension must be positive: {self.mvm_dimension}"
            )

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte; infinite-intensity kernels report a large number."""
        if self.bytes_moved == 0:
            return float("inf")
        return self.flops / self.bytes_moved


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a device's capability and cost envelope.

    Attributes
    ----------
    name:
        Human-readable model name (unique within a catalog).
    kind:
        Broad device class.
    peak_flops:
        Peak throughput per precision, FLOP/s. Missing precisions are
        unsupported natively (the device model may emulate via a wider one).
    memory_bandwidth:
        Device memory bandwidth, bytes/s.
    memory_capacity:
        Device memory capacity, bytes.
    tdp:
        Thermal design power, watts (power at full load).
    idle_power:
        Power when idle, watts.
    efficiency:
        Sustained fraction of peak achievable on real kernels (derating).
    unit_cost:
        Acquisition cost in dollars (used by economics and market models).
    """

    name: str
    kind: DeviceKind
    peak_flops: Dict[Precision, float]
    memory_bandwidth: float
    memory_capacity: float
    tdp: float
    idle_power: float = 0.0
    efficiency: float = 0.7
    unit_cost: float = 10_000.0

    def __post_init__(self) -> None:
        if not self.peak_flops:
            raise ConfigurationError(f"{self.name}: peak_flops must not be empty")
        if any(v <= 0 for v in self.peak_flops.values()):
            raise ConfigurationError(f"{self.name}: peak_flops entries must be positive")
        if self.memory_bandwidth <= 0 or self.memory_capacity <= 0:
            raise ConfigurationError(f"{self.name}: memory parameters must be positive")
        if self.tdp <= 0 or self.idle_power < 0 or self.idle_power > self.tdp:
            raise ConfigurationError(
                f"{self.name}: require 0 <= idle_power <= tdp, tdp > 0"
            )
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigurationError(f"{self.name}: efficiency must be in (0, 1]")

    def supports(self, precision: Precision) -> bool:
        """Whether the device natively executes this precision."""
        return precision in self.peak_flops


class Device:
    """Executable device model built from a :class:`DeviceSpec`.

    The base model is a derated roofline per supported precision. Subclasses
    refine timing (utilisation, conversion overheads, O(N) analog physics)
    by overriding :meth:`time_for`.
    """

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec
        self.device_id = next(_device_ids)
        self._rooflines = {
            precision: RooflineModel(
                peak_flops=peak * spec.efficiency,
                memory_bandwidth=spec.memory_bandwidth,
            )
            for precision, peak in spec.peak_flops.items()
        }

    # --- capability -------------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def kind(self) -> DeviceKind:
        return self.spec.kind

    def supports(self, precision: Precision) -> bool:
        return self.spec.supports(precision)

    def roofline(self, precision: Precision) -> RooflineModel:
        """The derated roofline for a supported precision."""
        try:
            return self._rooflines[precision]
        except KeyError:
            raise ConfigurationError(
                f"{self.name} does not support {precision}"
            ) from None

    # --- execution model ---------------------------------------------------

    def time_for(self, kernel: KernelProfile) -> float:
        """Execution time in seconds for a kernel on this device.

        The base model applies the roofline bound then an Amdahl correction
        for the kernel's serial fraction (serial work runs at 2% of peak —
        a single lane of a wide device).
        """
        roofline = self.roofline(kernel.precision)
        parallel_time = roofline.time_for(
            kernel.flops * kernel.parallel_fraction, kernel.bytes_moved
        )
        serial_flops = kernel.flops * (1.0 - kernel.parallel_fraction)
        serial_time = serial_flops / (roofline.peak_flops * 0.02) if serial_flops else 0.0
        return parallel_time + serial_time

    def energy_for(self, kernel: KernelProfile) -> float:
        """Energy in joules: TDP while busy (simple full-power model)."""
        return self.time_for(kernel) * self.spec.tdp

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"
