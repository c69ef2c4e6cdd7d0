"""Conventional processor models: CPU, GPU and FPGA.

These are "general purpose" (CPU) and "first wave" (PCIe-attached GPU/FPGA)
devices in the paper's taxonomy (§III.B). They reuse the roofline base model
with modest structural refinements:

* CPUs suffer no offload overhead but have low peak throughput.
* GPUs add a host-to-device offload latency and need enough work to fill
  the machine (occupancy ramp).
* FPGAs trade lower clocked throughput for high efficiency at narrow
  precisions and near-zero control overhead once configured.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.hardware.device import Device, DeviceKind, DeviceSpec, KernelProfile
from repro.hardware.precision import Precision


class CPU(Device):
    """A multicore server CPU.

    The base roofline already captures CPU behaviour well; the only
    refinement is that CPUs execute *any* requested precision at the FP64 or
    FP32 rate (scalar units do not speed up much below FP32).
    """

    def __init__(self, spec: DeviceSpec) -> None:
        if spec.kind is not DeviceKind.CPU:
            raise ValueError(f"CPU model requires a CPU spec, got {spec.kind}")
        super().__init__(spec)

    def time_for(self, kernel: KernelProfile) -> float:
        if not self.supports(kernel.precision):
            # Narrow formats run at the narrowest supported rate; wide
            # formats are unsupported outright.
            fallback = min(self.spec.peak_flops, key=lambda p: p.bits)
            kernel = KernelProfile(
                flops=kernel.flops,
                bytes_moved=kernel.bytes_moved,
                precision=fallback,
                mvm_dimension=kernel.mvm_dimension,
                parallel_fraction=kernel.parallel_fraction,
            )
        return super().time_for(kernel)


class GPU(Device):
    """A discrete GPU attached over a host interface.

    Adds two effects on top of the roofline:

    * a fixed offload latency per kernel (driver + PCIe round trip),
    * an occupancy ramp: kernels with too little work cannot fill the
      machine, so achieved throughput scales with ``work / saturation_work``.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        offload_latency: float = 10e-6,
        saturation_flops: float = 1e9,
    ) -> None:
        if spec.kind is not DeviceKind.GPU:
            raise ValueError(f"GPU model requires a GPU spec, got {spec.kind}")
        super().__init__(spec)
        if offload_latency < 0 or saturation_flops <= 0:
            raise ValueError("offload_latency >= 0 and saturation_flops > 0 required")
        self.offload_latency = offload_latency
        self.saturation_flops = saturation_flops

    def time_for(self, kernel: KernelProfile) -> float:
        base = super().time_for(kernel)
        if 0 < kernel.flops < self.saturation_flops:
            # Under-occupied: the device is only partially filled, so the
            # effective rate degrades linearly with fill fraction.
            fill = kernel.flops / self.saturation_flops
            base = base / max(fill, 1e-6)
        return self.offload_latency + base


class FPGA(Device):
    """A reconfigurable accelerator.

    FPGAs are modelled with a one-off configuration latency amortised over a
    deployment, excellent efficiency at integer precisions, and a throughput
    penalty at floating point (soft logic).
    """

    def __init__(self, spec: DeviceSpec, reconfiguration_time: float = 1.0) -> None:
        if spec.kind is not DeviceKind.FPGA:
            raise ValueError(f"FPGA model requires an FPGA spec, got {spec.kind}")
        super().__init__(spec)
        if reconfiguration_time < 0:
            raise ValueError("reconfiguration_time must be non-negative")
        self.reconfiguration_time = reconfiguration_time
        self._configured_for: Optional[Precision] = None

    def time_for(self, kernel: KernelProfile) -> float:
        reconfig = 0.0
        if self._configured_for is not kernel.precision:
            reconfig = self.reconfiguration_time
            self._configured_for = kernel.precision
        return reconfig + super().time_for(kernel)


def make_cpu_spec(
    name: str,
    cores: int,
    ghz: float,
    flops_per_cycle: int = 16,
    memory_bandwidth: float = 200e9,
    memory_capacity: float = 256e9,
    tdp: float = 250.0,
    unit_cost: float = 8_000.0,
) -> DeviceSpec:
    """Build a CPU spec from microarchitectural parameters.

    ``flops_per_cycle`` is per core at FP64 (e.g. 16 for 2x AVX-512 FMA);
    FP32 doubles it.
    """
    fp64 = cores * ghz * 1e9 * flops_per_cycle
    peak: Dict[Precision, float] = {
        Precision.FP64: fp64,
        Precision.FP32: fp64 * 2,
        Precision.INT8: fp64 * 4,
    }
    return DeviceSpec(
        name=name,
        kind=DeviceKind.CPU,
        peak_flops=peak,
        memory_bandwidth=memory_bandwidth,
        memory_capacity=memory_capacity,
        tdp=tdp,
        idle_power=tdp * 0.3,
        efficiency=0.8,
        unit_cost=unit_cost,
    )
