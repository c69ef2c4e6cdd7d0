"""Wafer-scale engine model.

The paper (§III.B): "Some ambitious designs (like Cerebras) even take
advantage of wafer-scale integration to further reduce the communication
overhead, by widening the chiplet-to-chiplet paths that a notebook-sized
piece of silicon enables."

Model
-----
A wafer of ``tiles`` compute tiles connected by an on-wafer mesh whose
bisection bandwidth is one to two orders of magnitude above off-package
links. The structural effect captured here is *communication locality*: for
model-parallel workloads, the inter-tile traffic that a GPU cluster would
push through NICs stays on-wafer. SRAM-only capacity is the hard
constraint Cerebras-class parts have: a working set that does not fit
streams from off-wafer at a fraction of the SRAM bandwidth.
"""

from __future__ import annotations

from repro.hardware.device import Device, DeviceKind, DeviceSpec, KernelProfile


class WaferScaleEngine(Device):
    """A wafer-scale AI accelerator.

    Parameters
    ----------
    spec:
        Device spec (kind must be ``WAFER_SCALE``). ``memory_capacity`` is
        the *on-wafer SRAM* (small — the defining constraint),
        ``memory_bandwidth`` the aggregate SRAM bandwidth (huge).
    """

    def __init__(self, spec: DeviceSpec) -> None:
        if spec.kind is not DeviceKind.WAFER_SCALE:
            raise ValueError(
                f"wafer-scale model requires WAFER_SCALE spec, got {spec.kind}"
            )
        super().__init__(spec)

    def time_for(self, kernel: KernelProfile) -> float:
        # On-wafer SRAM means the memory term of the roofline is rarely the
        # bound; the base model handles it. The structural adjustment is for
        # working sets that do NOT fit: off-wafer streaming collapses the
        # bandwidth to the (comparatively tiny) I/O bandwidth, modelled as a
        # 50x derate.
        if kernel.bytes_moved > self.spec.memory_capacity:
            spill = kernel.bytes_moved - self.spec.memory_capacity
            spill_time = spill / (self.spec.memory_bandwidth / 50.0)
            resident_kernel = KernelProfile(
                flops=kernel.flops,
                bytes_moved=self.spec.memory_capacity,
                precision=kernel.precision,
                mvm_dimension=kernel.mvm_dimension,
                parallel_fraction=kernel.parallel_fraction,
            )
            return super().time_for(resident_kernel) + spill_time
        return super().time_for(kernel)
