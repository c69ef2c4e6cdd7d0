"""Hardware models: processors, accelerators, power and cooling.

This subpackage models the "diversifying heterogeneity" of compute silicon
the paper describes (§III.B): conventional CPUs and GPUs, first-wave
PCIe-attached accelerators, second-wave standalone training systems
(TPU-like systolic arrays, wafer-scale engines), edge inference parts, and
"neuromorphic" analog/optical dot-product engines that turn an O(N^2)
matrix-vector multiply into an O(N) operation.

Every device derives from :class:`~repro.hardware.device.Device` and answers
two questions for a kernel described by (flops, bytes, precision):

* how long does it take? (:meth:`~repro.hardware.device.Device.time_for`)
* how much energy does it burn? (:meth:`~repro.hardware.device.Device.energy_for`)

The analytical backbone is the roofline model in
:mod:`repro.hardware.roofline`; specialised devices refine it with
utilisation, precision and conversion-overhead terms.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".analog": ("AnalogDotProductEngine",),
    ".catalog": ("DeviceCatalog", "default_catalog"),
    ".device": ("Device", "DeviceKind", "DeviceSpec", "KernelProfile"),
    ".edge": ("EdgeInferenceAccelerator",),
    ".optical": ("OpticalMVMEngine",),
    ".power": ("CoolingTechnology", "DatacenterPowerModel", "RackPowerModel"),
    ".precision": ("Precision",),
    ".processors": ("CPU", "GPU", "FPGA"),
    ".reliability": (
        "DEVICE_TECHNOLOGY", "TECHNOLOGIES", "MemoryReliabilitySpec",
        "reliability_for",
    ),
    ".roofline": ("RooflineModel",),
    ".systolic": ("SystolicArrayAccelerator",),
    ".technology": (
        "GENERAL_PURPOSE", "SPECIALIZED", "ArchitectureModel", "ProcessNode",
        "default_roadmap", "dennard_break_year",
    ),
    ".wafer_scale": ("WaferScaleEngine",),
})

__all__ = [
    "AnalogDotProductEngine",
    "ArchitectureModel",
    "CPU",
    "GENERAL_PURPOSE",
    "ProcessNode",
    "SPECIALIZED",
    "CoolingTechnology",
    "DatacenterPowerModel",
    "Device",
    "DeviceCatalog",
    "DeviceKind",
    "DeviceSpec",
    "EdgeInferenceAccelerator",
    "FPGA",
    "GPU",
    "KernelProfile",
    "DEVICE_TECHNOLOGY",
    "TECHNOLOGIES",
    "MemoryReliabilitySpec",
    "reliability_for",
    "OpticalMVMEngine",
    "Precision",
    "RackPowerModel",
    "RooflineModel",
    "SystolicArrayAccelerator",
    "WaferScaleEngine",
    "default_catalog",
    "default_roadmap",
    "dennard_break_year",
]
