"""A catalog of named device models with plausible 2021-era parameters.

The catalog instantiates the paper's "Cambrian explosion" of compute silicon
(§III.E) as a set of ready-to-use device models. Numbers are order-of-
magnitude realistic for the paper's timeframe (not vendor-exact — the point
of every experiment is relative shape, not absolute throughput).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.hardware.analog import AnalogDotProductEngine
from repro.hardware.device import Device, DeviceKind, DeviceSpec
from repro.hardware.edge import EdgeInferenceAccelerator
from repro.hardware.optical import OpticalMVMEngine
from repro.hardware.precision import Precision
from repro.hardware.processors import CPU, FPGA, GPU, make_cpu_spec
from repro.hardware.systolic import SystolicArrayAccelerator
from repro.hardware.wafer_scale import WaferScaleEngine


class DeviceCatalog:
    """A name-indexed collection of device models."""

    def __init__(self) -> None:
        self._devices: Dict[str, Device] = {}

    def add(self, device: Device) -> Device:
        """Register a device; names must be unique."""
        if device.name in self._devices:
            raise ValueError(f"duplicate device name: {device.name}")
        self._devices[device.name] = device
        return device

    def get(self, name: str) -> Device:
        """Look up a device by name (KeyError with a helpful message)."""
        try:
            return self._devices[name]
        except KeyError:
            known = ", ".join(sorted(self._devices))
            raise KeyError(f"unknown device {name!r}; catalog has: {known}") from None

    def names(self) -> List[str]:
        return sorted(self._devices)

    def __iter__(self) -> Iterator[Device]:
        return iter(self._devices.values())

    def __len__(self) -> int:
        return len(self._devices)

    def __contains__(self, name: str) -> bool:
        return name in self._devices


def default_catalog(seed: Optional[int] = None) -> DeviceCatalog:
    """The standard heterogeneous device mix used by examples and benches.

    Contains one representative of every class the paper names: server CPU,
    HPC GPU, systolic training part, wafer-scale engine, FPGA, analog DPE,
    optical engine, and an edge inference accelerator.
    """
    catalog = DeviceCatalog()

    catalog.add(CPU(make_cpu_spec(
        name="epyc-class-cpu",
        cores=64,
        ghz=2.25,
        flops_per_cycle=16,
        memory_bandwidth=200e9,
        memory_capacity=512e9,
        tdp=280.0,
        unit_cost=8_000.0,
    )))

    catalog.add(GPU(DeviceSpec(
        name="hpc-gpu",
        kind=DeviceKind.GPU,
        peak_flops={
            Precision.FP64: 9.7e12,
            Precision.FP32: 19.5e12,
            Precision.TF32: 156e12,
            Precision.BF16: 312e12,
            Precision.FP16: 312e12,
            Precision.INT8: 624e12,
        },
        memory_bandwidth=1.6e12,
        memory_capacity=40e9,
        tdp=400.0,
        idle_power=60.0,
        efficiency=0.6,
        unit_cost=12_000.0,
    )))

    catalog.add(SystolicArrayAccelerator(
        DeviceSpec(
            name="tpu-like",
            kind=DeviceKind.SYSTOLIC,
            peak_flops={
                Precision.BF16: 123e12,
                Precision.INT8: 275e12,
                Precision.FP32: 15e12,
            },
            memory_bandwidth=900e9,
            memory_capacity=32e9,
            tdp=175.0,
            idle_power=30.0,
            efficiency=0.75,
            unit_cost=9_000.0,
        ),
        array_rows=128,
        array_cols=128,
        clock_hz=940e6,
    ))

    catalog.add(WaferScaleEngine(
        DeviceSpec(
            name="wafer-scale-engine",
            kind=DeviceKind.WAFER_SCALE,
            peak_flops={
                Precision.FP16: 2.5e15,
                Precision.FP32: 0.6e15,
            },
            memory_bandwidth=20e12,   # aggregate on-wafer SRAM bandwidth
            memory_capacity=40e9,     # on-wafer SRAM only
            tdp=20_000.0,
            idle_power=4_000.0,
            efficiency=0.5,
            unit_cost=2_000_000.0,
        ),
    ))

    catalog.add(FPGA(DeviceSpec(
        name="datacenter-fpga",
        kind=DeviceKind.FPGA,
        peak_flops={
            Precision.FP32: 1.5e12,
            Precision.INT8: 33e12,
            Precision.INT4: 66e12,
        },
        memory_bandwidth=460e9,
        memory_capacity=16e9,
        tdp=225.0,
        idle_power=40.0,
        efficiency=0.85,
        unit_cost=7_000.0,
    )))

    catalog.add(AnalogDotProductEngine(
        DeviceSpec(
            name="analog-dpe",
            kind=DeviceKind.ANALOG,
            peak_flops={Precision.ANALOG: 4e12},  # digital-periphery fallback
            memory_bandwidth=100e9,
            memory_capacity=1e9,
            tdp=15.0,
            idle_power=2.0,
            efficiency=0.9,
            unit_cost=1_500.0,
        ),
        crossbar_size=256,
        settle_time=100e-9,
        adc_count=16,
        adc_rate=1.2e9,
    ))

    catalog.add(OpticalMVMEngine(
        DeviceSpec(
            name="optical-mvm",
            kind=DeviceKind.OPTICAL,
            peak_flops={Precision.ANALOG: 8e12},
            memory_bandwidth=200e9,
            memory_capacity=2e9,
            tdp=60.0,
            idle_power=25.0,  # laser + thermal tuning floor
            efficiency=0.9,
            unit_cost=20_000.0,
        ),
        mesh_size=64,
        modulation_rate=10e9,
    ))

    catalog.add(EdgeInferenceAccelerator(DeviceSpec(
        name="edge-npu",
        kind=DeviceKind.EDGE_INFERENCE,
        peak_flops={
            Precision.INT8: 26e12,
            Precision.FP16: 13e12,
        },
        memory_bandwidth=60e9,
        memory_capacity=8e9,
        tdp=15.0,
        idle_power=2.0,
        efficiency=0.7,
        unit_cost=500.0,
    )))

    return catalog
