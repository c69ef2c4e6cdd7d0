"""Tests for the wafer-scale engine model."""

import pytest

from repro.core.errors import ConfigurationError
from repro.hardware.device import DeviceKind, DeviceSpec, KernelProfile
from repro.hardware.precision import Precision
from repro.hardware.wafer_scale import WaferScaleEngine


def make_wse(memory_capacity=40e9):
    spec = DeviceSpec(
        name="wse",
        kind=DeviceKind.WAFER_SCALE,
        peak_flops={Precision.FP16: 2e15, Precision.FP32: 0.5e15},
        memory_bandwidth=20e12,
        memory_capacity=memory_capacity,
        tdp=20_000.0,
        idle_power=4_000.0,
    )
    return WaferScaleEngine(spec)


class TestConstruction:
    def test_wrong_kind_rejected(self):
        spec = DeviceSpec(
            name="x", kind=DeviceKind.GPU,
            peak_flops={Precision.FP16: 1e12},
            memory_bandwidth=1e9, memory_capacity=1e9, tdp=10.0,
        )
        with pytest.raises(ValueError):
            WaferScaleEngine(spec)


class TestSpill:
    def test_resident_kernel_fast(self):
        wse = make_wse(memory_capacity=40e9)
        # Memory-bound kernels: spilling past on-wafer SRAM collapses
        # bandwidth, so a 4x byte increase costs far more than 4x time.
        resident = KernelProfile(
            flops=1e12, bytes_moved=10e9, precision=Precision.FP16
        )
        spilled = KernelProfile(
            flops=1e12, bytes_moved=200e9, precision=Precision.FP16
        )
        resident_time = wse.time_for(resident)
        spilled_time = wse.time_for(spilled)
        assert spilled_time > resident_time * 10
