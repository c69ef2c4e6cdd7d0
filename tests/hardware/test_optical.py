"""Tests for the optical MVM engine."""

import pytest

from repro.core.errors import ConfigurationError
from repro.hardware.device import DeviceKind, DeviceSpec, KernelProfile
from repro.hardware.optical import OpticalMVMEngine
from repro.hardware.precision import Precision


def make_optical(mesh_size=64):
    spec = DeviceSpec(
        name="optical",
        kind=DeviceKind.OPTICAL,
        peak_flops={Precision.ANALOG: 8e12},
        memory_bandwidth=200e9,
        memory_capacity=2e9,
        tdp=60.0,
        idle_power=25.0,
    )
    return OpticalMVMEngine(spec, mesh_size=mesh_size)


class TestConstruction:
    def test_wrong_kind_rejected(self):
        spec = DeviceSpec(
            name="x", kind=DeviceKind.ANALOG,
            peak_flops={Precision.ANALOG: 1e12},
            memory_bandwidth=1e9, memory_capacity=1e9, tdp=10.0,
        )
        with pytest.raises(ValueError):
            OpticalMVMEngine(spec)

    def test_invalid_mesh_rejected(self):
        with pytest.raises(ConfigurationError):
            OpticalMVMEngine(make_optical().spec, mesh_size=0)


class TestScaling:
    def test_linear_time_scaling(self):
        engine = make_optical()
        ratio = engine.mvm_time(2048) / engine.mvm_time(1024)
        assert 1.5 < ratio < 3.0

    def test_propagation_floor(self):
        engine = make_optical()
        assert engine.mvm_time(1) >= engine.propagation_delay

    def test_static_power_dominates_energy_at_low_rate(self):
        """Lasers burn power regardless — the idle-power floor shows up."""
        engine = make_optical()
        energy = engine.mvm_energy(64)
        conversions_only = 2.0 * 64 * engine.detection_energy
        assert energy > conversions_only


class TestPrecisionGate:
    def test_fp32_rejected(self):
        engine = make_optical()
        kernel = KernelProfile(
            flops=1e6, bytes_moved=1e3, precision=Precision.FP32, mvm_dimension=64
        )
        with pytest.raises(ConfigurationError):
            engine.time_for(kernel)

    def test_int8_mvm_runs(self):
        engine = make_optical()
        kernel = KernelProfile(
            flops=2.0 * 64 * 64, bytes_moved=1.0,
            precision=Precision.INT8, mvm_dimension=64,
        )
        assert engine.time_for(kernel) > 0
        assert engine.energy_for(kernel) > 0

    def test_non_mvm_fallback(self):
        engine = make_optical()
        kernel = KernelProfile(flops=1e9, bytes_moved=1e6, precision=Precision.INT8)
        assert engine.time_for(kernel) > 0
