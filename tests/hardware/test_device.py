"""Tests for the base device model and kernel profiles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.hardware.device import Device, DeviceKind, DeviceSpec, KernelProfile
from repro.hardware.precision import Precision


def make_spec(**overrides):
    defaults = dict(
        name="test-device",
        kind=DeviceKind.CPU,
        peak_flops={Precision.FP64: 1e12, Precision.FP32: 2e12},
        memory_bandwidth=100e9,
        memory_capacity=64e9,
        tdp=200.0,
        idle_power=50.0,
        efficiency=0.8,
    )
    defaults.update(overrides)
    return DeviceSpec(**defaults)


class TestKernelProfile:
    def test_arithmetic_intensity(self):
        kernel = KernelProfile(flops=100.0, bytes_moved=50.0)
        assert kernel.arithmetic_intensity == 2.0

    def test_zero_bytes_is_infinite_intensity(self):
        kernel = KernelProfile(flops=100.0, bytes_moved=0.0)
        assert kernel.arithmetic_intensity == float("inf")

    def test_negative_flops_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelProfile(flops=-1.0, bytes_moved=0.0)

    def test_parallel_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            KernelProfile(flops=1.0, bytes_moved=1.0, parallel_fraction=1.5)

    def test_mvm_dimension_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            KernelProfile(flops=1.0, bytes_moved=1.0, mvm_dimension=0)


class TestDeviceSpec:
    def test_empty_peak_flops_rejected(self):
        with pytest.raises(ConfigurationError):
            make_spec(peak_flops={})

    def test_nonpositive_peak_rejected(self):
        with pytest.raises(ConfigurationError):
            make_spec(peak_flops={Precision.FP64: 0.0})

    def test_idle_above_tdp_rejected(self):
        with pytest.raises(ConfigurationError):
            make_spec(idle_power=300.0, tdp=200.0)

    def test_efficiency_bounds(self):
        with pytest.raises(ConfigurationError):
            make_spec(efficiency=0.0)
        with pytest.raises(ConfigurationError):
            make_spec(efficiency=1.5)

    def test_supports(self):
        spec = make_spec()
        assert spec.supports(Precision.FP64)
        assert not spec.supports(Precision.INT8)


class TestDevice:
    def test_roofline_derated_by_efficiency(self):
        device = Device(make_spec(efficiency=0.5))
        assert device.roofline(Precision.FP64).peak_flops == pytest.approx(0.5e12)

    def test_unsupported_precision_raises(self):
        device = Device(make_spec())
        kernel = KernelProfile(flops=1e9, bytes_moved=1e6, precision=Precision.INT8)
        with pytest.raises(ConfigurationError):
            device.time_for(kernel)

    def test_time_positive_for_work(self):
        device = Device(make_spec())
        kernel = KernelProfile(flops=1e9, bytes_moved=1e6, precision=Precision.FP64)
        assert device.time_for(kernel) > 0

    def test_serial_fraction_slows_execution(self):
        device = Device(make_spec())
        parallel = KernelProfile(
            flops=1e12, bytes_moved=1e6, precision=Precision.FP64, parallel_fraction=1.0
        )
        amdahl = KernelProfile(
            flops=1e12, bytes_moved=1e6, precision=Precision.FP64, parallel_fraction=0.9
        )
        assert device.time_for(amdahl) > device.time_for(parallel)

    def test_energy_is_time_times_tdp(self):
        device = Device(make_spec())
        kernel = KernelProfile(flops=1e12, bytes_moved=1e6, precision=Precision.FP64)
        assert device.energy_for(kernel) == pytest.approx(
            device.time_for(kernel) * 200.0
        )

    def test_device_ids_unique(self):
        a = Device(make_spec(name="a"))
        b = Device(make_spec(name="b"))
        assert a.device_id != b.device_id

    @given(
        flops=st.floats(min_value=1.0, max_value=1e15),
        bytes_moved=st.floats(min_value=1.0, max_value=1e12),
    )
    @settings(max_examples=40)
    def test_time_monotone_in_flops(self, flops, bytes_moved):
        device = Device(make_spec())
        small = KernelProfile(flops=flops, bytes_moved=bytes_moved, precision=Precision.FP64)
        large = KernelProfile(flops=flops * 2, bytes_moved=bytes_moved, precision=Precision.FP64)
        assert device.time_for(large) >= device.time_for(small)
