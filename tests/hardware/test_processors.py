"""Tests for CPU, GPU and FPGA models."""

import pytest

from repro.hardware.device import DeviceKind, DeviceSpec, KernelProfile
from repro.hardware.precision import Precision
from repro.hardware.processors import CPU, FPGA, GPU, make_cpu_spec


def gpu_spec():
    return DeviceSpec(
        name="gpu",
        kind=DeviceKind.GPU,
        peak_flops={Precision.FP32: 20e12, Precision.FP16: 80e12},
        memory_bandwidth=1e12,
        memory_capacity=40e9,
        tdp=400.0,
        idle_power=50.0,
    )


def fpga_spec():
    return DeviceSpec(
        name="fpga",
        kind=DeviceKind.FPGA,
        peak_flops={Precision.FP32: 1e12, Precision.INT8: 30e12},
        memory_bandwidth=400e9,
        memory_capacity=16e9,
        tdp=200.0,
        idle_power=40.0,
    )


class TestCpu:
    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            CPU(gpu_spec())

    def test_make_cpu_spec_fp32_doubles_fp64(self):
        spec = make_cpu_spec("c", cores=10, ghz=2.0)
        assert spec.peak_flops[Precision.FP32] == pytest.approx(
            2 * spec.peak_flops[Precision.FP64]
        )

    def test_unsupported_narrow_precision_falls_back(self):
        cpu = CPU(make_cpu_spec("c", cores=10, ghz=2.0))
        kernel = KernelProfile(flops=1e9, bytes_moved=1e6, precision=Precision.FP16)
        # FP16 not in the CPU spec; must run at the narrowest supported rate
        # rather than raising.
        assert cpu.time_for(kernel) > 0


class TestGpu:
    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            GPU(make_cpu_spec("c", cores=4, ghz=2.0))

    def test_offload_latency_floors_small_kernels(self):
        gpu = GPU(gpu_spec(), offload_latency=10e-6)
        tiny = KernelProfile(flops=100.0, bytes_moved=10.0, precision=Precision.FP32)
        assert gpu.time_for(tiny) >= 10e-6

    def test_small_kernels_underutilise(self):
        gpu = GPU(gpu_spec(), offload_latency=0.0, saturation_flops=1e9)
        small = KernelProfile(flops=1e6, bytes_moved=1.0, precision=Precision.FP32)
        large = KernelProfile(flops=1e9, bytes_moved=1.0, precision=Precision.FP32)
        # Throughput (flops/time) must be far worse for the small kernel.
        small_throughput = small.flops / gpu.time_for(small)
        large_throughput = large.flops / gpu.time_for(large)
        assert small_throughput < large_throughput / 10

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GPU(gpu_spec(), offload_latency=-1.0)
        with pytest.raises(ValueError):
            GPU(gpu_spec(), saturation_flops=0.0)


class TestFpga:
    def test_first_kernel_pays_reconfiguration(self):
        fpga = FPGA(fpga_spec(), reconfiguration_time=1.0)
        kernel = KernelProfile(flops=1e9, bytes_moved=1e6, precision=Precision.INT8)
        first = fpga.time_for(kernel)
        second = fpga.time_for(kernel)
        assert first > second
        assert first - second == pytest.approx(1.0)

    def test_precision_switch_reconfigures(self):
        fpga = FPGA(fpga_spec(), reconfiguration_time=1.0)
        int8 = KernelProfile(flops=1e9, bytes_moved=1e6, precision=Precision.INT8)
        fp32 = KernelProfile(flops=1e9, bytes_moved=1e6, precision=Precision.FP32)
        fpga.time_for(int8)
        assert fpga.time_for(fp32) > 1.0

    def test_negative_reconfiguration_rejected(self):
        with pytest.raises(ValueError):
            FPGA(fpga_spec(), reconfiguration_time=-1.0)
