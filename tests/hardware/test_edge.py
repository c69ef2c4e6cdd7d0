"""Tests for the edge inference accelerator."""

import pytest

from repro.hardware.catalog import default_catalog
from repro.hardware.device import DeviceKind, DeviceSpec, KernelProfile
from repro.hardware.edge import EdgeInferenceAccelerator
from repro.hardware.precision import Precision


def make_npu():
    spec = DeviceSpec(
        name="npu",
        kind=DeviceKind.EDGE_INFERENCE,
        peak_flops={Precision.INT8: 26e12, Precision.FP16: 13e12},
        memory_bandwidth=60e9,
        memory_capacity=8e9,
        tdp=15.0,
        idle_power=2.0,
    )
    return EdgeInferenceAccelerator(spec)


KERNEL = KernelProfile(flops=1e9, bytes_moved=1e6, precision=Precision.INT8)


class TestConstruction:
    def test_wrong_kind_rejected(self):
        spec = DeviceSpec(
            name="x", kind=DeviceKind.GPU,
            peak_flops={Precision.INT8: 1e12},
            memory_bandwidth=1e9, memory_capacity=1e9, tdp=10.0,
        )
        with pytest.raises(ValueError):
            EdgeInferenceAccelerator(spec)

    def test_catalog_edge_part_is_an_edge_accelerator(self):
        part = default_catalog().get("edge-npu")
        assert isinstance(part, EdgeInferenceAccelerator)
        assert part.kind is DeviceKind.EDGE_INFERENCE


class TestRoofline:
    def test_kernel_time_is_the_roofline_time(self):
        npu = make_npu()
        roofline = npu.roofline(Precision.INT8)
        assert npu.time_for(KERNEL) == pytest.approx(max(
            KERNEL.flops / roofline.peak_flops,
            KERNEL.bytes_moved / roofline.memory_bandwidth,
        ))

    def test_lower_precision_runs_faster(self):
        npu = make_npu()
        fp16 = KernelProfile(flops=1e9, bytes_moved=1e6, precision=Precision.FP16)
        assert npu.time_for(KERNEL) < npu.time_for(fp16)
