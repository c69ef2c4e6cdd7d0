"""Tests for the systolic-array accelerator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.device import DeviceKind, DeviceSpec, KernelProfile
from repro.hardware.precision import Precision
from repro.hardware.systolic import SystolicArrayAccelerator


def make_tpu(rows=128, cols=128):
    spec = DeviceSpec(
        name="tpu",
        kind=DeviceKind.SYSTOLIC,
        peak_flops={Precision.BF16: 100e12, Precision.INT8: 200e12},
        memory_bandwidth=900e9,
        memory_capacity=32e9,
        tdp=175.0,
        idle_power=30.0,
    )
    return SystolicArrayAccelerator(spec, array_rows=rows, array_cols=cols)


class TestConstruction:
    def test_wrong_kind_rejected(self):
        spec = DeviceSpec(
            name="x", kind=DeviceKind.GPU,
            peak_flops={Precision.BF16: 1e12},
            memory_bandwidth=1e9, memory_capacity=1e9, tdp=10.0,
        )
        with pytest.raises(ValueError):
            SystolicArrayAccelerator(spec)

    def test_invalid_dimensions_rejected(self):
        from repro.core.errors import ConfigurationError
        spec = make_tpu().spec
        with pytest.raises(ConfigurationError):
            SystolicArrayAccelerator(spec, array_rows=0)


class TestTileUtilization:
    def test_exact_multiple_full_utilization(self):
        tpu = make_tpu()
        assert tpu.tile_utilization(128, 128) == 1.0
        assert tpu.tile_utilization(256, 256) == 1.0

    def test_one_extra_row_halves_last_tile(self):
        tpu = make_tpu()
        # 129 rows need 2 row-tiles of 128 -> utilisation 129/256 per dim.
        assert tpu.tile_utilization(129, 128) == pytest.approx(129 / 256)

    def test_tiny_matrix_poor_utilization(self):
        tpu = make_tpu()
        assert tpu.tile_utilization(8, 8) == pytest.approx((8 * 8) / (128 * 128))

    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            make_tpu().tile_utilization(0, 10)

    @given(rows=st.integers(1, 2048), cols=st.integers(1, 2048))
    @settings(max_examples=60)
    def test_utilization_in_unit_interval(self, rows, cols):
        utilisation = make_tpu().tile_utilization(rows, cols)
        assert 0.0 < utilisation <= 1.0


class TestTiming:
    def test_pipeline_latency_floors_everything(self):
        tpu = make_tpu()
        tiny = KernelProfile(flops=10.0, bytes_moved=10.0, precision=Precision.BF16)
        assert tpu.time_for(tiny) >= tpu.pipeline_latency()

    def test_mvm_kernel_derated_by_utilization(self):
        tpu = make_tpu()
        flops = 2.0 * 64 * 64
        well_shaped = KernelProfile(
            flops=flops, bytes_moved=64 * 64, precision=Precision.BF16
        )
        mvm = KernelProfile(
            flops=flops, bytes_moved=64 * 64, precision=Precision.BF16, mvm_dimension=64
        )
        assert tpu.time_for(mvm) >= tpu.time_for(well_shaped)
