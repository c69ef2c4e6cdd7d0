"""Tests for the analog dot-product engine — the O(N) vs O(N^2) claim."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.hardware.device import DeviceKind, DeviceSpec, KernelProfile
from repro.hardware.analog import AnalogDotProductEngine
from repro.hardware.precision import Precision


def make_dpe(crossbar_size=256, adc_count=8):
    spec = DeviceSpec(
        name="dpe",
        kind=DeviceKind.ANALOG,
        peak_flops={Precision.ANALOG: 4e12},
        memory_bandwidth=100e9,
        memory_capacity=1e9,
        tdp=15.0,
        idle_power=2.0,
    )
    return AnalogDotProductEngine(spec, crossbar_size=crossbar_size, adc_count=adc_count)


class TestConstruction:
    def test_wrong_kind_rejected(self):
        spec = DeviceSpec(
            name="x", kind=DeviceKind.CPU,
            peak_flops={Precision.FP64: 1e12},
            memory_bandwidth=1e9, memory_capacity=1e9, tdp=10.0,
        )
        with pytest.raises(ValueError):
            AnalogDotProductEngine(spec)

    def test_invalid_crossbar_rejected(self):
        spec = make_dpe().spec
        # A second engine from the same spec would collide on nothing; only
        # the crossbar_size must be validated.
        with pytest.raises(ConfigurationError):
            AnalogDotProductEngine(spec, crossbar_size=0)


class TestScaling:
    def test_mvm_time_scales_linearly_not_quadratically(self):
        """The paper's core claim: O(N), not O(N^2).

        Doubling N at most doubles the time (linear term) and never
        quadruples it (the digital O(N^2) behaviour); with the O(1) settle
        and conversion floor the ratio sits below 2.
        """
        dpe = make_dpe()
        t1 = dpe.mvm_time(1024)
        t2 = dpe.mvm_time(2048)
        ratio = t2 / t1
        assert 1.0 < ratio < 2.5

    def test_mvm_time_linear_term_dominates_at_scale(self):
        """Far above the crossbar size, time grows proportionally to N."""
        dpe = make_dpe()
        ratio = dpe.mvm_time(131_072) / dpe.mvm_time(65_536)
        assert ratio == pytest.approx(2.0, rel=0.1)

    def test_mvm_energy_scales_linearly(self):
        dpe = make_dpe()
        e1 = dpe.mvm_energy(65_536)
        e2 = dpe.mvm_energy(131_072)
        assert e2 / e1 == pytest.approx(2.0, rel=0.15)

    def test_within_one_crossbar_time_constantish(self):
        dpe = make_dpe(crossbar_size=256)
        # Settle time is size independent within a tile; only conversions grow.
        t_small = dpe.mvm_time(64)
        t_large = dpe.mvm_time(256)
        assert t_large < t_small * 5

    @given(n=st.integers(1, 10_000))
    @settings(max_examples=40)
    def test_mvm_time_positive(self, n):
        assert make_dpe().mvm_time(n) > 0


class TestPrecisionGate:
    def test_wide_precision_rejected(self):
        dpe = make_dpe()
        kernel = KernelProfile(
            flops=1e6, bytes_moved=1e3, precision=Precision.FP32, mvm_dimension=100
        )
        with pytest.raises(ConfigurationError):
            dpe.time_for(kernel)

    def test_int8_accepted(self):
        dpe = make_dpe()
        kernel = KernelProfile(
            flops=2.0 * 100 * 100, bytes_moved=1e4,
            precision=Precision.INT8, mvm_dimension=100,
        )
        assert dpe.time_for(kernel) > 0


class TestKernelInterface:
    def test_multiple_passes_counted(self):
        dpe = make_dpe()
        n = 128
        one_pass = KernelProfile(
            flops=2.0 * n * n, bytes_moved=1.0,
            precision=Precision.INT8, mvm_dimension=n,
        )
        ten_passes = KernelProfile(
            flops=10 * 2.0 * n * n, bytes_moved=1.0,
            precision=Precision.INT8, mvm_dimension=n,
        )
        assert dpe.time_for(ten_passes) == pytest.approx(10 * dpe.time_for(one_pass))

    def test_non_mvm_falls_back_to_periphery(self):
        dpe = make_dpe()
        kernel = KernelProfile(flops=1e9, bytes_moved=1e6, precision=Precision.INT8)
        assert dpe.time_for(kernel) > 0

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ValueError):
            make_dpe().mvm_time(0)
