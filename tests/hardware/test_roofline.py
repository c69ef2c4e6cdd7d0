"""Tests for the roofline model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.hardware.roofline import RooflineModel


@pytest.fixture
def roofline():
    # 10 TFLOP/s peak, 1 TB/s memory -> ridge at 10 FLOP/byte.
    return RooflineModel(peak_flops=10e12, memory_bandwidth=1e12)


class TestConstruction:
    def test_rejects_nonpositive_peak(self):
        with pytest.raises(ConfigurationError):
            RooflineModel(peak_flops=0, memory_bandwidth=1e12)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            RooflineModel(peak_flops=1e12, memory_bandwidth=-1)


class TestTimeFor:
    def test_compute_bound_time(self, roofline):
        # 1e13 FLOPs, tiny data: bound by compute -> 1 s.
        assert roofline.time_for(1e13, 1.0) == pytest.approx(1.0)

    def test_memory_bound_time(self, roofline):
        # 1e12 bytes at 1 TB/s -> 1 s even with negligible flops.
        assert roofline.time_for(1.0, 1e12) == pytest.approx(1.0)

    def test_perfect_overlap_takes_max(self, roofline):
        compute_only = roofline.time_for(5e12, 0.0)
        both = roofline.time_for(5e12, 1e11)
        assert both == pytest.approx(max(compute_only, 0.1))

    def test_negative_inputs_raise(self, roofline):
        with pytest.raises(ValueError):
            roofline.time_for(-1.0, 0.0)
