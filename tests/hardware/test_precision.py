"""Tests for the precision ladder."""

import pytest

from repro.hardware.precision import (
    PRECISION_LADDER,
    Precision,
    narrower_precisions,
)


class TestPrecision:
    def test_bits_match_values(self):
        assert Precision.FP64.bits == 64
        assert Precision.INT8.bits == 8

    def test_bytes_fractional_for_int4(self):
        assert Precision.INT4.bytes == 0.5

    def test_str_lowercase(self):
        assert str(Precision.BF16) == "bf16"


class TestLadder:
    def test_ladder_strictly_narrowing(self):
        bits = [p.bits for p in PRECISION_LADDER]
        assert bits == sorted(bits, reverse=True)

    def test_narrower_of_fp64_excludes_fp64(self):
        narrower = narrower_precisions(Precision.FP64)
        assert Precision.FP64 not in narrower
        assert Precision.FP32 in narrower
        assert Precision.INT4 in narrower

    def test_narrower_of_int4_is_empty(self):
        assert narrower_precisions(Precision.INT4) == ()

    def test_analog_treated_as_int8(self):
        assert narrower_precisions(Precision.ANALOG) == narrower_precisions(
            Precision.INT8
        )

    def test_narrower_preserves_order(self):
        narrower = narrower_precisions(Precision.FP32)
        bits = [p.bits for p in narrower]
        assert bits == sorted(bits, reverse=True)
