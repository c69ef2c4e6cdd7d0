"""Tests for unit constants and formatting."""

import pytest

from repro.core import units


class TestConstants:
    def test_time_constants_are_ordered(self):
        assert units.NANOSECOND < units.MICROSECOND < units.MILLISECOND < units.SECOND

    def test_size_constants_are_decimal(self):
        assert units.KB == 1e3
        assert units.GB == 1e9
        assert units.PB == 1e15

    def test_binary_constants(self):
        assert units.KIB == 1024
        assert units.GIB == 1024**3

    def test_gbit_per_s_is_bytes(self):
        assert units.GBIT_PER_S == pytest.approx(125e6)


class TestFormatTime:
    def test_zero(self):
        assert units.format_time(0) == "0 s"

    def test_seconds(self):
        assert units.format_time(1.5) == "1.5 s"

    def test_milliseconds(self):
        assert units.format_time(0.00125) == "1.25 ms"

    def test_microseconds(self):
        assert units.format_time(3.2e-6) == "3.2 us"

    def test_nanoseconds(self):
        assert units.format_time(5e-9) == "5 ns"

    def test_sub_nanosecond(self):
        assert "ns" in units.format_time(5e-12)

    def test_minutes_render_as_seconds(self):
        assert units.format_time(90.0) == "90 s"


class TestFormatBytes:
    def test_zero(self):
        assert units.format_bytes(0) == "0 B"

    def test_bytes(self):
        assert units.format_bytes(512) == "512 B"

    def test_gigabytes(self):
        assert units.format_bytes(4e9) == "4 GB"

    def test_petabytes(self):
        assert units.format_bytes(2.5e15) == "2.5 PB"


class TestFormatRate:
    def test_rate_suffix(self):
        assert units.format_rate(25e9) == "25 GB/s"
