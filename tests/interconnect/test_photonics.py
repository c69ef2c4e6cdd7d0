"""Tests for the silicon-photonics escape bandwidth."""

import pytest

from repro.core.errors import ConfigurationError
from repro.interconnect.photonics import escape_bandwidth_tbps


class TestEscapeBandwidth:
    def test_hundreds_of_fibres_scale(self):
        """§III.C: 'hundreds of fibres from each switch ASIC' — 256 fibres
        of 8x100G WDM give 204.8 Tbps of escape, far past the SerDes wall."""
        assert escape_bandwidth_tbps(256) == pytest.approx(204.8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            escape_bandwidth_tbps(0)
