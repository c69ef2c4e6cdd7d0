"""Tests for the switch ASIC scaling model."""

import pytest

from repro.core.errors import ConfigurationError
from repro.interconnect.switch import (
    RETICLE_LIMIT_MM2,
    SwitchGeneration,
    SwitchSpec,
    roadmap,
)


class TestSwitchSpec:

    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            SwitchSpec(radix=0, port_gbps=100.0)
        with pytest.raises(ConfigurationError):
            SwitchSpec(radix=64, port_gbps=100.0, process_scale=0.0)

    def test_serdes_area_independent_of_process(self):
        old = SwitchSpec(radix=64, port_gbps=400.0, process_scale=1.0)
        new = SwitchSpec(radix=64, port_gbps=400.0, process_scale=0.5)
        assert old.serdes_area() == new.serdes_area()
        assert new.core_area() < old.core_area()

    def test_serdes_fraction_grows_across_generations(self):
        """§II.B: 'much of their area is taken up by SerDes' — and it gets
        worse each generation because SerDes does not shrink."""
        generations = roadmap()
        fractions = [g.spec.serdes_fraction() for g in generations]
        assert fractions == sorted(fractions)
        assert fractions[-1] > 0.5


class TestScalingWall:
    def test_paper_roadmap_names(self):
        names = [g.name for g in roadmap()]
        assert names[0].startswith("12.8T")
        assert names[1].startswith("25.6T")

    def test_one_more_natural_step(self):
        """§II.B: 25.6 Tbps is manufacturable; beyond needs radical change."""
        generations = roadmap()
        assert generations[0].spec.is_manufacturable()
        assert generations[1].spec.is_manufacturable()
        assert not generations[3].spec.is_manufacturable()

    def test_optical_escape_recovers_manufacturability(self):
        """§III.C: SiPh escape brings big switches back under the reticle."""
        big = roadmap()[3].spec
        assert not big.is_manufacturable()
        rescued = big.with_optical_escape(0.9)
        assert rescued.die_area() < big.die_area()

    def test_escape_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            roadmap()[0].spec.with_optical_escape(1.5)

    def test_throughput_doubles_each_generation(self):
        generations = roadmap()
        for earlier, later in zip(generations, generations[1:]):
            assert later.throughput_tbps == pytest.approx(2 * earlier.throughput_tbps)
