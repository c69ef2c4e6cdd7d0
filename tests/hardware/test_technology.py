"""Tests for the technology-scaling model (the paper's §I premise, C13)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.hardware.technology import (
    GENERAL_PURPOSE,
    SPECIALIZED,
    ArchitectureModel,
    ProcessNode,
    default_roadmap,
    dennard_break_year,
)


class TestProcessNode:
    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            ProcessNode("bad", 2020, density=0.0, frequency=1.0, volts=1.0)

    def test_reference_power_density_is_one(self):
        reference = default_roadmap()[0]
        assert reference.power_density() == pytest.approx(1.0)

    def test_power_density_rises_post_dennard(self):
        """Voltage stalls -> power density climbs every generation."""
        roadmap = default_roadmap()
        densities = [node.power_density() for node in roadmap]
        assert densities == sorted(densities)
        assert densities[-1] > 5.0

    def test_lit_fraction_shrinks(self):
        """Dark silicon: ever less of the die can switch at fixed power."""
        roadmap = default_roadmap()
        lit = [node.lit_fraction() for node in roadmap]
        assert lit == sorted(lit, reverse=True)
        assert lit[0] == 1.0
        assert lit[-1] < 0.2

    def test_bigger_power_budget_lights_more(self):
        node = default_roadmap()[-1]
        assert node.lit_fraction(2.0) == pytest.approx(2 * node.lit_fraction(1.0))

    def test_lit_fraction_capped_at_one(self):
        node = default_roadmap()[0]
        assert node.lit_fraction(100.0) == 1.0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            default_roadmap()[0].lit_fraction(0.0)


class TestDennardBreak:
    def test_break_near_2005(self):
        """The paper dates the end of Dennard scaling to 'roughly 2005'."""
        year = dennard_break_year()
        assert 2005 <= year <= 2011


class TestArchitectures:
    def test_rejects_invalid_efficiency(self):
        with pytest.raises(ConfigurationError):
            ArchitectureModel("x", transistor_efficiency=0.0)

    def test_general_purpose_gains_decelerate(self):
        """Post-Dennard, per-generation GP gains shrink well below the
        historical ~2x per generation."""
        roadmap = default_roadmap()
        throughputs = [GENERAL_PURPOSE.throughput(node) for node in roadmap]
        early_gain = throughputs[1] / throughputs[0]
        late_gain = throughputs[-1] / throughputs[-2]
        assert late_gain < early_gain
        assert late_gain < 1.5

    def test_specialization_gap_is_constant_multiplier(self):
        node = default_roadmap()[-1]
        ratio = SPECIALIZED.throughput(node) / GENERAL_PURPOSE.throughput(node)
        assert ratio == pytest.approx(40.0)

    def test_specialization_outruns_two_process_nodes(self):
        """One specialisation step buys more than two process shrinks —
        why 'general purpose is no longer sufficient'."""
        roadmap = default_roadmap()
        specialized_now = SPECIALIZED.throughput(roadmap[-3])
        general_two_later = GENERAL_PURPOSE.throughput(roadmap[-1])
        assert specialized_now > general_two_later
