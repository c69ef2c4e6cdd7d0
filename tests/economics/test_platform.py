"""Tests for the platform economics model (C11)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.economics.platform import (
    PlatformCostModel,
    SiliconOption,
    default_silicon_ecosystem,
    standardization_savings,
)


@pytest.fixture
def model():
    return PlatformCostModel()


@pytest.fixture
def ecosystem():
    return default_silicon_ecosystem()


class TestSiliconOption:
    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            SiliconOption("x", board_complexity=0.0)

    def test_default_ecosystem_is_a_dozen_plus(self, ecosystem):
        """§III.E: 'more than a dozen configurations'."""
        assert len(ecosystem) >= 12


class TestCostRegimes:
    def test_custom_scales_with_vendors(self, model, ecosystem):
        five = model.custom_total_cost(ecosystem, vendors=5)
        ten = model.custom_total_cost(ecosystem, vendors=10)
        assert ten == pytest.approx(2 * five)

    def test_standard_nearly_flat_in_vendors(self, model, ecosystem):
        five = model.standard_total_cost(ecosystem, vendors=5)
        ten = model.standard_total_cost(ecosystem, vendors=10)
        assert ten / five < 1.5

    def test_standard_wins_at_industry_scale(self, model, ecosystem):
        """The paper's argument: with many vendors, standardisation is
        dramatically cheaper industry-wide."""
        custom = model.custom_total_cost(ecosystem, vendors=8)
        standard = model.standard_total_cost(ecosystem, vendors=8)
        assert standard < custom / 2

    def test_single_vendor_prefers_custom(self, model):
        option = [SiliconOption("only", board_complexity=1.0)]
        custom = model.custom_total_cost(option, vendors=1)
        standard = model.standard_total_cost(option, vendors=1)
        assert custom < standard  # premium not amortised by one vendor

    def test_rejects_nonpositive_vendors(self, model, ecosystem):
        with pytest.raises(ConfigurationError):
            model.custom_total_cost(ecosystem, vendors=0)


class TestSustainability:
    def test_standard_sustains_more_options(self, model):
        """§III.E quantified: under a fixed budget, the standard model
        sustains several times more silicon options."""
        budget = 100e6
        custom = model.sustainable_options(budget, vendors=8, standard=False)
        standard = model.sustainable_options(budget, vendors=8, standard=True)
        assert standard > 2 * custom

    def test_budget_validation(self, model):
        with pytest.raises(ConfigurationError):
            model.sustainable_options(0.0, vendors=8, standard=True)


class TestSavings:
    def test_savings_grow_with_vendor_count(self, model, ecosystem):
        savings = [
            standardization_savings(model, ecosystem, vendors=v)
            for v in (2, 4, 8, 16)
        ]
        assert savings == sorted(savings)
        assert savings[-1] > 0.7
