"""Tests for theoretical supply/demand equilibrium."""

import pytest

from repro.core.errors import MarketError
from repro.market.equilibrium import (
    clearing_price,
    demand_at,
    supply_at,
)

SUPPLIERS = [(1.0, 10), (1.5, 10), (2.0, 10)]
CONSUMERS = [(3.0, 10), (1.8, 10), (1.2, 10)]


class TestCurves:
    def test_supply_monotone_in_price(self):
        assert supply_at(0.5, SUPPLIERS) == 0
        assert supply_at(1.0, SUPPLIERS) == 10
        assert supply_at(2.5, SUPPLIERS) == 30

    def test_demand_antimonotone_in_price(self):
        assert demand_at(0.5, CONSUMERS) == 30
        assert demand_at(2.0, CONSUMERS) == 10
        assert demand_at(3.5, CONSUMERS) == 0

    def test_negative_price_rejected(self):
        with pytest.raises(MarketError):
            supply_at(-1.0, SUPPLIERS)


class TestClearingPrice:
    def test_crossing_in_expected_interval(self):
        price, quantity = clearing_price(SUPPLIERS, CONSUMERS)
        # Supply(1.5..1.8) = 20, demand(1.5..1.8) = 20 -> interval [1.5, 1.8].
        assert 1.5 <= price <= 1.8
        assert quantity == 20

    def test_empty_curves_rejected(self):
        with pytest.raises(MarketError):
            clearing_price([], CONSUMERS)

    def test_supply_demand_balance_at_price(self):
        price, quantity = clearing_price(SUPPLIERS, CONSUMERS)
        assert min(supply_at(price, SUPPLIERS), demand_at(price, CONSUMERS)) == quantity

    def test_scarce_supply_high_price(self):
        scarce = [(1.0, 5)]
        eager = [(10.0, 50), (9.0, 50)]
        price, quantity = clearing_price(scarce, eager)
        assert quantity == 5
        assert price > 1.0
