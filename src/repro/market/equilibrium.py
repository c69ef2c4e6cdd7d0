"""Theoretical supply/demand equilibrium for validating the simulated market.

Given provider cost floors (each supplying its capacity when price >= cost)
and consumer valuations (each demanding its quantity when price <= value),
the competitive equilibrium price is where aggregate supply meets aggregate
demand. The C10 experiment checks that the agent-based simulation's
clearing price converges near this value — the paper's "the market is
always right" equilibrium.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.errors import MarketError

#: (threshold_price, quantity) pairs: a supplier sells ``quantity`` at any
#: price >= threshold; a consumer buys ``quantity`` at any price <= threshold.
Curve = Sequence[Tuple[float, float]]


def supply_at(price: float, suppliers: Curve) -> float:
    """Aggregate quantity supplied at a price."""
    if price < 0:
        raise MarketError("price must be non-negative")
    return sum(quantity for cost, quantity in suppliers if price >= cost)


def demand_at(price: float, consumers: Curve) -> float:
    """Aggregate quantity demanded at a price."""
    if price < 0:
        raise MarketError("price must be non-negative")
    return sum(quantity for valuation, quantity in consumers if price <= valuation)


def clearing_price(
    suppliers: Curve, consumers: Curve, unit: float = 1.0
) -> Tuple[float, float]:
    """The competitive equilibrium ``(price, quantity)``.

    Uses the standard double-auction breakeven construction: expand both
    curves into ``unit``-sized steps, sort supply ascending by cost and
    demand descending by valuation, and find the largest quantity ``q*``
    where the q-th buyer still values the unit at or above the q-th
    seller's cost. The equilibrium price is the midpoint of the breakeven
    interval ``[cost(q*), valuation(q*)]`` — with step curves the
    equilibrium is an interval and any point in it clears the market.
    """
    if not suppliers or not consumers:
        raise MarketError("need at least one supplier and one consumer")
    if unit <= 0:
        raise MarketError("unit must be positive")
    asks: List[float] = []
    for cost, quantity in suppliers:
        asks.extend([cost] * int(round(quantity / unit)))
    bids: List[float] = []
    for valuation, quantity in consumers:
        bids.extend([valuation] * int(round(quantity / unit)))
    asks.sort()
    bids.sort(reverse=True)
    matched = 0
    for ask, bid in zip(asks, bids):
        if bid >= ask:
            matched += 1
        else:
            break
    if matched == 0:
        # No gains from trade: price settles between the best ask and bid.
        price = (asks[0] + bids[0]) / 2.0
        return price, 0.0
    lower = asks[matched - 1]
    upper = bids[matched - 1]
    # Competition from the first excluded traders tightens the interval.
    if matched < len(asks):
        upper = min(upper, max(asks[matched], lower))
    if matched < len(bids):
        lower = max(lower, min(bids[matched], upper))
    price = (lower + upper) / 2.0
    return price, matched * unit
