"""The Open Compute Exchange: a market for compute resources.

The paper (§III.F): "an Open Compute Exchange would enable trading of
resources between sites and users, providers and consumers, and would pave
the way to a true commoditization of workflows ... the underlying economic
model is nothing but a non-cooperative, zero-summed game, that eventually
reaches equilibrium."

Components:

* :mod:`repro.market.orders` / :mod:`repro.market.orderbook` — limit
  orders and a price-time-priority book with a matching engine,
* :mod:`repro.market.exchange` — the exchange: instruments (resource
  classes), clearing, and zero-sum settlement accounting,
* :mod:`repro.market.agents` — provider, consumer, broker (market maker)
  and speculator strategies, as the paper enumerates,
* :mod:`repro.market.equilibrium` — theoretical supply/demand equilibrium
  to validate that the simulated market converges to it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".agents": (
        "Agent", "BrokerAgent", "ConsumerAgent", "ProviderAgent",
        "SpeculatorAgent",
    ),
    ".equilibrium": ("clearing_price", "demand_at", "supply_at"),
    ".exchange": ("ComputeExchange", "MarketSimulation", "ResourceClass"),
    ".orderbook": ("OrderBook",),
    ".orders": ("Order", "Side", "Trade"),
    ".procurement": (
        "CapacityOffer", "CapacityProcurer", "ProcurementResult",
        "market_savings", "on_demand_cost",
    ),
})

__all__ = [
    "Agent",
    "BrokerAgent",
    "CapacityOffer",
    "CapacityProcurer",
    "ComputeExchange",
    "ProcurementResult",
    "market_savings",
    "on_demand_cost",
    "ConsumerAgent",
    "MarketSimulation",
    "Order",
    "OrderBook",
    "ProviderAgent",
    "ResourceClass",
    "Side",
    "SpeculatorAgent",
    "Trade",
    "clearing_price",
    "demand_at",
    "supply_at",
]
