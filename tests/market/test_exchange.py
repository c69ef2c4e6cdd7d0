"""Tests for the compute exchange and market simulation (C10)."""

import numpy as np
import pytest

from repro.core.errors import MarketError
from repro.core.rng import RandomSource
from repro.market.agents import BrokerAgent, ConsumerAgent, ProviderAgent
from repro.market.equilibrium import clearing_price
from repro.market.exchange import ComputeExchange, MarketSimulation, ResourceClass
from repro.market.orders import Order, Side


def build_market(providers=6, consumers=8, broker=True, seed=23):
    exchange = ComputeExchange([ResourceClass("gpu-hour", "GPU device hours")])
    suppliers, demanders = [], []
    for index in range(providers):
        cost = 0.8 + 0.1 * index
        exchange.register(
            ProviderAgent(f"prov{index}", marginal_cost=cost, capacity_per_round=20)
        )
        suppliers.append((cost, 20))
    for index in range(consumers):
        valuation = 1.0 + 0.15 * index
        exchange.register(
            ConsumerAgent(f"cons{index}", valuation=valuation, demand_per_round=12)
        )
        demanders.append((valuation, 12))
    if broker:
        exchange.register(BrokerAgent("broker"))
    simulation = MarketSimulation(
        exchange, "gpu-hour", rng=RandomSource(seed=seed)
    )
    return exchange, simulation, suppliers, demanders


class TestExchange:
    def test_requires_resources(self):
        with pytest.raises(MarketError):
            ComputeExchange([])

    def test_duplicate_agent_rejected(self):
        exchange = ComputeExchange([ResourceClass("x")])
        exchange.register(BrokerAgent("b"))
        with pytest.raises(MarketError):
            exchange.register(BrokerAgent("b"))

    def test_unregistered_agent_rejected(self):
        exchange = ComputeExchange([ResourceClass("x")])
        order = Order(side=Side.BID, price=1.0, quantity=1.0,
                      agent_id="ghost", resource="x")
        with pytest.raises(MarketError):
            exchange.submit(order)

    def test_unknown_resource_rejected(self):
        exchange = ComputeExchange([ResourceClass("x")])
        with pytest.raises(MarketError):
            exchange.book("y")

    def test_settlement_moves_cash_and_inventory(self):
        exchange = ComputeExchange([ResourceClass("x")])
        seller = ProviderAgent("s", marginal_cost=1.0, capacity_per_round=10)
        buyer = ConsumerAgent("b", valuation=2.0, demand_per_round=10)
        exchange.register(seller)
        exchange.register(buyer)
        exchange.submit(Order(side=Side.ASK, price=1.5, quantity=5.0,
                              agent_id="s", resource="x"))
        exchange.submit(Order(side=Side.BID, price=1.5, quantity=5.0,
                              agent_id="b", resource="x"))
        assert seller.cash == pytest.approx(7.5)
        assert buyer.inventory == pytest.approx(5.0)
        assert exchange.total_volume("x") == pytest.approx(5.0)


class TestZeroSum:
    def test_cash_conserved_through_trading(self):
        """The paper's 'zero-summed game': settlement conserves total cash."""
        exchange, simulation, *_ = build_market()
        cash_before = exchange.total_cash()
        simulation.run(40)
        assert exchange.total_cash() == pytest.approx(cash_before)


class TestEquilibrium:
    def test_price_converges_near_theory(self):
        """The agent market's steady-state price lands near the
        supply/demand crossing ('eventually reaches equilibrium')."""
        _, simulation, suppliers, demanders = build_market()
        simulation.run(80)
        theory, _ = clearing_price(suppliers, demanders)
        simulated = simulation.mean_price(last=20)
        assert simulated == pytest.approx(theory, rel=0.15)

    def test_equilibrium_detected(self):
        _, simulation, *_ = build_market()
        simulation.run(80)
        assert simulation.equilibrium_round(tolerance=0.05) is not None

    def test_price_dispersion_shrinks(self):
        _, simulation, *_ = build_market()
        simulation.run(80)
        prices = np.array(simulation.price_history)
        early = prices[:10].std() / prices[:10].mean()
        late = prices[-10:].std() / prices[-10:].mean()
        assert late <= early

    def test_extra_marginal_consumers_never_trade(self):
        """A consumer valuing below every cost floor must stay unfilled."""
        exchange = ComputeExchange([ResourceClass("x")])
        exchange.register(
            ProviderAgent("p", marginal_cost=2.0, capacity_per_round=10)
        )
        cheap = ConsumerAgent("cheap", valuation=0.5, demand_per_round=5)
        exchange.register(cheap)
        simulation = MarketSimulation(exchange, "x", rng=RandomSource(seed=1))
        simulation.run(30)
        assert cheap.inventory == 0.0


class TestLiquidity:
    def test_broker_increases_trading_volume(self):
        """§III.F: a broker-made market is 'a lot more liquid'."""
        _, with_broker, *_ = build_market(broker=True, seed=9)
        _, without_broker, *_ = build_market(broker=False, seed=9)
        with_broker.run(60)
        without_broker.run(60)
        assert sum(with_broker.volume_history) >= sum(without_broker.volume_history)


class TestValidation:
    def test_mean_price_requires_trades(self):
        exchange = ComputeExchange([ResourceClass("x")])
        simulation = MarketSimulation(exchange, "x")
        with pytest.raises(MarketError):
            simulation.mean_price()

    def test_run_rejects_nonpositive_rounds(self):
        exchange = ComputeExchange([ResourceClass("x")])
        simulation = MarketSimulation(exchange, "x")
        with pytest.raises(MarketError):
            simulation.run(0)
