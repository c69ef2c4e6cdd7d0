"""The compute exchange and its round-based market simulation.

:class:`ComputeExchange` hosts one :class:`~repro.market.orderbook.OrderBook`
per :class:`ResourceClass` and settles trades into agent accounts, checking
the paper's "zero-summed game" invariant: cash is conserved across agents
(every dollar a buyer spends lands in a seller's account).

:class:`MarketSimulation` runs rounds: each round every agent quotes, the
books match continuously, and price/volume history is recorded. Equilibrium
detection watches the relative dispersion of recent clearing prices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import mean, std
from repro.core.errors import MarketError
from repro.core.rng import RandomSource
from repro.market.agents import Agent, MarketView
from repro.market.orderbook import OrderBook
from repro.market.orders import Order, Side, Trade


@dataclass(frozen=True)
class ResourceClass:
    """A tradable compute resource class, e.g. GPU-hours.

    ``unit`` is descriptive; the symbol is the book key.
    """

    symbol: str
    description: str = ""
    unit: str = "device-hour"


class ComputeExchange:
    """Books plus settlement accounts for a set of agents."""

    def __init__(self, resources: Sequence[ResourceClass]) -> None:
        if not resources:
            raise MarketError("exchange needs at least one resource class")
        self.resources = {r.symbol: r for r in resources}
        self.books: Dict[str, OrderBook] = {
            r.symbol: OrderBook(r.symbol) for r in resources
        }
        self.agents: Dict[str, Agent] = {}

    def register(self, agent: Agent) -> Agent:
        if agent.agent_id in self.agents:
            raise MarketError(f"duplicate agent id: {agent.agent_id}")
        self.agents[agent.agent_id] = agent
        return agent

    def book(self, symbol: str) -> OrderBook:
        try:
            return self.books[symbol]
        except KeyError:
            raise MarketError(f"unknown resource class: {symbol!r}") from None

    def submit(self, order: Order, now: float = 0.0) -> List[Trade]:
        """Submit an order, match it, and settle resulting trades."""
        if order.agent_id not in self.agents:
            raise MarketError(f"unregistered agent: {order.agent_id}")
        trades = self.book(order.resource).submit(order, now)
        for trade in trades:
            self._settle(trade)
        return trades

    def _settle(self, trade: Trade) -> None:
        buyer = self.agents[trade.buyer_id]
        seller = self.agents[trade.seller_id]
        buyer.on_buy(trade.quantity, trade.price)
        seller.on_sell(trade.quantity, trade.price)

    def total_cash(self) -> float:
        """Sum of all agent cash — conserved by settlement (zero-sum)."""
        return sum(agent.cash for agent in self.agents.values())

    def total_volume(self, symbol: str) -> float:
        return sum(t.quantity for t in self.book(symbol).trades)


class MarketSimulation:
    """Round-based simulation of one resource class's market.

    Parameters
    ----------
    exchange:
        The exchange (agents must already be registered).
    symbol:
        Resource class to simulate.
    clear_books_each_round:
        When True, unfilled resting orders expire at the round boundary
        (capacity is perishable); when False the book persists.
    """

    def __init__(
        self,
        exchange: ComputeExchange,
        symbol: str,
        rng: Optional[RandomSource] = None,
        clear_books_each_round: bool = True,
    ) -> None:
        self.exchange = exchange
        self.symbol = symbol
        self.rng = rng or RandomSource(seed=23, name="market")
        self.clear_books_each_round = clear_books_each_round
        self.price_history: List[float] = []
        self.volume_history: List[float] = []

    def run_round(self, round_index: int) -> None:
        """One market round: all agents quote (in random order), matching live."""
        book = self.exchange.book(self.symbol)
        agents = list(self.exchange.agents.values())
        self.rng.shuffle(agents)
        round_trades: List[Trade] = []
        for agent in agents:
            view = MarketView(
                resource=self.symbol,
                round_index=round_index,
                best_bid=book.best_bid,
                best_ask=book.best_ask,
                last_price=book.last_trade_price(),
                price_history=self.price_history,
            )
            for order in agent.quote(view, self.rng):
                round_trades.extend(self.exchange.submit(order, now=float(round_index)))
        if round_trades:
            volume = sum(t.quantity for t in round_trades)
            vwap = sum(t.notional for t in round_trades) / volume
            self.price_history.append(vwap)
            self.volume_history.append(volume)
        else:
            self.volume_history.append(0.0)
        if self.clear_books_each_round:
            for agent in agents:
                book.cancel_agent_orders(agent.agent_id)

    def run(self, rounds: int) -> None:
        """Run ``rounds`` market rounds."""
        if rounds <= 0:
            raise MarketError("rounds must be positive")
        start = len(self.volume_history)
        for round_index in range(start, start + rounds):
            self.run_round(round_index)

    # --- analysis -----------------------------------------------------------

    def equilibrium_round(self, window: int = 10, tolerance: float = 0.02) -> Optional[int]:
        """First round after which prices stay within ``tolerance`` relative
        dispersion over a trailing ``window`` — the paper's "eventually
        reaches equilibrium". None if never converged."""
        prices = self.price_history
        if len(prices) < window:
            return None
        for end in range(window, len(prices) + 1):
            segment = [float(p) for p in prices[end - window:end]]
            centre = mean(segment)
            if centre > 0 and std(segment) / centre <= tolerance:
                return end - window
        return None

    def mean_price(self, last: Optional[int] = None) -> float:
        prices = self.price_history[-last:] if last else self.price_history
        if not prices:
            raise MarketError("no trades occurred")
        return mean([float(p) for p in prices])
