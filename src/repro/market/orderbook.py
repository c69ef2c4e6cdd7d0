"""A price-time-priority limit order book with continuous matching.

Bids are kept best (highest) first, asks best (lowest) first; an incoming
order crosses the book while prices overlap, executing at the resting
order's price — the standard continuous double auction used by the
commodity exchanges the paper invokes ("similar to existing commodity
exchange, e.g., the Chicago Mercantile", §III.F).
"""

from __future__ import annotations

import bisect
from typing import List, Optional

from repro.core.errors import MarketError
from repro.market.orders import Order, Side, Trade


class OrderBook:
    """One resource class's resting orders and trade tape."""

    def __init__(self, resource: str) -> None:
        self.resource = resource
        self._bids: List[Order] = []  # sorted descending by (price, -time)
        self._asks: List[Order] = []  # sorted ascending by (price, time)
        self.trades: List[Trade] = []

    # --- views ------------------------------------------------------------------

    @property
    def best_bid(self) -> Optional[float]:
        return self._bids[0].price if self._bids else None

    @property
    def best_ask(self) -> Optional[float]:
        return self._asks[0].price if self._asks else None

    def last_trade_price(self) -> Optional[float]:
        return self.trades[-1].price if self.trades else None

    def depth(self, side: Side) -> float:
        """Total resting quantity on a side."""
        book = self._bids if side is Side.BID else self._asks
        return sum(order.quantity for order in book)

    # --- matching -------------------------------------------------------------------

    def submit(self, order: Order, now: float = 0.0) -> List[Trade]:
        """Match an incoming order against the book; rest any remainder.

        Returns the trades executed. Raises for wrong-resource orders.
        """
        if order.resource != self.resource:
            raise MarketError(
                f"order for {order.resource!r} submitted to {self.resource!r} book"
            )
        order.timestamp = now
        executed: List[Trade] = []
        if order.side is Side.BID:
            executed = self._match(order, self._asks, now)
            if not order.is_filled:
                self._insert_bid(order)
        else:
            executed = self._match(order, self._bids, now)
            if not order.is_filled:
                self._insert_ask(order)
        self.trades.extend(executed)
        return executed

    def _match(self, incoming: Order, book: List[Order], now: float) -> List[Trade]:
        trades: List[Trade] = []
        while book and not incoming.is_filled:
            resting = book[0]
            crosses = (
                incoming.price >= resting.price
                if incoming.side is Side.BID
                else incoming.price <= resting.price
            )
            if not crosses:
                break
            quantity = min(incoming.quantity, resting.quantity)
            buyer = incoming if incoming.side is Side.BID else resting
            seller = resting if incoming.side is Side.BID else incoming
            trades.append(
                Trade(
                    resource=self.resource,
                    price=resting.price,
                    quantity=quantity,
                    buyer_id=buyer.agent_id,
                    seller_id=seller.agent_id,
                    timestamp=now,
                )
            )
            incoming.quantity -= quantity
            resting.quantity -= quantity
            if resting.is_filled:
                book.pop(0)
        return trades

    def _insert_bid(self, order: Order) -> None:
        keys = [(-o.price, o.timestamp, o.order_id) for o in self._bids]
        bisect.insort(keys, (-order.price, order.timestamp, order.order_id))
        index = keys.index((-order.price, order.timestamp, order.order_id))
        self._bids.insert(index, order)

    def _insert_ask(self, order: Order) -> None:
        keys = [(o.price, o.timestamp, o.order_id) for o in self._asks]
        bisect.insort(keys, (order.price, order.timestamp, order.order_id))
        index = keys.index((order.price, order.timestamp, order.order_id))
        self._asks.insert(index, order)

    # --- maintenance ------------------------------------------------------------------

    def cancel_agent_orders(self, agent_id: str) -> int:
        """Cancel all resting orders of an agent; returns the count."""
        removed = 0
        for book in (self._bids, self._asks):
            keep = [o for o in book if o.agent_id != agent_id]
            removed += len(book) - len(keep)
            book[:] = keep
        return removed

    def is_crossed(self) -> bool:
        """A healthy book is never crossed after matching."""
        if self._bids and self._asks:
            return self._bids[0].price >= self._asks[0].price
        return False
