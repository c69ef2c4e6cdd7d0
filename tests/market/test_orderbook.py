"""Tests for orders and the limit order book."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import MarketError
from repro.market.orderbook import OrderBook
from repro.market.orders import Order, Side, Trade


def bid(price, quantity=10.0, agent="buyer", resource="gpu-hour"):
    return Order(side=Side.BID, price=price, quantity=quantity,
                 agent_id=agent, resource=resource)


def ask(price, quantity=10.0, agent="seller", resource="gpu-hour"):
    return Order(side=Side.ASK, price=price, quantity=quantity,
                 agent_id=agent, resource=resource)


class TestOrder:
    def test_rejects_nonpositive_price(self):
        with pytest.raises(MarketError):
            bid(0.0)

    def test_rejects_nonpositive_quantity(self):
        with pytest.raises(MarketError):
            bid(1.0, quantity=0.0)

    def test_trade_notional(self):
        trade = Trade("gpu-hour", 2.0, 5.0, "b", "s", 0.0)
        assert trade.notional == 10.0


class TestMatching:
    def test_crossing_orders_trade(self):
        book = OrderBook("gpu-hour")
        book.submit(ask(1.0))
        trades = book.submit(bid(1.2))
        assert len(trades) == 1
        assert trades[0].price == 1.0  # resting order's price
        assert trades[0].quantity == 10.0

    def test_non_crossing_orders_rest(self):
        book = OrderBook("gpu-hour")
        book.submit(ask(2.0))
        trades = book.submit(bid(1.0))
        assert trades == []
        assert book.best_bid == 1.0
        assert book.best_ask == 2.0

    def test_partial_fill_rests_remainder(self):
        book = OrderBook("gpu-hour")
        book.submit(ask(1.0, quantity=4.0))
        trades = book.submit(bid(1.5, quantity=10.0))
        assert trades[0].quantity == 4.0
        assert book.best_bid == 1.5
        assert book.depth(Side.BID) == pytest.approx(6.0)

    def test_sweeps_multiple_levels(self):
        book = OrderBook("gpu-hour")
        book.submit(ask(1.0, quantity=3.0, agent="s1"))
        book.submit(ask(1.1, quantity=3.0, agent="s2"))
        trades = book.submit(bid(1.2, quantity=5.0))
        assert len(trades) == 2
        assert trades[0].price == 1.0
        assert trades[1].price == pytest.approx(1.1)
        assert sum(t.quantity for t in trades) == pytest.approx(5.0)

    def test_price_priority(self):
        book = OrderBook("gpu-hour")
        book.submit(ask(1.5, agent="expensive"))
        book.submit(ask(1.0, agent="cheap"))
        trades = book.submit(bid(2.0, quantity=10.0))
        assert trades[0].seller_id == "cheap"

    def test_time_priority_at_same_price(self):
        book = OrderBook("gpu-hour")
        book.submit(ask(1.0, agent="early"), now=0.0)
        book.submit(ask(1.0, agent="late"), now=1.0)
        trades = book.submit(bid(1.0, quantity=10.0), now=2.0)
        assert trades[0].seller_id == "early"

    def test_wrong_resource_rejected(self):
        book = OrderBook("gpu-hour")
        with pytest.raises(MarketError):
            book.submit(bid(1.0, resource="cpu-hour"))


class TestBookMaintenance:

    def test_cancel_agent_orders(self):
        book = OrderBook("gpu-hour")
        book.submit(ask(1.0, agent="a"))
        book.submit(ask(1.1, agent="a"))
        book.submit(bid(0.5, agent="b"))
        assert book.cancel_agent_orders("a") == 2
        assert book.best_ask is None
        assert book.best_bid == 0.5

    def test_last_trade_price(self):
        book = OrderBook("gpu-hour")
        assert book.last_trade_price() is None
        book.submit(ask(1.0))
        book.submit(bid(1.5))
        assert book.last_trade_price() == 1.0


class TestInvariants:
    @given(
        orders=st.lists(
            st.tuples(
                st.sampled_from(["bid", "ask"]),
                st.floats(min_value=0.1, max_value=10.0),
                st.floats(min_value=0.1, max_value=100.0),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50)
    def test_book_never_crossed_and_quantity_conserved(self, orders):
        """After any order sequence: the book is uncrossed, and traded +
        resting quantity equals submitted quantity per side."""
        book = OrderBook("gpu-hour")
        submitted = {"bid": 0.0, "ask": 0.0}
        for index, (side, price, quantity) in enumerate(orders):
            order = Order(
                side=Side.BID if side == "bid" else Side.ASK,
                price=price,
                quantity=quantity,
                agent_id=f"agent{index}",
                resource="gpu-hour",
            )
            submitted[side] += quantity
            book.submit(order, now=float(index))
            assert not book.is_crossed()
        traded = sum(t.quantity for t in book.trades)
        assert traded + book.depth(Side.BID) == pytest.approx(submitted["bid"])
        assert traded + book.depth(Side.ASK) == pytest.approx(submitted["ask"])

    @given(
        orders=st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=5.0),
                st.floats(min_value=0.1, max_value=5.0),
            ),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=40)
    def test_trades_within_limit_prices(self, orders):
        """No buyer ever pays above its limit; no seller below its limit."""
        book = OrderBook("gpu-hour")
        limits = {}
        for index, (bid_price, ask_price) in enumerate(orders):
            buy = Order(side=Side.BID, price=bid_price, quantity=1.0,
                        agent_id=f"b{index}", resource="gpu-hour")
            sell = Order(side=Side.ASK, price=ask_price, quantity=1.0,
                         agent_id=f"s{index}", resource="gpu-hour")
            limits[f"b{index}"] = bid_price
            limits[f"s{index}"] = ask_price
            book.submit(buy, now=float(index))
            book.submit(sell, now=float(index))
        for trade in book.trades:
            assert trade.price <= limits[trade.buyer_id] + 1e-9
            assert trade.price >= limits[trade.seller_id] - 1e-9
