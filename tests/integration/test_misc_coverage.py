"""Tests for smaller API surfaces not covered elsewhere."""

import pytest

from repro.core.rng import RandomSource
from repro.federation.bursting import DeliveryStage
from repro.federation.site import Site, SiteKind
from repro.hardware.device import DeviceKind, KernelProfile
from repro.market.agents import BrokerAgent, ConsumerAgent, ProviderAgent
from repro.market.exchange import ComputeExchange, MarketSimulation, ResourceClass
from repro.market.orders import Side
from repro.workloads.base import JobClass, Phase, PhaseKind, Task, Job


class TestSiteQueries:
    def test_devices_of_kind(self, catalog):
        cpu = catalog.get("epyc-class-cpu")
        gpu = catalog.get("hpc-gpu")
        site = Site(name="s", kind=SiteKind.ON_PREMISE, devices={cpu: 2, gpu: 2})
        assert site.devices_of_kind(DeviceKind.GPU) == [gpu]
        assert site.devices_of_kind(DeviceKind.ANALOG) == []

    def test_device_list(self, catalog):
        cpu = catalog.get("epyc-class-cpu")
        site = Site(name="s", kind=SiteKind.ON_PREMISE, devices={cpu: 2})
        assert site.device_list == [cpu]


class TestFederationSlices:
    def test_horizontal_slice(self, small_federation):
        clouds = small_federation.horizontal_slice(SiteKind.CLOUD)
        assert [s.name for s in clouds] == ["cloud"]

    def test_all_devices_deduplicates(self, small_federation):
        names = [d.name for d in small_federation.all_devices()]
        assert len(names) == len(set(names))


class TestDeliveryStageEdgeCases:
    def test_bursting_without_any_cloud(self):
        home = Site(name="home", kind=SiteKind.ON_PREMISE)
        partner = Site(name="partner", kind=SiteKind.ON_PREMISE)
        allowed = DeliveryStage.BURSTING.allowed_sites(home, [home, partner])
        assert allowed == [home]  # nothing to burst to


class TestJobEdgeCases:
    def test_zero_byte_job_infinite_intensity(self):
        kernel = KernelProfile(flops=10.0, bytes_moved=0.0)
        task = Task(name="t", phases=[Phase(kind=PhaseKind.COMPUTE, kernel=kernel)])
        job = Job(name="j", job_class=JobClass.ANALYTICS, tasks=[task])
        assert job.arithmetic_intensity() == float("inf")

    def test_io_only_job_zero_intensity(self):
        task = Task(name="t", phases=[Phase(kind=PhaseKind.IO, io_bytes=10.0)])
        job = Job(name="j", job_class=JobClass.ANALYTICS, tasks=[task])
        assert job.arithmetic_intensity() == 0.0


class TestPersistentOrderBooks:
    def test_unfilled_orders_survive_rounds(self):
        """With clear_books_each_round=False, resting depth accumulates."""
        exchange = ComputeExchange([ResourceClass("x")])
        exchange.register(
            ProviderAgent("p", marginal_cost=5.0, capacity_per_round=10)
        )
        # No consumer can afford the ask: book should accumulate.
        exchange.register(ConsumerAgent("c", valuation=1.0, demand_per_round=5))
        simulation = MarketSimulation(
            exchange, "x", rng=RandomSource(seed=1),
            clear_books_each_round=False,
        )
        simulation.run(5)
        book = exchange.book("x")
        assert book.depth(Side.ASK) > 10.0  # multiple rounds resting
        assert book.depth(Side.BID) > 5.0

    def test_cleared_books_stay_empty(self):
        exchange = ComputeExchange([ResourceClass("x")])
        exchange.register(
            ProviderAgent("p", marginal_cost=5.0, capacity_per_round=10)
        )
        exchange.register(ConsumerAgent("c", valuation=1.0, demand_per_round=5))
        simulation = MarketSimulation(
            exchange, "x", rng=RandomSource(seed=1),
            clear_books_each_round=True,
        )
        simulation.run(5)
        book = exchange.book("x")
        assert book.depth(Side.ASK) == 0.0
        assert book.depth(Side.BID) == 0.0


class TestBrokerSoloMarket:
    def test_broker_alone_never_trades(self):
        """A market maker with no reference price and no counterparties
        produces no volume (and no crash)."""
        exchange = ComputeExchange([ResourceClass("x")])
        exchange.register(BrokerAgent("b"))
        simulation = MarketSimulation(exchange, "x", rng=RandomSource(seed=2))
        simulation.run(10)
        assert simulation.price_history == []
        assert exchange.total_volume("x") == 0.0
