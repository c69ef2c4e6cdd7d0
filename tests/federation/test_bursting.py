"""Tests for bursting and the delivery-stage staircase (§III.G)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.federation.bursting import BurstingPolicy, DeliveryStage
from repro.federation.site import Site, SiteKind
from repro.workloads.hpc import dense_linear_algebra, sparse_solver


@pytest.fixture
def sites():
    home = Site(name="home", kind=SiteKind.ON_PREMISE)
    cloud_a = Site(name="cloud-a", kind=SiteKind.CLOUD)
    cloud_b = Site(name="cloud-b", kind=SiteKind.CLOUD)
    partner = Site(name="partner", kind=SiteKind.ON_PREMISE)
    supercomputer = Site(name="super", kind=SiteKind.SUPERCOMPUTER)
    return home, [home, cloud_a, cloud_b, partner, supercomputer]


class TestDeliveryStage:
    def test_stage_zero_home_only(self, sites):
        home, all_sites = sites
        assert DeliveryStage.ON_PREMISE_ONLY.allowed_sites(home, all_sites) == [home]

    def test_bursting_adds_one_cloud(self, sites):
        home, all_sites = sites
        allowed = DeliveryStage.BURSTING.allowed_sites(home, all_sites)
        assert home in allowed
        assert len([s for s in allowed if s.kind is SiteKind.CLOUD]) == 1

    def test_fluidity_excludes_supercomputer(self, sites):
        home, all_sites = sites
        allowed = DeliveryStage.FLUIDITY.allowed_sites(home, all_sites)
        assert all(s.kind is not SiteKind.SUPERCOMPUTER for s in allowed)

    def test_exchange_allows_everything(self, sites):
        home, all_sites = sites
        allowed = DeliveryStage.OPEN_EXCHANGE.allowed_sites(home, all_sites)
        assert allowed == all_sites

    def test_stages_widen_monotonically(self, sites):
        """Each staircase step strictly widens (or keeps) placement freedom."""
        home, all_sites = sites
        previous = set()
        for stage in DeliveryStage:
            current = {s.name for s in stage.allowed_sites(home, all_sites)}
            assert previous <= current
            previous = current

    def test_descriptions_exist(self):
        for stage in DeliveryStage:
            assert stage.description


class TestBurstingPolicy:
    def make_insensitive_job(self):
        return dense_linear_algebra(matrix_dim=2000, ranks=4)

    def make_sensitive_job(self):
        return sparse_solver(unknowns=1_000_000, iterations=500, ranks=64)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            BurstingPolicy(queue_threshold=-1.0)
        with pytest.raises(ConfigurationError):
            BurstingPolicy(burst_premium=0.5)

    def test_short_queue_stays_home(self):
        policy = BurstingPolicy(queue_threshold=3600.0)
        assert not policy.should_burst(self.make_insensitive_job(), 60.0)

    def test_long_queue_bursts(self):
        policy = BurstingPolicy(queue_threshold=3600.0)
        assert policy.should_burst(self.make_insensitive_job(), 7200.0)

    def test_sync_sensitive_never_bursts(self):
        """§II.C: cloud noise makes barrier codes ineffective, so they stay."""
        policy = BurstingPolicy(queue_threshold=0.0)
        assert not policy.should_burst(self.make_sensitive_job(), 1e9)

    def test_burst_budget_enforced(self):
        policy = BurstingPolicy(queue_threshold=0.0, max_burst_fraction=0.5)
        job = self.make_insensitive_job()
        decisions = [policy.should_burst(job, 1e6) for _ in range(20)]
        assert 0.3 <= sum(decisions) / len(decisions) <= 0.6

    def test_burst_rate(self):
        policy = BurstingPolicy(queue_threshold=0.0, max_burst_fraction=1.0)
        assert policy.burst_rate == 0.0
        job = self.make_insensitive_job()
        policy.should_burst(job, 1e6)
        assert policy.burst_rate > 0
