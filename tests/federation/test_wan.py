"""Tests for the WAN model."""

import pytest

from repro.core.errors import ConfigurationError
from repro.federation.site import Site, SiteKind
from repro.federation.wan import WanLink, WanNetwork


def make_sites(*names):
    return [Site(name=n, kind=SiteKind.ON_PREMISE) for n in names]


class TestWanLink:
    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            WanLink(bandwidth=0.0, latency=0.01)

    def test_transfer_time(self):
        link = WanLink(bandwidth=1e9, latency=0.05)
        assert link.transfer_time(1e9) == pytest.approx(1.05)

    def test_transfer_dollars(self):
        link = WanLink(bandwidth=1e9, latency=0.05, cost_per_gb=0.08)
        assert link.transfer_dollars(10e9) == pytest.approx(0.80)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            WanLink(bandwidth=1e9, latency=0.0).transfer_time(-1)


class TestWanNetwork:
    def test_same_site_transfer_is_free(self):
        wan = WanNetwork()
        (a,) = make_sites("a")
        wan.add_site(a)
        assert wan.transfer_time(a, a, 1e12) == 0.0

    def test_direct_transfer(self):
        wan = WanNetwork()
        a, b = make_sites("a", "b")
        wan.connect(a, b, WanLink(bandwidth=1e9, latency=0.02))
        assert wan.transfer_time(a, b, 2e9) == pytest.approx(2.02)

    def test_multi_hop_uses_bottleneck(self):
        wan = WanNetwork()
        a, b, c = make_sites("a", "b", "c")
        wan.connect(a, b, WanLink(bandwidth=10e9, latency=0.01))
        wan.connect(b, c, WanLink(bandwidth=1e9, latency=0.01))
        # a->c: latencies add, bandwidth is the 1 GB/s bottleneck.
        assert wan.transfer_time(a, c, 1e9) == pytest.approx(0.02 + 1.0)

    def test_disconnected_sites_raise(self):
        wan = WanNetwork()
        a, b = make_sites("a", "b")
        wan.add_site(a)
        wan.add_site(b)
        with pytest.raises(ConfigurationError):
            wan.transfer_time(a, b, 1.0)

    def test_cheapest_path_for_dollars(self):
        wan = WanNetwork()
        a, b, c = make_sites("a", "b", "c")
        # Direct link is fast but expensive; the detour is free.
        wan.connect(a, c, WanLink(bandwidth=10e9, latency=0.001, cost_per_gb=1.0))
        wan.connect(a, b, WanLink(bandwidth=1e9, latency=0.01, cost_per_gb=0.0))
        wan.connect(b, c, WanLink(bandwidth=1e9, latency=0.01, cost_per_gb=0.0))
        assert wan.transfer_dollars(a, c, 10e9) == pytest.approx(0.0)
        # But the fastest path is the direct one.
        assert wan.transfer_time(a, c, 1e9) < 0.2

    def test_unknown_site_lookup(self):
        wan = WanNetwork()
        with pytest.raises(KeyError):
            wan.site("ghost")
