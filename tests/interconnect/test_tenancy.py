"""Tests for virtual networks, tenant isolation and encryption (C15)."""

import numpy as np
import pytest

from repro.core.errors import CapacityError, ConfigurationError
from repro.interconnect.fabric import Flow
from repro.interconnect.tenancy import SlicedFabric, VirtualNetwork
from repro.interconnect.topology import build_topology


@pytest.fixture
def topology():
    return build_topology("dragonfly", groups=5, routers_per_group=3, terminals=4)


def aggressor_flows(topology, count=10):
    graph = topology.graph
    hot = topology.terminals[0]
    far = [
        t for t in topology.terminals
        if graph.nodes[t]["attached_to"] != graph.nodes[hot]["attached_to"]
    ]
    return [
        Flow(source=far[i], destination=hot, size=100e6, tag="elephant")
        for i in range(count)
    ]


def victim_flows(topology):
    graph = topology.graph
    hot = topology.terminals[0]
    hot_router = graph.nodes[hot]["attached_to"]
    neighbours = [
        t for t in topology.terminals
        if graph.nodes[t]["attached_to"] == hot_router and t != hot
    ]
    far = [
        t for t in topology.terminals
        if graph.nodes[t]["attached_to"] != hot_router
    ]
    return [
        Flow(source=source, destination=far[-(i + 1)], size=64e3,
             start_time=1e-3, tag="mouse")
        for i, source in enumerate(neighbours)
    ]


class TestVirtualNetwork:
    def test_share_bounds(self):
        with pytest.raises(ConfigurationError):
            VirtualNetwork(tenant="t", bandwidth_share=0.0)
        with pytest.raises(ConfigurationError):
            VirtualNetwork(tenant="t", bandwidth_share=1.5)

    def test_encryption_reduces_effective_share(self):
        clear = VirtualNetwork(tenant="a", bandwidth_share=0.5)
        encrypted = VirtualNetwork(tenant="b", bandwidth_share=0.5, encrypted=True)
        assert encrypted.effective_share < clear.effective_share


class TestAdmission:
    def test_duplicate_tenant_rejected(self, topology):
        fabric = SlicedFabric(topology)
        fabric.allocate(VirtualNetwork(tenant="a", bandwidth_share=0.3))
        with pytest.raises(ConfigurationError):
            fabric.allocate(VirtualNetwork(tenant="a", bandwidth_share=0.3))

    def test_oversubscription_rejected(self, topology):
        fabric = SlicedFabric(topology)
        fabric.allocate(VirtualNetwork(tenant="a", bandwidth_share=0.7))
        with pytest.raises(CapacityError):
            fabric.allocate(VirtualNetwork(tenant="b", bandwidth_share=0.5))

    def test_release_frees_share(self, topology):
        fabric = SlicedFabric(topology)
        fabric.allocate(VirtualNetwork(tenant="a", bandwidth_share=0.7))
        fabric.release("a")
        assert fabric.remaining_share() == pytest.approx(1.0)
        fabric.allocate(VirtualNetwork(tenant="b", bandwidth_share=0.9))

    def test_release_unknown_raises(self, topology):
        with pytest.raises(KeyError):
            SlicedFabric(topology).release("ghost")


class TestIsolation:
    def test_sliced_tenants_cannot_disturb_each_other(self, topology):
        """§III.C: 'isolate them from each other' — victim-tenant latency
        with an aggressive neighbour equals its latency running alone."""
        fabric = SlicedFabric(topology)
        fabric.allocate(VirtualNetwork(tenant="aggressor", bandwidth_share=0.5))
        fabric.allocate(VirtualNetwork(tenant="victim", bandwidth_share=0.5))

        together = fabric.run_isolated({
            "aggressor": aggressor_flows(topology),
            "victim": victim_flows(topology),
        })
        alone = fabric.run_isolated({"victim": victim_flows(topology)})

        together_fct = sorted(s.completion_time for s in together["victim"])
        alone_fct = sorted(s.completion_time for s in alone["victim"])
        assert together_fct == pytest.approx(alone_fct)

    def test_shared_fabric_leaks_interference(self, topology):
        """Without slicing, the aggressor's incast inflates the victim
        tenant's tail latency."""
        fabric = SlicedFabric(topology)
        fabric.allocate(VirtualNetwork(tenant="aggressor", bandwidth_share=0.5))
        fabric.allocate(VirtualNetwork(tenant="victim", bandwidth_share=0.5))
        flows = {
            "aggressor": aggressor_flows(topology),
            "victim": victim_flows(topology),
        }
        shared = fabric.run_shared(flows)
        sliced = fabric.run_isolated(flows)
        shared_p99 = float(np.percentile(
            [s.completion_time for s in shared["victim"]], 99
        ))
        sliced_p99 = float(np.percentile(
            [s.completion_time for s in sliced["victim"]], 99
        ))
        assert shared_p99 > sliced_p99 * 2

    def test_unknown_tenant_flows_rejected(self, topology):
        fabric = SlicedFabric(topology)
        with pytest.raises(KeyError):
            fabric.run_isolated({"ghost": aggressor_flows(topology, count=1)})


class TestEncryption:
    def test_encrypted_slice_is_slower_but_bounded(self, topology):
        fabric = SlicedFabric(topology)
        fabric.allocate(VirtualNetwork(tenant="clear", bandwidth_share=0.4))
        fabric.allocate(VirtualNetwork(
            tenant="secure", bandwidth_share=0.4, encrypted=True,
        ))
        flows = {
            "clear": victim_flows(topology),
            "secure": victim_flows(topology),
        }
        results = fabric.run_isolated(flows)
        clear_mean = float(np.mean([s.completion_time for s in results["clear"]]))
        secure_mean = float(np.mean([s.completion_time for s in results["secure"]]))
        assert clear_mean < secure_mean < clear_mean * 1.6
