"""Tests for the memory fabric (Figure 2 / CXL vs PCIe era)."""

import pytest

from repro.core.errors import CapacityError, ConfigurationError
from repro.interconnect.memfabric import (
    AccessKind,
    MemoryFabric,
    MemoryPool,
    MemoryTier,
    Scale,
    cxl_era_fabric,
    pcie_era_fabric,
)


class TestMemoryTier:
    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            MemoryTier("bad", Scale.DEVICE, 0.0, 1e9, AccessKind.LOAD_STORE)

    def test_load_store_has_no_software_overhead(self):
        tier = MemoryTier("ddr", Scale.DEVICE, 100e-9, 100e9, AccessKind.LOAD_STORE)
        assert tier.access_time(0) == pytest.approx(100e-9)

    def test_dma_pays_doorbell(self):
        tier = MemoryTier("pcie", Scale.DEVICE, 1e-6, 32e9, AccessKind.DMA)
        assert tier.access_time(0) == pytest.approx(1e-6 + 1e-6)

    def test_rpc_pays_stack(self):
        tier = MemoryTier("tcp", Scale.SYSTEM, 30e-6, 5e9, AccessKind.RPC)
        assert tier.access_time(0) >= 20e-6

    def test_large_transfers_approach_bandwidth(self):
        tier = MemoryTier("ddr", Scale.DEVICE, 100e-9, 100e9, AccessKind.LOAD_STORE)
        assert tier.effective_bandwidth(1e9) == pytest.approx(100e9, rel=0.01)

    def test_small_transfers_latency_dominated(self):
        tier = MemoryTier("tcp", Scale.SYSTEM, 30e-6, 5e9, AccessKind.RPC)
        assert tier.effective_bandwidth(64) < 5e9 / 100

    def test_negative_size_rejected(self):
        tier = MemoryTier("ddr", Scale.DEVICE, 100e-9, 100e9, AccessKind.LOAD_STORE)
        with pytest.raises(ValueError):
            tier.access_time(-1)


class TestMemoryPool:
    def make_pool(self, capacity=100.0):
        tier = MemoryTier("cxl", Scale.RACK, 400e-9, 50e9, AccessKind.LOAD_STORE)
        return MemoryPool("pool", capacity, tier)

    def test_allocate_release_cycle(self):
        pool = self.make_pool()
        pool.allocate(60.0)
        assert pool.free == pytest.approx(40.0)
        pool.release(60.0)
        assert pool.free == pytest.approx(100.0)

    def test_over_allocation_raises(self):
        pool = self.make_pool()
        with pytest.raises(CapacityError):
            pool.allocate(101.0)

    def test_over_release_raises(self):
        pool = self.make_pool()
        pool.allocate(10.0)
        with pytest.raises(ValueError):
            pool.release(20.0)


class TestMemoryFabric:
    def test_duplicate_tier_names_rejected(self):
        tier = MemoryTier("x", Scale.DEVICE, 1e-9, 1e9, AccessKind.LOAD_STORE)
        with pytest.raises(ConfigurationError):
            MemoryFabric("f", [tier, tier])

    def test_tiers_sorted_by_latency(self):
        fabric = cxl_era_fabric()
        latencies = [t.latency for t in fabric.tiers]
        assert latencies == sorted(latencies)

    def test_unknown_tier_helpful_error(self):
        with pytest.raises(KeyError, match="local-ddr"):
            cxl_era_fabric().tier("missing")

    def test_compose_prefers_fast_tiers(self):
        fabric = cxl_era_fabric()
        fast = MemoryPool("fast", 100.0, fabric.tier("cxl-attached"))
        slow = MemoryPool("slow", 100.0, fabric.tier("fabric-system"))
        fabric.add_pool(slow)
        fabric.add_pool(fast)
        used = fabric.compose(80.0)
        assert used == [fast]

    def test_compose_spills_to_slow_tier(self):
        fabric = cxl_era_fabric()
        fast = MemoryPool("fast", 50.0, fabric.tier("cxl-attached"))
        slow = MemoryPool("slow", 100.0, fabric.tier("fabric-system"))
        fabric.add_pool(fast)
        fabric.add_pool(slow)
        used = fabric.compose(80.0)
        assert {p.name for p in used} == {"fast", "slow"}
        assert fast.free == 0.0

    def test_compose_insufficient_rolls_back(self):
        fabric = cxl_era_fabric()
        pool = MemoryPool("only", 50.0, fabric.tier("cxl-attached"))
        fabric.add_pool(pool)
        with pytest.raises(CapacityError):
            fabric.compose(80.0)
        assert pool.free == 50.0  # rollback restored everything


class TestEraComparison:
    def test_cxl_era_keeps_rack_scale_load_store(self):
        """Figure 2: the CXL fabric extends load/store to the rack."""
        fabric = cxl_era_fabric()
        rack_tiers = [t for t in fabric.tiers if t.scale is Scale.RACK]
        assert rack_tiers
        assert all(t.access is AccessKind.LOAD_STORE for t in rack_tiers)

    def test_pcie_era_rack_access_is_dma_or_worse(self):
        fabric = pcie_era_fabric()
        rack_tiers = [t for t in fabric.tiers if t.scale is not Scale.DEVICE]
        assert all(t.access is not AccessKind.LOAD_STORE for t in rack_tiers)

    def test_cxl_small_access_latency_advantage(self):
        """The headline: rack-scale 4 KiB access is an order of magnitude
        faster on the unified fabric."""
        pcie_time = pcie_era_fabric().tier("rdma-rack").access_time(4096)
        cxl_time = cxl_era_fabric().tier("cxl-pooled-rack").access_time(4096)
        assert pcie_time / cxl_time > 5.0

    def test_persistent_tier_exists_in_cxl_era(self):
        """§III.C: 'the design separates persistent memory, the first
        storage tier, from processing'."""
        fabric = cxl_era_fabric()
        assert any(t.persistent for t in fabric.tiers)
