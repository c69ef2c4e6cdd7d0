"""Experiment F2 — Figure 2: interconnect at device, rack and system scale.

Figure 2's claim: a unified CXL-class physical interface serving local
connectivity, pooled/persistent memory and the system network preserves
low-latency access at every scale, where the PCIe-era stack-up (DDR /
PCIe-DMA / RDMA / TCP) pays an escalating software and protocol tax.

We measure the time of a small (4 KiB) and a bulk (1 GB) access at every
tier of both hierarchies. Expected shape: comparable at the local tier,
then a widening gap — an order of magnitude at rack scale for small
accesses — and composability only achievable in the CXL-era fabric.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table
from repro.interconnect.memfabric import (
    MemoryPool,
    Scale,
    cxl_era_fabric,
    pcie_era_fabric,
)

SMALL = 4096.0
BULK = 1e9


def run_experiment():
    rows = []
    for fabric in (pcie_era_fabric(), cxl_era_fabric()):
        for tier in fabric.tiers:
            rows.append(
                (
                    fabric.name,
                    tier.name,
                    tier.scale.value,
                    tier.access.value,
                    tier.access_time(SMALL) * 1e6,
                    tier.effective_bandwidth(BULK) / 1e9,
                )
            )
    return rows


def rack_gap():
    """Small-access latency ratio at rack scale, PCIe-era over CXL-era."""
    pcie = pcie_era_fabric().tier("rdma-rack").access_time(SMALL)
    cxl = cxl_era_fabric().tier("cxl-pooled-rack").access_time(SMALL)
    return pcie / cxl


def test_fig2_interconnect_scales(record):
    rows = run_experiment()

    table = Table(
        "F2 (Figure 2): memory/network access across device, rack, system scales",
        ["fabric", "tier", "scale", "access", "4 KiB time (us)", "1 GB eff. BW (GB/s)"],
    )
    for row in rows:
        table.add_row(*row)
    gap = rack_gap()
    record(
        "F2_interconnect_scales",
        table,
        notes=(
            "Paper claim (Fig. 2, SII.B/SIII.C): one low-latency physical\n"
            "interface from device to system scale; PCIe latencies are 'far\n"
            f"too high for memory access'. Measured rack-scale small-access\n"
            f"gap (PCIe-era RDMA vs CXL-era pooled memory): {gap:.1f}x."
        ),
    )

    assert gap > 5.0
    # Composability: the CXL fabric can pool memory across tiers.
    fabric = cxl_era_fabric()
    fabric.add_pool(MemoryPool("near", 64e9, fabric.tier("cxl-attached")))
    fabric.add_pool(MemoryPool("far", 512e9, fabric.tier("cxl-pooled-rack")))
    used = fabric.compose(256e9)
    assert len(used) == 2
    # Every scale is represented in the CXL-era hierarchy.
    scales = {tier.scale for tier in fabric.tiers}
    assert scales == {Scale.DEVICE, Scale.RACK, Scale.SYSTEM}
