"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.core.rng import RandomSource
from repro.federation import Federation, Site, SiteKind, WanLink
from repro.hardware import default_catalog


@pytest.fixture
def rng():
    """A deterministic random source."""
    return RandomSource(seed=1234, name="test")


@pytest.fixture(scope="session")
def catalog():
    """The default device catalog (session scoped: devices are stateless
    except the FPGA's loaded bitstream)."""
    return default_catalog()


@pytest.fixture
def small_federation(catalog):
    """A three-site federation: on-prem CPU shop, accelerator-rich
    supercomputer, large noisy cloud."""
    federation = Federation(name="test-fed")
    cpu = catalog.get("epyc-class-cpu")
    gpu = catalog.get("hpc-gpu")
    tpu = catalog.get("tpu-like")
    onprem = Site(name="onprem", kind=SiteKind.ON_PREMISE, devices={cpu: 32})
    supercomputer = Site(
        name="super",
        kind=SiteKind.SUPERCOMPUTER,
        devices={cpu: 64, gpu: 32, tpu: 16},
        interconnect_bandwidth=25e9,
        interconnect_latency=1e-6,
    )
    cloud = Site(name="cloud", kind=SiteKind.CLOUD, devices={cpu: 128, gpu: 32})
    for site in (onprem, supercomputer, cloud):
        federation.add_site(site)
    federation.connect(onprem, supercomputer, WanLink(bandwidth=1.25e9, latency=0.01))
    federation.connect(
        onprem, cloud, WanLink(bandwidth=0.625e9, latency=0.03, cost_per_gb=0.08)
    )
    federation.connect(
        supercomputer, cloud, WanLink(bandwidth=1.25e9, latency=0.02, cost_per_gb=0.08)
    )
    return federation
