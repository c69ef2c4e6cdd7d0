"""Tests for datasets and the replica catalog."""

import pytest

from repro.core.errors import ConfigurationError
from repro.federation.datasets import Dataset, DatasetCatalog
from repro.federation.site import Site, SiteKind
from repro.federation.wan import WanLink, WanNetwork


@pytest.fixture
def wan_with_sites():
    wan = WanNetwork()
    a = Site(name="a", kind=SiteKind.ON_PREMISE)
    b = Site(name="b", kind=SiteKind.SUPERCOMPUTER)
    c = Site(name="c", kind=SiteKind.CLOUD)
    wan.connect(a, b, WanLink(bandwidth=10e9, latency=0.01))
    wan.connect(b, c, WanLink(bandwidth=1e9, latency=0.02, cost_per_gb=0.08))
    wan.connect(a, c, WanLink(bandwidth=0.5e9, latency=0.05, cost_per_gb=0.08))
    return wan, a, b, c


class TestDataset:
    def test_requires_replica(self):
        with pytest.raises(ConfigurationError):
            Dataset(name="d", size_bytes=1e9, replicas=set())

    def test_add_replica(self, wan_with_sites):
        _, a, b, _ = wan_with_sites
        dataset = Dataset(name="d", size_bytes=1e9, replicas={a.name})
        dataset.add_replica(b)
        assert dataset.has_replica_at(b)


class TestDatasetCatalog:
    def test_register_unknown_site_rejected(self, wan_with_sites):
        wan, *_ = wan_with_sites
        catalog = DatasetCatalog(wan)
        with pytest.raises(KeyError):
            catalog.register(Dataset(name="d", size_bytes=1.0, replicas={"ghost"}))

    def test_duplicate_rejected(self, wan_with_sites):
        wan, a, *_ = wan_with_sites
        catalog = DatasetCatalog(wan)
        catalog.register(Dataset(name="d", size_bytes=1.0, replicas={a.name}))
        with pytest.raises(ConfigurationError):
            catalog.register(Dataset(name="d", size_bytes=1.0, replicas={a.name}))

    def test_closest_replica(self, wan_with_sites):
        wan, a, b, c = wan_with_sites
        catalog = DatasetCatalog(wan)
        catalog.register(Dataset(name="d", size_bytes=10e9, replicas={a.name, c.name}))
        # From b: a is 10 GB/s away, c is 1 GB/s away -> a wins.
        assert catalog.closest_replica("d", b).name == "a"

    def test_staging_time_zero_when_local(self, wan_with_sites):
        wan, a, *_ = wan_with_sites
        catalog = DatasetCatalog(wan)
        catalog.register(Dataset(name="d", size_bytes=10e9, replicas={a.name}))
        assert catalog.staging_time("d", a) == 0.0

    def test_staging_time_remote(self, wan_with_sites):
        wan, a, b, _ = wan_with_sites
        catalog = DatasetCatalog(wan)
        catalog.register(Dataset(name="d", size_bytes=10e9, replicas={a.name}))
        assert catalog.staging_time("d", b) == pytest.approx(0.01 + 1.0)

    def test_staging_dollars(self, wan_with_sites):
        wan, a, b, c = wan_with_sites
        catalog = DatasetCatalog(wan)
        catalog.register(Dataset(name="d", size_bytes=10e9, replicas={b.name}))
        assert catalog.staging_dollars("d", c) == pytest.approx(0.8)
        assert catalog.staging_dollars("d", b) == 0.0

    def test_gravitational_mass(self, wan_with_sites):
        wan, a, b, _ = wan_with_sites
        catalog = DatasetCatalog(wan)
        catalog.register(Dataset(name="d1", size_bytes=5e9, replicas={a.name}))
        catalog.register(Dataset(name="d2", size_bytes=3e9, replicas={a.name, b.name}))
        assert catalog.total_bytes_at(a) == pytest.approx(8e9)
        assert catalog.total_bytes_at(b) == pytest.approx(3e9)

    def test_datasets_at_lists_replicas_in_registration_order(self, wan_with_sites):
        wan, a, b, c = wan_with_sites
        catalog = DatasetCatalog(wan)
        catalog.register(Dataset(name="d1", size_bytes=5e9, replicas={a.name}))
        catalog.register(Dataset(name="d2", size_bytes=3e9, replicas={a.name, b.name}))
        assert [d.name for d in catalog.datasets_at(a)] == ["d1", "d2"]
        assert [d.name for d in catalog.datasets_at(b)] == ["d2"]
        assert catalog.datasets_at(c) == []

    def test_contains_and_len(self, wan_with_sites):
        wan, a, *_ = wan_with_sites
        catalog = DatasetCatalog(wan)
        catalog.register(Dataset(name="d", size_bytes=1.0, replicas={a.name}))
        assert "d" in catalog
        assert len(catalog) == 1
