"""Tests for sites."""

import pytest

from repro.core.errors import CapacityError, ConfigurationError
from repro.federation.site import DEFAULT_NOISE, Site, SiteKind
from repro.hardware.device import DeviceKind


class TestConstruction:
    def test_default_noise_by_kind(self, catalog):
        cloud = Site(name="c", kind=SiteKind.CLOUD)
        supercomputer = Site(name="s", kind=SiteKind.SUPERCOMPUTER)
        assert cloud.noise_level == DEFAULT_NOISE[SiteKind.CLOUD]
        assert cloud.noise_level > supercomputer.noise_level

    def test_explicit_noise_preserved(self):
        site = Site(name="x", kind=SiteKind.CLOUD, noise_level=0.5)
        assert site.noise_level == 0.5

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ConfigurationError):
            Site(name="x", kind=SiteKind.EDGE, power_limit=0.0)

    def test_rejects_zero_device_count(self, catalog):
        cpu = catalog.get("epyc-class-cpu")
        with pytest.raises(ConfigurationError):
            Site(name="x", kind=SiteKind.EDGE, devices={cpu: 0})


class TestInventory:
    def test_counts(self, catalog):
        cpu = catalog.get("epyc-class-cpu")
        gpu = catalog.get("hpc-gpu")
        site = Site(name="x", kind=SiteKind.ON_PREMISE, devices={cpu: 10, gpu: 4})
        assert site.total_devices() == 14
        assert site.count(gpu) == 4


class TestPricing:
    def test_explicit_price_wins(self, catalog):
        gpu = catalog.get("hpc-gpu")
        site = Site(
            name="x",
            kind=SiteKind.CLOUD,
            devices={gpu: 2},
            price_per_device_hour={"hpc-gpu": 3.5},
        )
        assert site.hourly_price(gpu) == 3.5

    def test_default_price_amortises_cost(self, catalog):
        gpu = catalog.get("hpc-gpu")
        site = Site(name="x", kind=SiteKind.ON_PREMISE, devices={gpu: 2})
        price = site.hourly_price(gpu)
        assert 0 < price < gpu.spec.unit_cost
