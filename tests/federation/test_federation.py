"""Tests for the federation container and gravity scoring."""

import pytest

from repro.core.errors import ConfigurationError
from repro.federation import Dataset, Federation, Site, SiteKind, WanLink
from repro.federation.gravity import transfer_cost
from repro.hardware.device import DeviceKind
from repro.workloads.base import JobClass, make_single_kernel_job


class TestFederationConstruction:
    def test_duplicate_site_rejected(self, small_federation):
        with pytest.raises(ConfigurationError):
            small_federation.add_site(
                Site(name="onprem", kind=SiteKind.ON_PREMISE)
            )

    def test_connect_requires_membership(self, small_federation):
        stranger = Site(name="stranger", kind=SiteKind.CLOUD)
        with pytest.raises(ConfigurationError):
            small_federation.connect(
                small_federation.site("onprem"), stranger,
                WanLink(bandwidth=1e9, latency=0.01),
            )

    def test_unknown_site_helpful_error(self, small_federation):
        with pytest.raises(KeyError, match="onprem"):
            small_federation.site("ghost")


class TestFederationQueries:
    def test_sites_of_kind(self, small_federation):
        clouds = small_federation.sites_of_kind(SiteKind.CLOUD)
        assert [s.name for s in clouds] == ["cloud"]

    def test_sites_with_device_kind(self, small_federation):
        with_tpu = small_federation.sites_with_device_kind(DeviceKind.SYSTOLIC)
        assert [s.name for s in with_tpu] == ["super"]

    def test_device_diversity(self, small_federation):
        # CPU + GPU + systolic across the three sites.
        assert small_federation.device_diversity() == 3

    def test_total_capacity(self, small_federation):
        assert small_federation.total_capacity() == 32 + (64 + 32 + 16) + (128 + 32)

    def test_vertical_slice_ordering(self, small_federation):
        ordered = small_federation.vertical_slice()
        kinds = [s.kind for s in ordered]
        assert kinds.index(SiteKind.ON_PREMISE) < kinds.index(SiteKind.SUPERCOMPUTER)
        assert kinds.index(SiteKind.SUPERCOMPUTER) < kinds.index(SiteKind.CLOUD)

    def test_utilization_starts_zero(self, small_federation):
        assert small_federation.utilization() == 0.0


class TestGravity:
    def make_job(self, dataset=None, input_bytes=0.0):
        return make_single_kernel_job(
            name="j",
            job_class=JobClass.ANALYTICS,
            flops=1e9,
            bytes_moved=1e9,
            input_dataset=dataset,
            input_bytes=input_bytes,
        )

    def test_no_dataset_no_cost(self, small_federation):
        job = self.make_job()
        site = small_federation.site("cloud")
        assert transfer_cost(job, site, small_federation.catalog) == 0.0

    def test_local_replica_no_cost(self, small_federation):
        small_federation.add_dataset(
            Dataset(name="big", size_bytes=100e9, replicas={"super"})
        )
        job = self.make_job(dataset="big")
        assert transfer_cost(
            job, small_federation.site("super"), small_federation.catalog
        ) == 0.0

    def test_remote_replica_costs_transfer(self, small_federation):
        small_federation.add_dataset(
            Dataset(name="big", size_bytes=100e9, replicas={"super"})
        )
        job = self.make_job(dataset="big")
        cost = transfer_cost(
            job, small_federation.site("cloud"), small_federation.catalog
        )
        assert cost == pytest.approx(0.02 + 100e9 / 1.25e9)

    def test_unknown_dataset_falls_back_to_input_bytes(self, small_federation):
        job = self.make_job(dataset="uncatalogued", input_bytes=5e9)
        cost = transfer_cost(
            job, small_federation.site("cloud"), small_federation.catalog
        )
        assert cost == pytest.approx(5.0)
