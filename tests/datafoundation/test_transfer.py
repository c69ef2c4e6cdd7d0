"""Tests for the transfer planner."""

import pytest

from repro.core.errors import ConfigurationError
from repro.datafoundation.metadata import (
    DataEntry,
    GovernanceLabel,
    MetadataCatalog,
)
from repro.datafoundation.transfer import TransferPlanner
from repro.federation import Dataset


@pytest.fixture
def planner(small_federation):
    small_federation.add_dataset(
        Dataset(name="raw", size_bytes=50e9, replicas={"super"})
    )
    small_federation.add_dataset(
        Dataset(name="shared", size_bytes=10e9, replicas={"onprem", "cloud"})
    )
    metadata = MetadataCatalog()
    metadata.register(
        DataEntry(name="raw", size_bytes=50e9, governance=GovernanceLabel.PUBLIC)
    )
    return TransferPlanner(small_federation.catalog, metadata), small_federation


class TestPlan:
    def test_local_replica_is_free(self, planner):
        plan_builder, federation = planner
        plan = plan_builder.plan(["raw"], federation.site("super"))
        assert plan.total_time == 0.0
        assert plan.total_bytes == 0.0
        assert plan.items[0].is_local

    def test_remote_replica_costs_time(self, planner):
        plan_builder, federation = planner
        plan = plan_builder.plan(["raw"], federation.site("onprem"))
        assert plan.total_time > 0
        assert plan.total_bytes == pytest.approx(50e9)

    def test_closest_replica_chosen(self, planner):
        plan_builder, federation = planner
        plan = plan_builder.plan(["shared"], federation.site("super"))
        # onprem is 1.25 GB/s from super; cloud is 1.25 GB/s too; either way
        # the source must be one of the two replicas.
        assert plan.items[0].source_site in ("onprem", "cloud")

    def test_parallel_vs_serial_time(self, planner):
        plan_builder, federation = planner
        plan = plan_builder.plan(["raw", "shared"], federation.site("onprem"))
        assert plan.total_time <= plan.serial_time

    def test_dollars_sum_over_items_and_local_copies_are_free(self, planner):
        plan_builder, federation = planner
        plan = plan_builder.plan(["raw", "shared"], federation.site("onprem"))
        assert plan.total_dollars == pytest.approx(
            sum(item.dollars for item in plan.items)
        )
        local = plan_builder.plan(["raw"], federation.site("super"))
        assert local.total_dollars == 0.0

    def test_governance_blocks_restricted_data(self, small_federation):
        small_federation.add_dataset(
            Dataset(name="secret", size_bytes=1e9, replicas={"super"})
        )
        metadata = MetadataCatalog()
        metadata.register(
            DataEntry(
                name="secret", size_bytes=1e9,
                governance=GovernanceLabel.RESTRICTED,
            )
        )
        planner = TransferPlanner(small_federation.catalog, metadata)
        with pytest.raises(ConfigurationError):
            planner.plan(["secret"], small_federation.site("cloud"))
        # But planning at the home site is fine.
        plan = planner.plan(["secret"], small_federation.site("super"))
        assert plan.total_time == 0.0

    def test_uncatalogued_metadata_allows_movement(self, planner):
        plan_builder, federation = planner
        # 'shared' has no metadata entry; movement defaults to allowed.
        plan = plan_builder.plan(["shared"], federation.site("super"))
        assert plan.items


class TestCheapestSite:
    def test_data_gravity_argmin(self, planner):
        plan_builder, federation = planner
        costs = plan_builder.cheapest_site(["raw"], federation.sites)
        assert min(costs, key=costs.get) == "super"

    def test_infeasible_sites_omitted(self, small_federation):
        small_federation.add_dataset(
            Dataset(name="secret", size_bytes=1e9, replicas={"super"})
        )
        metadata = MetadataCatalog()
        metadata.register(
            DataEntry(
                name="secret", size_bytes=1e9,
                governance=GovernanceLabel.RESTRICTED,
            )
        )
        planner = TransferPlanner(small_federation.catalog, metadata)
        costs = planner.cheapest_site(["secret"], small_federation.sites)
        assert set(costs) == {"super"}
