"""Datasets pinned to sites: the anchors of data gravity.

The paper (§III.F): workload placement must consider "data 'gravitational'
aspects" — big datasets attract computation because moving them dominates
end-to-end completion time. A :class:`Dataset` records size and replica
locations; the :class:`DatasetCatalog` resolves the closest replica for a
prospective execution site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.core.errors import ConfigurationError
from repro.federation.site import Site
from repro.federation.wan import WanNetwork


@dataclass
class Dataset:
    """A named dataset with one or more replicas.

    Attributes
    ----------
    name:
        Unique dataset name.
    size_bytes:
        Dataset size.
    replicas:
        Site names currently holding a full replica.
    """

    name: str
    size_bytes: float
    replicas: Set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ConfigurationError(f"{self.name}: size must be non-negative")
        if not self.replicas:
            raise ConfigurationError(f"{self.name}: needs at least one replica")

    def add_replica(self, site: Site) -> None:
        self.replicas.add(site.name)

    def has_replica_at(self, site: Site) -> bool:
        return site.name in self.replicas


class DatasetCatalog:
    """Registry of datasets plus closest-replica queries over a WAN."""

    def __init__(self, wan: WanNetwork) -> None:
        self.wan = wan
        self._datasets: Dict[str, Dataset] = {}

    def register(self, dataset: Dataset) -> Dataset:
        if dataset.name in self._datasets:
            raise ConfigurationError(f"duplicate dataset: {dataset.name}")
        for replica in dataset.replicas:
            self.wan.site(replica)  # raises for unknown sites
        self._datasets[dataset.name] = dataset
        return dataset

    def get(self, name: str) -> Dataset:
        try:
            return self._datasets[name]
        except KeyError:
            known = ", ".join(sorted(self._datasets))
            raise KeyError(f"unknown dataset {name!r}; catalog has: {known}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._datasets

    def __len__(self) -> int:
        return len(self._datasets)

    def closest_replica(self, name: str, to: Site) -> Site:
        """The replica site with the smallest transfer time to ``to``."""
        dataset = self.get(name)
        best_site: Optional[Site] = None
        best_time = float("inf")
        for replica_name in dataset.replicas:
            replica_site = self.wan.site(replica_name)
            elapsed = self.wan.transfer_time(replica_site, to, dataset.size_bytes)
            if elapsed < best_time:
                best_time = elapsed
                best_site = replica_site
        assert best_site is not None  # replicas is non-empty by construction
        return best_site

    def staging_time(self, name: str, to: Site) -> float:
        """Transfer time of the dataset to a site (0 if a replica is local)."""
        dataset = self.get(name)
        if dataset.has_replica_at(to):
            return 0.0
        source = self.closest_replica(name, to)
        return self.wan.transfer_time(source, to, dataset.size_bytes)
