"""Replica-aware transfer planning over the federation WAN.

When a workflow step needs datasets that live elsewhere, the planner picks,
for each dataset, the replica minimising transfer time (or egress dollars),
respecting governance labels from the metadata catalog. The resulting
:class:`TransferPlan` prices the data movement a placement implies —
the quantitative core of the paper's "data gravity" argument (§III.F).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.errors import ConfigurationError
from repro.datafoundation.metadata import MetadataCatalog
from repro.federation.datasets import DatasetCatalog
from repro.federation.site import Site


@dataclass(frozen=True)
class TransferItem:
    """One dataset's planned movement."""

    dataset: str
    source_site: str
    destination_site: str
    size_bytes: float
    time: float
    dollars: float

    @property
    def is_local(self) -> bool:
        return self.source_site == self.destination_site


@dataclass(frozen=True)
class TransferPlan:
    """A set of transfers staging a workflow step's inputs at one site."""

    destination: str
    items: tuple

    @property
    def total_bytes(self) -> float:
        return sum(item.size_bytes for item in self.items if not item.is_local)

    @property
    def total_time(self) -> float:
        """Wall time assuming transfers run in parallel (max over items)."""
        if not self.items:
            return 0.0
        return max(item.time for item in self.items)

    @property
    def serial_time(self) -> float:
        """Wall time if transfers serialise on the site's ingest link."""
        return sum(item.time for item in self.items)

    @property
    def total_dollars(self) -> float:
        return sum(item.dollars for item in self.items)


class TransferPlanner:
    """Plans dataset staging over a federation's WAN and replica map."""

    def __init__(
        self,
        datasets: DatasetCatalog,
        metadata: Optional[MetadataCatalog] = None,
    ) -> None:
        self.datasets = datasets
        self.metadata = metadata

    def _governance_allows(self, name: str, source: str, destination: str) -> bool:
        if self.metadata is None or name not in self.metadata:
            return True
        return self.metadata.may_move(name, source, destination)

    def plan(self, dataset_names: Sequence[str], destination: Site) -> TransferPlan:
        """Stage the named datasets at ``destination``.

        Raises :class:`ConfigurationError` when governance forbids a
        required movement (the caller should then consider running the
        step at the data's home site instead — which is the point).
        """
        items: List[TransferItem] = []
        for name in dataset_names:
            dataset = self.datasets.get(name)
            if dataset.has_replica_at(destination):
                items.append(
                    TransferItem(
                        dataset=name,
                        source_site=destination.name,
                        destination_site=destination.name,
                        size_bytes=dataset.size_bytes,
                        time=0.0,
                        dollars=0.0,
                    )
                )
                continue
            source = self.datasets.closest_replica(name, destination)
            if not self._governance_allows(name, source.name, destination.name):
                raise ConfigurationError(
                    f"governance forbids moving {name!r} from {source.name} "
                    f"to {destination.name}"
                )
            items.append(
                TransferItem(
                    dataset=name,
                    source_site=source.name,
                    destination_site=destination.name,
                    size_bytes=dataset.size_bytes,
                    time=self.datasets.wan.transfer_time(
                        source, destination, dataset.size_bytes
                    ),
                    dollars=self.datasets.wan.transfer_dollars(
                        source, destination, dataset.size_bytes
                    ),
                )
            )
        return TransferPlan(destination=destination.name, items=tuple(items))
