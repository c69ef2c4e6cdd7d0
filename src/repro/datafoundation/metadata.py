"""Metadata catalog with governance labels.

"Actionable metadata" (§III.A): entries carry schema hints, free-form tags
and a governance label that the federation layer consults before moving
data across administrative domains ("cross-institutional and geographical
hurdles (such as security and data governance)", §III.G).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Set

from repro.core.errors import ConfigurationError


class GovernanceLabel(Enum):
    """Data-governance classes restricting where data may move."""

    PUBLIC = "public"            # may move anywhere
    INSTITUTIONAL = "institutional"  # may move within the federation
    RESTRICTED = "restricted"    # may not leave its home site

    @property
    def may_cross_sites(self) -> bool:
        return self is not GovernanceLabel.RESTRICTED


@dataclass
class DataEntry:
    """One catalogued dataset's metadata.

    Attributes
    ----------
    name:
        Unique catalog key (matches the federation dataset name).
    size_bytes:
        Dataset size.
    schema:
        Column name -> type-string mapping (actionable metadata).
    tags:
        Free-form tags.
    governance:
        Movement restrictions.
    home_site:
        Administrative owner site.
    created_at:
        Registration wall-clock timestamp (provenance anchor).
    """

    name: str
    size_bytes: float
    schema: Dict[str, str] = field(default_factory=dict)
    tags: Set[str] = field(default_factory=set)
    governance: GovernanceLabel = GovernanceLabel.INSTITUTIONAL
    home_site: Optional[str] = None
    created_at: float = field(default_factory=time.time)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ConfigurationError(f"{self.name}: size must be non-negative")


class MetadataCatalog:
    """Register, look up and govern data entries."""

    def __init__(self) -> None:
        self._entries: Dict[str, DataEntry] = {}

    def register(self, entry: DataEntry) -> DataEntry:
        if entry.name in self._entries:
            raise ConfigurationError(f"duplicate entry: {entry.name}")
        self._entries[entry.name] = entry
        return entry

    def get(self, name: str) -> DataEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(f"unknown data entry {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def may_move(self, name: str, from_site: str, to_site: str) -> bool:
        """Whether governance allows moving an entry between sites."""
        entry = self.get(name)
        if from_site == to_site:
            return True
        return entry.governance.may_cross_sites

    def total_bytes(self) -> float:
        return sum(e.size_bytes for e in self._entries.values())
