"""The federation: sites + WAN + dataset catalog, with placement queries.

A :class:`Federation` is the top-level substrate of the paper's vision: the
"archipelago" of heterogeneous sites over which the meta-scheduler
(:mod:`repro.scheduling.metascheduler`) places work. It distinguishes the
paper's two federation axes:

* **vertical** — edge <-> supercomputer <-> cloud (driven by data
  architecture),
* **horizontal** — across providers of the same tier (driven by economics).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.errors import ConfigurationError
from repro.federation.datasets import Dataset, DatasetCatalog
from repro.federation.site import Site
from repro.federation.wan import WanLink, WanNetwork
from repro.observability.probes import Telemetry


class Federation:
    """Sites joined by a WAN, with a shared dataset catalog."""

    def __init__(
        self, name: str = "federation", telemetry: Optional[Telemetry] = None
    ) -> None:
        self.name = name
        self.telemetry = telemetry
        self.wan = WanNetwork(telemetry=telemetry)
        self.catalog = DatasetCatalog(self.wan)
        self._sites: Dict[str, Site] = {}

    def attach_telemetry(self, telemetry: Telemetry) -> Telemetry:
        """Wire one telemetry object through the federation and its WAN.

        Call any time before (or during) a run; cross-site transfers
        recorded via :meth:`WanNetwork.record_transfer` start accounting
        from that point on.
        """
        self.telemetry = telemetry
        self.wan.telemetry = telemetry
        return telemetry

    # --- construction -----------------------------------------------------------

    def add_site(self, site: Site) -> Site:
        if site.name in self._sites:
            raise ConfigurationError(f"duplicate site: {site.name}")
        self._sites[site.name] = site
        self.wan.add_site(site)
        return site

    def connect(self, a: Site, b: Site, link: WanLink) -> None:
        for site in (a, b):
            if site.name not in self._sites:
                raise ConfigurationError(f"site {site.name} not in federation")
        self.wan.connect(a, b, link)

    def add_dataset(self, dataset: Dataset) -> Dataset:
        return self.catalog.register(dataset)

    # --- queries -----------------------------------------------------------------

    @property
    def sites(self) -> List[Site]:
        return list(self._sites.values())

    def site(self, name: str) -> Site:
        try:
            return self._sites[name]
        except KeyError:
            known = ", ".join(sorted(self._sites))
            raise KeyError(f"unknown site {name!r}; federation has: {known}") from None

    def device_diversity(self) -> int:
        """Count of distinct device kinds across the federation — the
        "breadth of silicon options" no single site can afford (§III.F)."""
        kinds = set()
        for site in self._sites.values():
            for device in site.devices:
                kinds.add(device.kind)
        return len(kinds)

    def total_capacity(self) -> int:
        """Total installed devices across all sites."""
        return sum(site.total_devices() for site in self._sites.values())
