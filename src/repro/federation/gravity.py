"""Data-gravity scoring for placement decisions.

The paper (§III.F): "The new framework will enable the analysis of data
'gravitational' aspects, where workloads may not only be scheduled
following compute resources availability but targeting the optimization of
job completion time end to end, including the data transfer."

:func:`transfer_cost` prices the data movement a placement implies; the
meta-scheduler adds it, weighted, to each candidate's score.
"""

from __future__ import annotations

from typing import Optional

from repro.federation.datasets import DatasetCatalog
from repro.federation.site import Site
from repro.workloads.base import Job


def transfer_cost(
    job: Job,
    site: Site,
    catalog: Optional[DatasetCatalog],
) -> float:
    """Staging time (seconds) implied by running ``job`` at ``site``.

    Jobs without an input dataset cost nothing; jobs whose dataset is not in
    the catalog fall back to ``job.input_bytes`` over a default 1 GB/s WAN.
    """
    if job.input_dataset is None:
        return 0.0
    if catalog is not None and job.input_dataset in catalog:
        return catalog.staging_time(job.input_dataset, site)
    return job.input_bytes / 1e9

