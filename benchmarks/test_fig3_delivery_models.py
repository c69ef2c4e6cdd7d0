"""Experiment F3 — Figure 3: heterogeneous hardware x delivery models.

Figure 3's claim: the hardware-architecture spectrum (SIMD/MIMD clusters,
large-memory machines, exascale, neuromorphic, ...) crossed with the
delivery spectrum (in-house, colo, managed, clouds, federated) exhibits
"substantial heterogeneity" on both axes — and only a *federated* delivery
model covers the whole workload portfolio, because no single site affords
every architecture (§III.F).

Coverage is judged against each job's deadline: a CPU can run anything
*eventually*, so single sites fail not by infeasibility alone but by
missing service levels (wrong silicon, too little capacity, or cloud noise
on synchronisation-sensitive codes). Expected shape: every single-site
model misses part of the portfolio; the federation serves all of it.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table
from repro.federation import Federation, Site, SiteKind, WanLink
from repro.hardware import default_catalog
from repro.scheduling import MetaScheduler, PlacementPolicy
from repro.workloads.ai import build_mlp, build_transformer
from repro.workloads.base import JobClass, make_single_kernel_job
from repro.workloads.hpc import sparse_solver, stencil

PORTFOLIO_SIZE = 6


def build_full_federation():
    catalog = default_catalog()
    cpu = catalog.get("epyc-class-cpu")
    gpu = catalog.get("hpc-gpu")
    tpu = catalog.get("tpu-like")
    dpe = catalog.get("analog-dpe")
    federation = Federation(name="fig3")
    inhouse = Site(name="in-house", kind=SiteKind.ON_PREMISE, devices={cpu: 32})
    supercomputer = Site(
        name="exascale", kind=SiteKind.SUPERCOMPUTER,
        devices={cpu: 64, gpu: 64},
    )
    cloud = Site(name="cloud", kind=SiteKind.CLOUD, devices={cpu: 256, tpu: 32})
    neuromorphic = Site(
        name="neuromorphic-colo", kind=SiteKind.COLO, devices={dpe: 64}
    )
    for site in (inhouse, supercomputer, cloud, neuromorphic):
        federation.add_site(site)
    for a, b in (
        (inhouse, supercomputer),
        (inhouse, cloud),
        (supercomputer, cloud),
        (cloud, neuromorphic),
        (supercomputer, neuromorphic),
    ):
        federation.connect(a, b, WanLink(bandwidth=1.25e9, latency=0.02))
    return federation


def portfolio():
    """Six jobs spanning Figure 3's architecture needs, each with a
    deadline its natural silicon meets comfortably."""
    climate = stencil(grid_points=10**7, timesteps=200, ranks=16, name="climate")
    climate.deadline = 60.0

    # Quiet-site time ~ 23.5 s; cloud noise inflates the barrier-closed
    # iterations to ~ 27 s, past the deadline (SII.C in action).
    fem = sparse_solver(unknowns=10**7, iterations=40_000, ranks=32, name="fem")
    fem.deadline = 25.0

    big_analytics = make_single_kernel_job(
        name="wide-analytics", job_class=JobClass.ANALYTICS,
        flops=5e13, bytes_moved=1e14, ranks=128,  # only the cloud is this wide
    )
    big_analytics.deadline = 3600.0

    llm = build_transformer(hidden_dim=1024, depth=8).training_job(
        batch=256, steps=200, ranks=8
    )
    llm.deadline = 300.0  # hopeless on CPUs, easy on GPU/TPU

    surrogate = build_mlp(hidden_dim=4096, depth=4).training_job(
        batch=256, steps=500, ranks=4
    )
    surrogate.deadline = 300.0

    serving = build_mlp(hidden_dim=2048, depth=3).inference_job(
        requests=2_000_000, batch=32
    )
    serving.deadline = 120.0

    jobs = [climate, fem, big_analytics, llm, surrogate, serving]
    for index, job in enumerate(jobs):
        job.arrival_time = float(index)
    return jobs


def served_within_deadline(records):
    count = 0
    for record in records:
        deadline = record.job.deadline
        if deadline is None or record.completion_time <= deadline:
            count += 1
    return count


def run_experiment():
    federation = build_full_federation()
    rows = []
    for site in federation.sites:
        scheduler = MetaScheduler(
            federation, policy=PlacementPolicy.HOME_ONLY, home_site=site
        )
        records = scheduler.run(portfolio())
        served = served_within_deadline(records)
        mean_ct = (
            sum(r.completion_time for r in records) / len(records)
            if records else float("nan")
        )
        rows.append((f"single-site: {site.name}", served, PORTFOLIO_SIZE, mean_ct))
    scheduler = MetaScheduler(federation, policy=PlacementPolicy.BEST_SILICON)
    records = scheduler.run(portfolio())
    mean_ct = sum(r.completion_time for r in records) / len(records)
    rows.append(
        ("federated", served_within_deadline(records), PORTFOLIO_SIZE, mean_ct)
    )
    kinds = scheduler.placements_by_device_kind()
    return rows, kinds


def test_fig3_delivery_models(record):
    rows, kinds = run_experiment()

    table = Table(
        "F3 (Figure 3): portfolio served within deadline, by delivery model",
        ["delivery model", "served in SLA", "portfolio", "mean CT of placed (s)"],
    )
    for row in rows:
        table.add_row(*row)
    record(
        "F3_delivery_models",
        table,
        notes=(
            "Paper claim (Fig. 3, SIII.F): HPC centers 'won't likely be able\n"
            "to procure and maintain the full breadth of computational\n"
            "options' -> only federated delivery serves the full portfolio.\n"
            f"Federated placement used device kinds: {sorted(kinds)}."
        ),
    )

    federated_served = rows[-1][1]
    assert federated_served == PORTFOLIO_SIZE
    single_site_served = [row[1] for row in rows[:-1]]
    assert all(served < PORTFOLIO_SIZE for served in single_site_served)
    assert len(kinds) >= 2
