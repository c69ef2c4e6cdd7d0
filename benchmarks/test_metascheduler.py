"""Experiment C8 — §III.F: the transparent meta-scheduler.

"Users will have their workloads run across a breadth of silicon options,
ideally with a meta-scheduler that selects the best available for the job,
but in a completely transparent manner to the applications."

A mixed 150-job trace (Figure 1 mix) is placed over a three-site
heterogeneous federation under five policies: best-silicon (the paper's
meta-scheduler), compute-only (no data awareness), static affinity (the
conventional "ML goes to the GPU partition" mapping), random, and
home-site-only (no federation at all).

Expected shape: best-silicon <= static-affinity < random < home-only on
mean completion time, with best-silicon also minimising (or nearly
minimising) energy because specialised silicon finishes sooner.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table
from repro.core.rng import RandomSource
from repro.federation import Federation, Site, SiteKind, WanLink
from repro.hardware import default_catalog
from repro.scheduling import MetaScheduler, PlacementPolicy
from repro.workloads import JobTraceGenerator, TraceConfig


def build_federation():
    catalog = default_catalog()
    cpu = catalog.get("epyc-class-cpu")
    gpu = catalog.get("hpc-gpu")
    tpu = catalog.get("tpu-like")
    federation = Federation(name="c8")
    onprem = Site(name="onprem", kind=SiteKind.ON_PREMISE, devices={cpu: 64})
    supercomputer = Site(
        name="super", kind=SiteKind.SUPERCOMPUTER,
        devices={cpu: 128, gpu: 64, tpu: 32},
        interconnect_bandwidth=25e9, interconnect_latency=1e-6,
    )
    cloud = Site(name="cloud", kind=SiteKind.CLOUD, devices={cpu: 256, gpu: 64})
    for site in (onprem, supercomputer, cloud):
        federation.add_site(site)
    federation.connect(onprem, supercomputer, WanLink(bandwidth=1.25e9, latency=0.01))
    federation.connect(onprem, cloud, WanLink(bandwidth=0.625e9, latency=0.03))
    federation.connect(supercomputer, cloud, WanLink(bandwidth=1.25e9, latency=0.02))
    return federation


def make_trace():
    return JobTraceGenerator(
        TraceConfig(arrival_rate=0.02, duration=20_000.0, max_jobs=150),
        rng=RandomSource(seed=88),
    ).generate()


def run_experiment():
    rows = []
    for policy in (
        PlacementPolicy.BEST_SILICON,
        PlacementPolicy.COMPUTE_ONLY,
        PlacementPolicy.STATIC_AFFINITY,
        PlacementPolicy.RANDOM,
        PlacementPolicy.HOME_ONLY,
    ):
        federation = build_federation()
        scheduler = MetaScheduler(
            federation, policy=policy, home_site=federation.site("onprem")
        )
        records = scheduler.run(make_trace())
        rows.append(
            (
                policy.value,
                len(records),
                scheduler.mean_completion_time(),
                scheduler.makespan(),
                scheduler.total_energy() / 3.6e6,  # kWh
                dict(sorted(scheduler.placements_by_device_kind().items())),
            )
        )
    return rows


def test_c8_metascheduler(record):
    rows = run_experiment()

    table = Table(
        "C8 (SIII.F): placement policy comparison, 150-job mixed trace",
        ["policy", "jobs", "mean CT (s)", "makespan (s)", "energy (kWh)",
         "device kinds used"],
    )
    for row in rows:
        table.add_row(*row)
    record(
        "C8_metascheduler",
        table,
        notes=(
            "Paper claim: a meta-scheduler selecting 'the best available\n"
            "silicon for the job' transparently. Expected ordering on mean\n"
            "completion: best-silicon <= static-affinity < random < home-only."
        ),
    )

    mean_ct = {row[0]: row[2] for row in rows}
    assert mean_ct["best_silicon"] <= mean_ct["static_affinity"] * 1.05
    assert mean_ct["best_silicon"] < mean_ct["random"]
    assert mean_ct["random"] < mean_ct["home_only"]
    assert mean_ct["best_silicon"] * 3 < mean_ct["home_only"]
