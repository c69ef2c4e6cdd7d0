"""Experiment F1 — Figure 1: the convergence of Big Data, HPC and AI.

The figure's claim, made quantitative: a workload mix spanning simulation,
analytics and machine learning needs a system providing *all three*
capability classes. We run the same mixed trace on:

* a homogeneous CPU-only system (the "killer micro" legacy design), and
* a heterogeneous system with the same total device count but a mix of
  CPUs, GPUs and systolic training parts,

and report mean completion time per job class. Expected shape: the
heterogeneous system wins overall, with the ML classes gaining the most
(an order of magnitude) and simulation staying roughly neutral.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import Table
from repro.core.rng import RandomSource
from repro.federation import Federation, Site, SiteKind
from repro.hardware import default_catalog
from repro.scheduling import MetaScheduler
from repro.workloads import JobClass, JobTraceGenerator, TraceConfig

TOTAL_DEVICES = 96


def build_federation(heterogeneous: bool) -> Federation:
    catalog = default_catalog()
    cpu = catalog.get("epyc-class-cpu")
    federation = Federation(name="fig1")
    if heterogeneous:
        gpu = catalog.get("hpc-gpu")
        tpu = catalog.get("tpu-like")
        devices = {cpu: TOTAL_DEVICES // 2, gpu: TOTAL_DEVICES // 4, tpu: TOTAL_DEVICES // 4}
    else:
        devices = {cpu: TOTAL_DEVICES}
    federation.add_site(
        Site(name="core", kind=SiteKind.SUPERCOMPUTER, devices=devices)
    )
    return federation


def make_trace():
    return JobTraceGenerator(
        TraceConfig(arrival_rate=0.01, duration=40_000.0, max_jobs=150),
        rng=RandomSource(seed=101),
    ).generate()


def run_experiment():
    results = {}
    for label, heterogeneous in (("cpu-only", False), ("heterogeneous", True)):
        scheduler = MetaScheduler(build_federation(heterogeneous))
        records = scheduler.run(make_trace())
        by_class = {}
        for record in records:
            by_class.setdefault(record.job.job_class, []).append(
                record.completion_time
            )
        results[label] = {
            job_class: sum(times) / len(times)
            for job_class, times in by_class.items()
        }
    return results


def test_fig1_convergence(record):
    results = run_experiment()

    table = Table(
        "F1 (Figure 1): mixed HPC/analytics/AI trace, CPU-only vs heterogeneous",
        ["job class", "cpu-only mean CT (s)", "heterogeneous mean CT (s)", "speedup"],
    )
    speedups = {}
    for job_class in (
        JobClass.SIMULATION,
        JobClass.ANALYTICS,
        JobClass.ML_TRAINING,
        JobClass.ML_INFERENCE,
    ):
        homogeneous = results["cpu-only"].get(job_class)
        heterogeneous = results["heterogeneous"].get(job_class)
        if homogeneous is None or heterogeneous is None:
            continue
        speedups[job_class] = homogeneous / heterogeneous
        table.add_row(
            job_class.value, homogeneous, heterogeneous, speedups[job_class]
        )
    record(
        "F1_convergence",
        table,
        notes=(
            "Paper claim (Fig. 1, SI): converged workloads need HPC +"
            " analytics + ML capability classes in one system.\n"
            "Expected shape: heterogeneous wins on ML classes by >= 2x,"
            " simulation roughly neutral."
        ),
    )

    assert speedups[JobClass.ML_TRAINING] > 2.0
    assert speedups[JobClass.ML_INFERENCE] > 2.0
    assert speedups[JobClass.SIMULATION] > 0.4  # not badly hurt
