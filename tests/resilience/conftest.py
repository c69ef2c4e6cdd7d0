"""Shared fixtures for the resilience tests: a calibrated single-site rig."""

import pytest

from repro.federation import Site, SiteKind
from repro.hardware import default_catalog
from repro.profiles import calibrated_jobs
from repro.scheduling.cluster import ClusterSimulator

CPU = default_catalog().get("epyc-class-cpu")


def make_site(name="testsite", nodes=4):
    return Site(name=name, kind=SiteKind.ON_PREMISE, devices={CPU: nodes})


def make_job(work, *, name="job", ranks=1, arrival=0.0):
    """A compute-bound job whose runtime estimate is ~``work`` seconds."""
    (job,) = calibrated_jobs(
        make_site(nodes=max(ranks, 1)), name, 1, work=work, arrival_gap=0.0,
        ranks=ranks,
    )
    job.name = name
    job.arrival_time = arrival
    return job


def make_cluster(nodes=4, **kwargs):
    site = make_site(nodes=nodes)
    return ClusterSimulator(site=site, device=CPU, **kwargs)


@pytest.fixture
def cluster():
    return make_cluster()
