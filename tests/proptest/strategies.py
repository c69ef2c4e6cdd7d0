"""Seed-stable hypothesis strategies shared by the whole property suite.

Generators for the domain objects property tests keep re-needing:
topology specs (honouring every builder's constraints), built topologies,
job lists, fault campaigns and materialised fault timelines. Everything is
drawn through hypothesis' own entropy — no wall clock, no global RNG — so
a failing example shrinks and replays deterministically, and the suite can
run under a fixed ``--hypothesis-seed`` in CI.

Usage::

    from tests.proptest import strategies as props

    @given(topology=props.topologies())
    def test_diameter_bound(topology): ...
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.rng import RandomSource
from repro.hardware import Precision
from repro.interconnect.topology import TopologySpec, build_topology
from repro.resilience.faults import (
    FailureProcess,
    FaultCampaign,
    LinkFlapSpec,
    NodeFaultSpec,
    SiteOutageSpec,
)
from repro.workloads.base import JobClass, make_single_kernel_job

#: Link population handed to strategies that materialise LINK flap
#: timelines without building a real fabric first.
CANNED_LINKS = (("s0", "s1"), ("s1", "s2"), ("s2", "s3"), ("s0", "s3"))


def seeds() -> st.SearchStrategy:
    """Seeds valid for :class:`~repro.core.rng.RandomSource`."""
    return st.integers(min_value=0, max_value=2**31 - 1)


def rngs() -> st.SearchStrategy:
    """Ready :class:`RandomSource` instances over the seed range."""
    return seeds().map(lambda seed: RandomSource(seed=seed, name="proptest"))


# --- topologies -----------------------------------------------------------------


@st.composite
def topology_specs(
    draw,
    families=("dragonfly", "hyperx", "fat-tree", "two-tier", "torus"),
) -> TopologySpec:
    """A valid :class:`TopologySpec` for one of the requested families.

    Sizes stay small (tens of switches) so property tests that compute
    diameters and bisections run in milliseconds; every draw respects the
    family's builder constraints (dragonfly global-link feasibility,
    even fat-tree ``k``, per-dimension minimums for lattices).
    """
    kind = draw(st.sampled_from(families))
    if kind == "dragonfly":
        # The default global_links_per_router = ceil((groups-1)/a) always
        # satisfies a*h >= groups-1, so any (groups, a) here is buildable.
        return TopologySpec(
            kind="dragonfly",
            groups=draw(st.integers(3, 5)),
            routers_per_group=draw(st.integers(2, 4)),
            terminals=draw(st.integers(1, 3)),
        )
    if kind == "hyperx":
        dims = tuple(
            draw(st.lists(st.integers(2, 4), min_size=1, max_size=2))
        )
        return TopologySpec(
            kind="hyperx", dims=dims, terminals=draw(st.integers(1, 3))
        )
    if kind == "fat-tree":
        return TopologySpec(kind="fat-tree", k=draw(st.sampled_from((2, 4, 6))))
    if kind == "two-tier":
        return TopologySpec(
            kind="two-tier",
            leaves=draw(st.integers(2, 6)),
            spines=draw(st.integers(1, 3)),
            terminals=draw(st.integers(1, 4)),
        )
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=2)))
    return TopologySpec(
        kind="torus", dims=dims, terminals=draw(st.integers(1, 2))
    )


def topologies(**kwargs) -> st.SearchStrategy:
    """Built :class:`~repro.interconnect.topology.Topology` objects."""
    return topology_specs(**kwargs).map(build_topology)


# --- workloads ------------------------------------------------------------------


@st.composite
def jobs(draw, index: int = 0, max_ranks: int = 4):
    """One single-kernel job with bounded, strictly positive resources."""
    job_class = draw(st.sampled_from(list(JobClass)))
    job = make_single_kernel_job(
        name=f"prop-job-{index}",
        job_class=job_class,
        flops=draw(st.floats(1e9, 1e14)),
        bytes_moved=draw(st.floats(1e3, 1e9)),
        precision=draw(
            st.sampled_from((Precision.FP64, Precision.FP32, Precision.INT8))
        ),
        ranks=draw(st.integers(1, max_ranks)),
    )
    job.arrival_time = draw(st.floats(0.0, 10_000.0))
    return job


@st.composite
def job_lists(draw, min_size: int = 1, max_size: int = 10, max_ranks: int = 4):
    """A list of uniquely named jobs, sized for fast cluster runs."""
    count = draw(st.integers(min_size, max_size))
    return [draw(jobs(index=index, max_ranks=max_ranks))
            for index in range(count)]


# --- faults ---------------------------------------------------------------------


@st.composite
def failure_processes(draw) -> FailureProcess:
    """Exponential or Weibull processes with sane MTBFs."""
    return FailureProcess(
        mtbf=draw(st.floats(100.0, 1e6)),
        shape=draw(st.sampled_from((1.0, 0.7, 1.5))),
    )


@st.composite
def fault_campaigns(draw, site: str = "prop-site") -> FaultCampaign:
    """A campaign mixing node faults, link flaps and site outages."""
    horizon = draw(st.floats(1_000.0, 50_000.0))
    node_faults = tuple(
        NodeFaultSpec(
            site=site,
            process=draw(failure_processes()),
            repair_time=draw(st.floats(1.0, 600.0)),
        )
        for _ in range(draw(st.integers(0, 2)))
    )
    link_flaps = tuple(
        LinkFlapSpec(
            process=draw(failure_processes()),
            repair_time=draw(st.floats(1.0, 120.0)),
        )
        for _ in range(draw(st.integers(0, 1)))
    )
    site_outages = tuple(
        SiteOutageSpec(
            site=site,
            duration=draw(st.floats(60.0, 3_600.0)),
            at=draw(st.floats(0.0, horizon)),
        )
        for _ in range(draw(st.integers(0, 1)))
    )
    return FaultCampaign(
        horizon=horizon,
        node_faults=node_faults,
        link_flaps=link_flaps,
        site_outages=site_outages,
    )


@st.composite
def fault_timelines(draw):
    """A materialised, sorted fault timeline plus the campaign behind it."""
    campaign = draw(fault_campaigns())
    rng = RandomSource(seed=draw(seeds()), name="proptest/faults")
    timeline = campaign.timeline(rng, links=CANNED_LINKS)
    return campaign, timeline
