"""Synchronized-burst fabric workload shared by the benchmark scripts.

The classic fabric point (uniform arrivals at sub-unity load) keeps only a
few dozen flows concurrent, so the rate solver is a minority of its wall
time and Amdahl caps any solver speedup near 1x.  Real fabrics *do* see
hundreds of simultaneous flows — collective onset, checkpoint microbursts,
incast — and that is where water-filling cost explodes: the reference
loop is O(flows x links) per round with O(flows) rounds.  This module
models that regime: every flow starts within a microsecond window, so the
solver sees the full trace concurrently and the indexed solver's
advantage over the reference loop is measured where it matters.

Used by ``bench_kernel.py`` (BENCH_kernel.json), which records the
reference baseline, the default solver's figure, their speedup, and a
bit-identity verdict over the full FlowStats lists.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.core.rng import RandomSource
from repro.interconnect.congestion import congestion_policy
from repro.interconnect.fabric import FabricSimulator, Flow
from repro.interconnect.ratesolver import IndexedSolver, RateSolver, ReferenceSolver
from repro.interconnect.topology import build_topology

#: The burst topology: mid-size dragonfly, 64 terminals.
BURST_TOPOLOGY = {"groups": 8, "routers_per_group": 4, "terminals": 2}

#: Burst sizes: the full benchmark point and the CI smoke point.
BURST_FLOWS = 768
BURST_FLOWS_QUICK = 320

#: CI smoke gate: the default (indexed) solver must beat the reference by
#: at least this factor on the quick burst.
MIN_QUICK_SPEEDUP = 2.0


def burst_trace(topology, count: int, seed: int = 7) -> List[Flow]:
    """``count`` elephant flows, all arriving within a microsecond window.

    Flow ids are pinned so traces regenerated per run compare bit-equal
    across solvers (``Flow`` otherwise draws ids from a global counter).
    """
    rng = RandomSource(seed=seed, name="bench/fabric-burst")
    terminals = list(topology.terminals)
    trace = []
    for index in range(count):
        source, destination = rng.sample(terminals, 2)
        trace.append(
            Flow(
                source=source, destination=destination, size=2e6,
                start_time=index * 1e-6, flow_id=50_000 + index,
            )
        )
    return trace


def _run_once(topology, flows: int, solver: RateSolver) -> Tuple[float, list]:
    trace = burst_trace(topology, flows)
    simulator = FabricSimulator(
        topology,
        congestion=congestion_policy("flow"),
        reroute_adaptively=True,
        solver=solver,
    )
    started = time.perf_counter()
    stats = simulator.run(trace)
    return time.perf_counter() - started, stats


def measure_burst(flows: int, reps: int) -> Dict[str, object]:
    """Best-of-``reps`` burst runs under both solvers, reps interleaved.

    Races the oracle ``ReferenceSolver()`` against the fabric's default
    ``IndexedSolver()``.  Interleaving (reference, indexed, reference,
    indexed, ...) spreads host noise across both solvers instead of
    letting one absorb a slow stretch.  Returns a JSON-ready section with
    per-solver walls, flows/sec, the speedup, and whether the two solvers'
    FlowStats are bit-identical.
    """
    topology = build_topology("dragonfly", **BURST_TOPOLOGY)
    best: Dict[str, float] = {}
    stats_of: Dict[str, list] = {}
    _run_once(topology, min(flows, 64), IndexedSolver())  # warm caches untimed
    for _ in range(reps):
        for solver in (ReferenceSolver(), IndexedSolver()):
            wall, stats = _run_once(topology, flows, solver)
            if solver.name not in best or wall < best[solver.name]:
                best[solver.name] = wall
            stats_of[solver.name] = stats
    reference, indexed = stats_of["reference"], stats_of["indexed"]
    identical = len(reference) == len(indexed) and all(
        ours.flow_id == theirs.flow_id
        and ours.completion_time == theirs.completion_time
        and ours.size == theirs.size
        for ours, theirs in zip(reference, indexed)
    )
    return {
        "topology": "dragonfly(8x4x2)",
        "congestion": "flow + adaptive reroute",
        "flows": flows,
        "reference": {
            "wall_seconds": best["reference"],
            "flows_per_sec": flows / best["reference"],
        },
        "indexed": {
            "wall_seconds": best["indexed"],
            "flows_per_sec": flows / best["indexed"],
        },
        "speedup": best["reference"] / best["indexed"],
        "identical": identical,
    }
