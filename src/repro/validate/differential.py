"""Differential checks: fast paths against independent references.

Each check re-derives an answer two ways — the optimised production path
and an independent (slower, simpler) reference — and demands agreement:

* :func:`check_routes` — :class:`~repro.interconnect.routecache.RouteCache`
  memoised routes vs uncached :mod:`networkx` shortest paths (node for
  node, between terminals and switches in every combination, on every
  canned fabric topology, on a second topology of each spec whose
  terminal routes come from the first one's switch-pair searches), link
  decompositions vs plain pair-zipping, cached propagation delays vs a
  manual per-edge latency sum (``==``).  networkx is the oracle,
  installed with the ``test`` extra; without it the check fails and says
  so.
* :func:`check_collectives` — the alpha-beta-gamma closed forms vs
  step-by-step round loops that accumulate one message at a time.
* :func:`check_checkpointing` — the Young/Daly interval vs a numeric grid
  scan of the first-order Daly expected-time model, for every checkpoint
  target preset.
* :func:`check_sweep` — the same spec at 1 vs N supervised workers
  (the engine's bit-identical-at-any-worker-count contract).
* :func:`check_resume` — a journalled sweep interrupted mid-run (journal
  truncated to a prefix, with a deliberately torn trailing line) and
  resumed via ``run_sweep(..., resume=...)`` vs the uninterrupted run:
  fingerprints must be bit-identical.
* :func:`check_solvers` — the fabric's
  :class:`~repro.interconnect.ratesolver.IndexedSolver` vs the
  :class:`~repro.interconnect.ratesolver.ReferenceSolver` water-filling
  loop on randomised topologies and evolving flow sets (arrivals,
  completions, reroutes, zero-length paths), plus one end-to-end fabric
  run per topology family: rates, saturated-link sets and ``FlowStats``
  must be ``==`` (bit-identical).
* :func:`check_memerrors` — the injected memory-error simulation vs the
  analytic FIT/MTBF closed form: empirical corrected/DUE/silent splits
  within a stated sigma band of
  :func:`~repro.resilience.memerrors.outcome_fractions` under both
  SEC-DED and Chipkill ECC, and FIT-derived checkpoint intervals equal
  to the Young/Daly closed form exactly.

All checks are deterministic (seeded sampling only) and fast enough for
tier-1; :func:`run_differential_checks` bundles them for the CLI.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.core.rng import RandomSource


@dataclass(frozen=True)
class DifferentialResult:
    """Outcome of one differential check."""

    name: str
    passed: bool
    comparisons: int
    detail: str

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAILED"
        return (
            f"differential {self.name}: {status} "
            f"({self.comparisons} comparisons) — {self.detail}"
        )


# --- routes ---------------------------------------------------------------------


def networkx_twin(graph):
    """``graph`` as a networkx graph with the same node, neighbour and edge
    order (attribute dicts shared, not copied).

    networkx is imported here, not at module level, because it is a test
    dependency.  Adding the edges one by one would reorder neighbours, so
    the adjacency dicts are filled directly.
    """
    import networkx as nx

    twin = nx.DiGraph() if graph.is_directed() else nx.Graph()
    twin.add_nodes_from(graph.nodes(data=True))
    for node, nbrs in graph.adj.items():
        twin._adj[node].update(nbrs)
    if graph.is_directed():
        for node, nbrs in graph.pred.items():
            twin._pred[node].update(nbrs)
    return twin


def check_routes(pairs: int = 48, seed: int = 2024) -> DifferentialResult:
    """Cached routing vs uncached networkx on every canned fabric topology.

    Per topology kind it samples ``pairs`` terminal↔terminal pairs (flow
    endpoints), ``pairs`` terminal↔switch pairs in alternating direction
    and ``pairs`` switch↔switch pairs (a Valiant leg starts or ends at a
    switch). They are routed on the second of two topologies built from
    the kind's spec, after the first has routed between the last
    terminals of every two switches: each terminal pair is then built
    from a switch-pair search the first topology ran. For each, the
    cached route must be node for node the path ``nx.shortest_path``
    returns (a different path of equal length would still change every
    golden), its link decomposition must be plain pair-zipping, and its
    propagation delay must ``==`` a manual left-to-right sum of
    per-edge latencies.
    """
    try:
        import networkx as nx
    except ImportError:
        return DifferentialResult(
            "routes", False, 0,
            "networkx, the reference, is not installed; install the test "
            "extra: pip install -e '.[test]'",
        )
    from repro.interconnect.routecache import route_cache_for
    from repro.interconnect.topology import build_topology
    from repro.sweep.targets import _FABRIC_TOPOLOGIES

    topologies = []
    for kind, spec in _FABRIC_TOPOLOGIES.items():
        warmed = build_topology(kind, **spec)
        last_terminal = {
            warmed.graph.nodes[terminal]["attached_to"]: terminal
            for terminal in warmed.terminals
        }
        warm = route_cache_for(warmed)
        for source in last_terminal.values():
            for destination in last_terminal.values():
                warm.minimal_route(source, destination)
        topologies.append(build_topology(kind, **spec))
    rng = RandomSource(seed=seed, name="validate/routes")
    switch_rng = RandomSource(seed=seed, name="validate/routes/switches")
    comparisons = 0
    failures: List[str] = []
    for topology in topologies:
        cache = route_cache_for(topology)
        graph = topology.graph
        reference_graph = networkx_twin(graph)
        terminals = topology.terminals
        switches = topology.switches
        sample = [
            tuple(rng.sample(terminals, 2)) for _ in range(pairs)
        ]
        for index in range(pairs):
            terminal = switch_rng.choice(terminals)
            switch = switch_rng.choice(switches)
            sample.append((terminal, switch) if index % 2 else (switch, terminal))
        sample.extend(
            tuple(switch_rng.sample(switches, 2)) for _ in range(pairs)
        )
        for source, destination in sample:
            cached = cache.minimal_route(source, destination)
            # Independent reference: a fresh shortest-path computation on
            # the raw graph, no cache involved.
            reference = nx.shortest_path(reference_graph, source, destination)
            comparisons += 1
            if list(cached) != reference:
                failures.append(
                    f"{topology.name}: cached {source}->{destination} is "
                    f"{cached}, networkx says {reference}"
                )
                continue
            links = cache.links_of(cached)
            if links != tuple(zip(cached, cached[1:])):
                failures.append(
                    f"{topology.name}: links_of disagrees with "
                    f"pair-zipping for {source}->{destination}"
                )
            delay = cache.propagation_delay(cached)
            reference_delay = sum(
                float(graph.edges[u, v]["latency"])
                for u, v in zip(cached, cached[1:])
            )
            if delay != reference_delay:
                failures.append(
                    f"{topology.name}: cached delay {delay!r} != manual sum "
                    f"{reference_delay!r} for {source}->{destination}"
                )
    detail = (
        f"{len(topologies)} topologies x {3 * pairs} terminal/switch pairs "
        "agree node for node with uncached networkx, routed on a second "
        "topology of each spec after a first warmed its switch-pair cores"
        if not failures
        else "; ".join(failures[:3])
    )
    return DifferentialResult(
        "routes", not failures, comparisons, detail
    )


# --- collectives ----------------------------------------------------------------


def _ring_allreduce_steps(model, message_bytes: float) -> float:
    """Ring all-reduce simulated one step at a time.

    ``p - 1`` reduce-scatter steps (each moves and reduces one chunk) then
    ``p - 1`` all-gather steps (move only).
    """
    p = model.nodes
    if p == 1:
        return 0.0
    chunk = message_bytes / p
    elapsed = 0.0
    for _ in range(p - 1):
        elapsed += model.alpha + chunk * model.beta + chunk * model.gamma
    for _ in range(p - 1):
        elapsed += model.alpha + chunk * model.beta
    return elapsed


def _tree_allreduce_steps(model, message_bytes: float) -> float:
    p = model.nodes
    if p == 1:
        return 0.0
    rounds = math.ceil(math.log2(p))
    elapsed = 0.0
    for _ in range(rounds):  # reduce rounds carry the gamma term
        elapsed += (
            model.alpha + message_bytes * model.beta
            + message_bytes * model.gamma
        )
    for _ in range(rounds):  # gather rounds move data only
        elapsed += model.alpha + message_bytes * model.beta
    return elapsed


def _in_network_allreduce_steps(model, message_bytes: float) -> float:
    p = model.nodes
    if p == 1:
        return 0.0
    depth = max(1, math.ceil(math.log(p, model.switch_radix)))
    elapsed = 0.0
    for _ in range(2 * depth):  # one hop latency up, one down, per level
        elapsed += model.alpha
    wire = 2.0 * message_bytes * model.beta
    switch = message_bytes / model.switch_reduce_rate
    return elapsed + max(wire, switch)


def _broadcast_steps(model, message_bytes: float) -> float:
    if model.nodes == 1:
        return 0.0
    elapsed = 0.0
    for _ in range(math.ceil(math.log2(model.nodes))):
        elapsed += model.alpha + message_bytes * model.beta
    return elapsed


def _ring_exchange_steps(model, message_bytes: float) -> float:
    """Shared reference for all-gather and pairwise all-to-all."""
    if model.nodes == 1:
        return 0.0
    elapsed = 0.0
    for _ in range(model.nodes - 1):
        elapsed += model.alpha + message_bytes * model.beta
    return elapsed


def _barrier_steps(model, _message_bytes: float) -> float:
    if model.nodes == 1:
        return 0.0
    elapsed = 0.0
    for _ in range(math.ceil(math.log2(model.nodes))):
        elapsed += model.alpha
    return elapsed


def check_collectives(rtol: float = 1e-9) -> DifferentialResult:
    """Collective closed forms vs step-by-step round loops."""
    from repro.interconnect.collectives import CollectiveModel

    populations = (1, 2, 3, 4, 7, 8, 16, 64, 100)
    sizes = (0.0, 1e3, 1e6, 1e9)
    checks: List[Tuple[str, Callable, Callable]] = [
        ("allreduce_ring", CollectiveModel.allreduce_ring,
         _ring_allreduce_steps),
        ("allreduce_tree", CollectiveModel.allreduce_tree,
         _tree_allreduce_steps),
        ("allreduce_in_network", CollectiveModel.allreduce_in_network,
         _in_network_allreduce_steps),
        ("broadcast", CollectiveModel.broadcast, _broadcast_steps),
        ("allgather", CollectiveModel.allgather, _ring_exchange_steps),
        ("alltoall", CollectiveModel.alltoall, _ring_exchange_steps),
        ("barrier", lambda model, _n: model.barrier(), _barrier_steps),
    ]
    comparisons = 0
    failures: List[str] = []
    for p in populations:
        model = CollectiveModel(nodes=p)
        for n in sizes:
            for name, closed_form, stepwise in checks:
                closed = closed_form(model, n)
                stepped = stepwise(model, n)
                comparisons += 1
                if not math.isclose(
                    closed, stepped, rel_tol=rtol, abs_tol=1e-15
                ):
                    failures.append(
                        f"{name}(p={p}, n={n}): closed {closed} != "
                        f"stepped {stepped}"
                    )
    detail = (
        f"{len(checks)} collectives x {len(populations)} populations x "
        f"{len(sizes)} sizes agree"
        if not failures
        else "; ".join(failures[:3])
    )
    return DifferentialResult(
        "collectives", not failures, comparisons, detail
    )


# --- checkpointing --------------------------------------------------------------


def check_checkpointing(
    grid_points: int = 241, value_rtol: float = 0.02
) -> DifferentialResult:
    """Young/Daly closed form vs a numeric grid scan, per target preset.

    The Young/Daly interval is a *first-order* optimum, so its argmin can
    sit off the numeric one; what must agree is the achieved expected
    time. The grid spans ``tau* / 6 .. tau* * 6`` geometrically and the
    closed form's value must be within ``value_rtol`` of the grid minimum.
    Also cross-checks :class:`~repro.resilience.recovery.CheckpointPlan`
    against the bare :func:`~repro.scheduling.checkpointing.young_daly_interval`.
    """
    from repro.resilience.recovery import CheckpointPlan
    from repro.scheduling.checkpointing import (
        CheckpointedExecution,
        FailureModel,
        fabric_pm_target,
        local_ssd_target,
        parallel_filesystem_target,
        young_daly_interval,
    )

    failures = FailureModel(node_mtbf=1e6, nodes=32)
    checkpoint_bytes = 2e11
    comparisons = 0
    problems: List[str] = []
    for target in (
        fabric_pm_target(), local_ssd_target(), parallel_filesystem_target()
    ):
        execution = CheckpointedExecution(
            work_time=4e5,
            checkpoint_bytes_per_node=checkpoint_bytes,
            failures=failures,
            target=target,
        )
        optimum = execution.optimal_interval
        closed_value = execution.expected_time()
        low, high = optimum / 6.0, optimum * 6.0
        ratio = (high / low) ** (1.0 / (grid_points - 1))
        grid_minimum = min(
            execution.expected_time(low * ratio**i)
            for i in range(grid_points)
        )
        comparisons += grid_points
        drift = abs(closed_value - grid_minimum) / grid_minimum
        if drift > value_rtol:
            problems.append(
                f"{target.name}: Young/Daly expected time {closed_value} "
                f"is {drift:.2%} off the numeric optimum {grid_minimum}"
            )
        plan_interval = CheckpointPlan.from_target(
            target, checkpoint_bytes, failures
        ).interval
        reference_interval = young_daly_interval(
            failures.system_mtbf, target.checkpoint_time(checkpoint_bytes)
        )
        comparisons += 1
        if not math.isclose(plan_interval, reference_interval, rel_tol=1e-12):
            problems.append(
                f"{target.name}: CheckpointPlan interval {plan_interval} "
                f"!= young_daly_interval {reference_interval}"
            )
    detail = (
        f"3 targets within {value_rtol:.0%} of the numeric optimum over "
        f"{grid_points}-point grids"
        if not problems
        else "; ".join(problems)
    )
    return DifferentialResult(
        "checkpointing", not problems, comparisons, detail
    )


# --- sweep ----------------------------------------------------------------------


def check_sweep(workers: int = 2) -> DifferentialResult:
    """The smoke sweep at 1 vs N supervised workers."""
    from repro.sweep import named_sweep, run_sweep

    serial = run_sweep(named_sweep("smoke"), workers=1)
    pooled = run_sweep(named_sweep("smoke"), workers=workers)
    serial_print = serial.fingerprint()
    pooled_print = pooled.fingerprint()
    passed = serial_print == pooled_print
    detail = (
        f"smoke sweep fingerprint {serial_print[:12]} identical at 1 and "
        f"{workers} workers"
        if passed
        else (
            f"smoke sweep diverged: 1 worker {serial_print[:12]} vs "
            f"{workers} workers {pooled_print[:12]}"
        )
    )
    return DifferentialResult(
        "sweep-pool", passed, len(serial.points), detail
    )


def check_resume(keep_points: int = 3) -> DifferentialResult:
    """Resumed sweep vs uninterrupted run: fingerprints must be identical.

    Simulates a crash mid-sweep: the smoke sweep runs once with a journal,
    the journal is truncated to its first ``keep_points`` point records
    plus a torn trailing line (exactly what a SIGKILL mid-append leaves),
    and the sweep is resumed from it.  The resumed result must carry every
    point and hash bit-identically to the uninterrupted run.
    """
    import tempfile

    from repro.sweep import named_sweep, run_sweep

    spec = named_sweep("smoke")
    fresh = run_sweep(spec, workers=1)
    with tempfile.TemporaryDirectory(prefix="repro-resume-") as scratch:
        journal_path = pathlib.Path(scratch) / "smoke.journal.jsonl"
        full = run_sweep(spec, workers=1, journal=journal_path)
        lines = journal_path.read_text().splitlines()
        kept = lines[: 1 + keep_points]  # header + first points
        torn = '{"kind": "point", "index": 99, "metr'  # no newline: torn
        journal_path.write_text("\n".join(kept) + "\n" + torn)
        resumed = run_sweep(spec, workers=1, resume=journal_path)
    fresh_print = fresh.fingerprint()
    resumed_print = resumed.fingerprint()
    passed = (
        fresh_print == full.fingerprint() == resumed_print
        and resumed.ok
        and resumed.harness.get("resumed") == float(keep_points)
    )
    detail = (
        f"fingerprint {fresh_print[:12]} identical after resuming from a "
        f"{keep_points}-point journal prefix with a torn tail"
        if passed
        else (
            f"resume diverged: fresh {fresh_print[:12]}, journalled "
            f"{full.fingerprint()[:12]}, resumed {resumed_print[:12]} "
            f"(resumed {resumed.harness.get('resumed')} points, "
            f"{len(resumed.failures)} failures)"
        )
    )
    return DifferentialResult(
        "sweep-resume", passed, len(fresh.points), detail
    )


# --- rate solvers ---------------------------------------------------------------


def check_solvers(
    trials: int = 5, epochs: int = 12, seed: int = 8192
) -> DifferentialResult:
    """The indexed rate solver vs the reference loop, bit for bit.

    Each trial builds a random small topology, then drives both solvers
    through ``epochs`` evolving flow-set epochs on one live flow map:
    arrivals, completions, the occasional zero-length path, re-routes (a
    new path under a surviving flow's key), re-admission of a departed
    flow id (which moves it to the end of admission order) and a path
    list rewritten in place — the changes the link index the indexed
    solver keeps across epochs has to follow.  Then ``epochs // 2``
    *island* epochs run on a fresh pair of solvers: flows on runs of up
    to three link-disjoint routes, so each epoch spans several
    components, with the arrivals, departures and reroutes of an epoch
    confined to one island; the untouched islands keep their logged
    rounds (the detail reports how many).  Per epoch the rates, their
    insertion order and the saturated-link set must be ``==`` to the
    reference's.  One
    end-to-end :class:`~repro.interconnect.fabric.FabricSimulator` run per
    trial and solver then compares the
    :class:`~repro.interconnect.fabric.FlowStats` of identical traces with
    ``==``.
    """
    from repro.interconnect.congestion import congestion_policy
    from repro.interconnect.fabric import FabricSimulator, Flow
    from repro.interconnect.ratesolver import IndexedSolver, ReferenceSolver
    from repro.interconnect.topology import build_topology

    failures: List[str] = []
    name = IndexedSolver.name
    specs = [
        ("dragonfly", {"groups": 4, "routers_per_group": 3, "terminals": 2}),
        ("two-tier", {"leaves": 4, "spines": 2, "terminals": 4}),
        ("fat-tree", {"k": 4}),
        ("hyperx", {"dims": (3, 3), "terminals": 2}),
        ("torus", {"dims": (3, 3), "terminals": 1}),
    ]
    rng = RandomSource(seed=seed, name="validate/solvers")
    comparisons = 0
    kept = 0

    def compare(reference, solver, epoch_links, remaining, where) -> None:
        ref_rates, ref_saturated = reference.solve(epoch_links, remaining)
        rates, saturated = solver.solve(epoch_links, remaining)
        if saturated != ref_saturated:
            failures.append(
                f"{where}: saturated sets "
                f"differ ({sorted(ref_saturated ^ saturated)[:2]}...)"
            )
        elif list(rates.items()) != list(ref_rates.items()):
            flow_id = next(
                (f for f in ref_rates if rates.get(f) != ref_rates[f]),
                None,
            )
            failures.append(
                f"{where}: "
                + (f"rate of flow {flow_id} differs"
                   if flow_id is not None
                   else "rates inserted in another order")
            )

    for trial in range(trials):
        kind, kwargs = specs[trial % len(specs)]
        topology = build_topology(kind, **kwargs)
        simulator = FabricSimulator(topology)
        terminals = list(topology.terminals)
        reference = ReferenceSolver()
        reference.bind(simulator._capacities)
        solver = IndexedSolver()
        solver.bind(simulator._capacities)
        flow_links: dict = {}
        departed: list = []
        next_id = trial * 10_000

        def route(flow_id: int) -> list:
            if rng.uniform(0.0, 1.0) < 0.1:
                return []  # zero-length path
            source, destination = rng.sample(terminals, 2)
            _, links = simulator._route(
                Flow(source=source, destination=destination,
                     size=1e6, flow_id=flow_id)
            )
            return list(links)  # the stream edits it; the cache's is shared

        for epoch in range(epochs):
            for _ in range(rng.integer(1, 6)):
                flow_links[next_id] = route(next_id)
                next_id += 1
            if flow_links and rng.uniform(0.0, 1.0) < 0.5:
                for flow_id in rng.sample(
                    list(flow_links), min(2, len(flow_links))
                ):
                    del flow_links[flow_id]
                    departed.append(flow_id)
            if flow_links and rng.uniform(0.0, 1.0) < 0.3:
                victim = rng.choice(list(flow_links))
                flow_links[victim] = route(victim)  # re-route
            if departed and rng.uniform(0.0, 1.0) < 0.2:
                returning = departed.pop(rng.integer(0, len(departed) - 1))
                flow_links[returning] = route(returning)  # re-admitted
            if flow_links and rng.uniform(0.0, 1.0) < 0.2:
                victim = rng.choice(list(flow_links))
                flow_links[victim][:] = route(victim)  # rewritten in place
            remaining = None
            if rng.uniform(0.0, 1.0) < 0.6:
                remaining = {
                    flow_id: rng.uniform(0.0, 5e8) for flow_id in flow_links
                }
            # The fabric hands the solvers tuples; the rewrite above
            # edited the list behind this epoch's snapshot.
            epoch_links = {
                flow_id: tuple(links) for flow_id, links in flow_links.items()
            }
            compare(reference, solver, epoch_links, remaining,
                    f"{name} on {kind} epoch {epoch}")
            comparisons += 1
        # Islands: runs of link-disjoint routes, one island changed per
        # epoch.
        islands: list = []
        for _ in range(30):
            if len(islands) == 3:
                break
            links = route(next_id)
            if links and not any(set(links) & set(i) for i in islands):
                islands.append(links)
        reference = ReferenceSolver()
        reference.bind(simulator._capacities)
        solver = IndexedSolver()
        solver.bind(simulator._capacities)
        flow_links = {}
        members: dict = {index: [] for index in range(len(islands))}

        def run_of(island: int) -> tuple:
            links = islands[island]
            start = rng.integer(0, len(links) - 1)
            return tuple(links[start:rng.integer(start + 1, len(links))])

        for epoch in range(epochs // 2 + 1):
            changed = list(members) if epoch == 0 else (
                [rng.integer(0, len(islands) - 1)] if islands else []
            )
            for island in changed:
                flows = members[island]
                for _ in range(rng.integer(3, 5) if epoch == 0 else 1):
                    draw = rng.uniform(0.0, 1.0)
                    if epoch == 0 or draw < 0.4 or not flows:
                        flow_links[next_id] = run_of(island)
                        flows.append(next_id)
                        next_id += 1
                    elif draw < 0.7:
                        flow_id = flows.pop(rng.integer(0, len(flows) - 1))
                        del flow_links[flow_id]
                    else:
                        flow_id = rng.choice(flows)
                        flow_links[flow_id] = run_of(island)
            remaining = {
                flow_id: rng.uniform(0.0, 6e7) for flow_id in flow_links
            }
            compare(reference, solver, dict(flow_links), remaining,
                    f"{name} on {kind} island epoch {epoch}")
            comparisons += 1
        kept += solver.rounds_kept
        # End-to-end: one fabric run per trial under each solver.
        trace_seed = rng.integer(0, 2**31 - 1)
        results = []
        for rate_solver in (ReferenceSolver(), IndexedSolver()):
            trace_rng = RandomSource(seed=trace_seed, name="validate/trace")
            trace = []
            for index in range(24):
                source, destination = trace_rng.sample(terminals, 2)
                trace.append(Flow(
                    source=source, destination=destination, size=1e6,
                    start_time=index * 1e-5, flow_id=900_000 + index,
                ))
            fabric = FabricSimulator(
                topology, congestion=congestion_policy("flow"),
                solver=rate_solver,
            )
            results.append(fabric.run(trace))
        expected, stats = results
        comparisons += len(expected)
        if stats != expected:
            differing = next(
                (a for a, b in zip(expected, stats) if a != b), None
            )
            failures.append(
                f"{name} on {kind}: FlowStats differ"
                + (f" at flow {differing.flow_id}" if differing else "")
            )
    detail = (
        f"{name} vs reference: {trials} topologies x {epochs} "
        f"epochs, island epochs ({kept} rounds kept) + fabric runs "
        f"bit-identical"
        if not failures
        else "; ".join(failures[:3])
    )
    return DifferentialResult("solvers", not failures, comparisons, detail)


# --- the serve cache ------------------------------------------------------------


def check_serve() -> DifferentialResult:
    """Cached serve responses vs fresh cold runs of the same request.

    Drives the full in-process service stack (``repro.serve``) and
    asserts the caching contract three ways:

    * a cached response is **byte-identical** to the cold run that
      produced it *and* to a cold run on a second, empty-store service —
      the cache stores exactly what a fresh run would say;
    * requests differing only in spelling — shuffled key order, ``8.0``
      for ``8``, defaults explicit vs omitted, lowercase profile id —
      hit the same cache entry;
    * cache hits perform **zero simulation**: the ``serve.kernel_events``
      counter stands still across hits.
    """
    import tempfile

    from repro.serve import ServeConfig, ServiceApp, ServiceClient

    failures: List[str] = []
    comparisons = 0
    # C8 is event-driven (the discrete-event cluster kernel), so the
    # zero-simulation assertion below has teeth: cold runs move the
    # ``serve.kernel_events`` counter, cache hits must not.
    profile_request = {"profile": "C8", "params": {"max_jobs": 8}}
    respelled = {
        "profile": "c8",
        "params": {
            "seed": 55.0,  # the default, spelled out
            "max_jobs": 8.0,
            "duration": 10000,
        },
    }
    sweep_request = {
        "target": "fabric-congestion",
        "axes": {"topology": ["dragonfly"], "load": [0.5, 0.9],
                 "flows": [12]},
        "seed": 11,
        "name": "serve-differential",
    }
    sweep_respelled = {
        "seed": 11.0,
        "name": "serve-differential",
        "axes": {"flows": [12.0], "load": [0.5, 0.9],
                 "topology": ["dragonfly"]},
        "target": "fabric-congestion",
    }

    with tempfile.TemporaryDirectory() as first_store, \
            tempfile.TemporaryDirectory() as second_store:
        app = ServiceApp(ServeConfig(store=first_store, sweep_workers=1))
        fresh = ServiceApp(ServeConfig(store=second_store, sweep_workers=1))
        try:
            client = ServiceClient(app)
            fresh_client = ServiceClient(fresh)
            for endpoint, cold_payload, hit_payload in (
                ("/v1/profile", profile_request, respelled),
                ("/v1/sweep", sweep_request, sweep_respelled),
            ):
                cold = client.post(endpoint, cold_payload)
                comparisons += 1
                if cold.status != 200 or cold.headers.get("X-Cache") != "miss":
                    failures.append(
                        f"{endpoint}: cold run answered "
                        f"{cold.status}/{cold.headers.get('X-Cache')}"
                    )
                    continue
                events_before = app.counter("serve.kernel_events").total()
                if endpoint == "/v1/profile" and events_before <= 0:
                    failures.append(
                        f"{endpoint}: cold run fired no kernel events — "
                        "the zero-simulation check would be vacuous"
                    )
                cached = client.post(endpoint, hit_payload)
                comparisons += 1
                if cached.headers.get("X-Cache") != "hit":
                    failures.append(
                        f"{endpoint}: respelled request missed the cache "
                        f"({cached.headers.get('X-Cache')})"
                    )
                if cached.body != cold.body:
                    failures.append(
                        f"{endpoint}: cached body differs from the cold run"
                    )
                moved = (
                    app.counter("serve.kernel_events").total()
                    - events_before
                )
                if moved:
                    failures.append(
                        f"{endpoint}: cache hit simulated "
                        f"{moved:g} kernel events (expected 0)"
                    )
                # A second service with an empty store must reproduce the
                # exact bytes cold — the cache never invents anything.
                recomputed = fresh_client.post(endpoint, hit_payload)
                comparisons += 1
                if recomputed.headers.get("X-Cache") != "miss":
                    failures.append(
                        f"{endpoint}: fresh store unexpectedly "
                        f"{recomputed.headers.get('X-Cache')}"
                    )
                if recomputed.body != cold.body:
                    failures.append(
                        f"{endpoint}: fresh cold run bytes differ from "
                        "the cached response"
                    )
        finally:
            app.close()
            fresh.close()
    detail = (
        "cached profile and sweep responses byte-identical to fresh cold "
        "runs; respelled requests share cache entries; hits fire 0 kernel "
        "events"
        if not failures
        else "; ".join(failures[:3])
    )
    return DifferentialResult("serve", not failures, comparisons, detail)


def check_memerrors(
    horizon: float = 5e5, seed: int = 4049, sigmas: float = 6.0
) -> DifferentialResult:
    """Injected memory-error simulation vs the analytic FIT closed form.

    For each ECC policy under test (the SEC-DED default and
    Chipkill-class symbol correction), an accelerated-FIT upset timeline
    is expanded and its empirical corrected/DUE/silent split compared to
    :func:`~repro.resilience.memerrors.outcome_fractions` within
    ``sigmas`` binomial standard deviations (~20k Poisson arrivals per
    policy); the total arrival count must sit within ``sigmas`` Poisson
    standard deviations of ``rate x horizon``.  Also cross-checks the
    FIT->Young/Daly wiring: the checkpoint interval
    :meth:`CheckpointPlan.from_target <repro.resilience.recovery.CheckpointPlan.from_target>`
    derives from :func:`~repro.resilience.memerrors.memory_failure_model`
    must equal the bare closed form to machine precision.
    """
    from repro.resilience.memerrors import (
        CHIPKILL,
        SEC_DED,
        MemoryErrorSpec,
        OUTCOMES,
        ScrubPolicy,
        due_rate,
        effective_mtbf,
        expand_spec,
        memory_failure_model,
        outcome_fractions,
    )
    from repro.resilience.recovery import CheckpointPlan
    from repro.scheduling.checkpointing import (
        fabric_pm_target,
        young_daly_interval,
    )

    comparisons = 0
    problems: List[str] = []
    for ecc in (SEC_DED, CHIPKILL):
        spec = MemoryErrorSpec(
            device="epyc-class-cpu", region="validate",
            capacity_bytes=512e9, fit_per_gib=3e8,
            ecc=ecc, scrub=ScrubPolicy(900.0),
        )
        rng = RandomSource(seed=seed, name=f"validate/memerrors/{ecc.name}")
        timeline = expand_spec(spec, horizon, rng.fork("mem/0"))
        total = len(timeline)
        expected_total = spec.upset_rate() * horizon
        comparisons += 1
        if abs(total - expected_total) > sigmas * math.sqrt(expected_total):
            problems.append(
                f"{ecc.name}: {total} arrivals vs Poisson expectation "
                f"{expected_total:.0f} (> {sigmas:.0f} sigma)"
            )
        analytic = outcome_fractions(spec)
        for outcome in OUTCOMES:
            observed = sum(1 for e in timeline if e.outcome == outcome)
            fraction = analytic[outcome]
            tolerance = (
                sigmas * math.sqrt(max(fraction * (1 - fraction), 0.0) / total)
                + 1.0 / total
            )
            comparisons += 1
            if abs(observed / total - fraction) > tolerance:
                problems.append(
                    f"{ecc.name}: empirical {outcome} fraction "
                    f"{observed / total:.5f} vs closed form {fraction:.5f} "
                    f"(tolerance {tolerance:.5f})"
                )
        # The DUE rate the checkpoint planner consumes must match the
        # empirical kill pressure of the injected stream.
        observed_due = sum(1 for e in timeline if e.outcome == "due")
        expected_due = due_rate(spec) * horizon
        comparisons += 1
        if abs(observed_due - expected_due) > sigmas * math.sqrt(
            max(expected_due, 1.0)
        ):
            problems.append(
                f"{ecc.name}: {observed_due} DUEs vs analytic "
                f"{expected_due:.1f} (> {sigmas:.0f} sigma)"
            )
        # FIT -> effective MTBF -> Young/Daly, exactly.
        footprint = 64e9
        model = memory_failure_model(
            footprint, spec, nodes=16, node_mtbf=5e4
        )
        target = fabric_pm_target()
        plan = CheckpointPlan.from_target(target, 2e11, model)
        reference = young_daly_interval(
            effective_mtbf(footprint, spec, node_mtbf=5e4) / 16.0,
            target.checkpoint_time(2e11),
        )
        comparisons += 1
        if not math.isclose(plan.interval, reference, rel_tol=1e-12):
            problems.append(
                f"{ecc.name}: FIT-derived plan interval {plan.interval} "
                f"!= Young/Daly closed form {reference}"
            )
    detail = (
        f"sec-ded and chipkill outcome splits within {sigmas:.0f} sigma of "
        "the FIT closed form; checkpoint intervals match Young/Daly exactly"
        if not problems
        else "; ".join(problems)
    )
    return DifferentialResult("memerrors", not problems, comparisons, detail)


def run_differential_checks(
    sweep_workers: int = 2,
) -> List[DifferentialResult]:
    """Run every differential check; never raises, returns all results."""
    return [
        check_routes(),
        check_collectives(),
        check_checkpointing(),
        check_memerrors(),
        check_sweep(workers=sweep_workers),
        check_resume(),
        check_solvers(),
        check_serve(),
    ]
