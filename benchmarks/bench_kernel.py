"""Kernel/fabric hot-path macro-benchmark: events/sec, flows/sec, profiler tax.

Tracks ROADMAP item 1's speed trajectory PR-over-PR with three throughput
figures and the wall-clock profiler's overhead:

* **C16 events/sec** — the kernel-heavy resilience-churn profile, measured
  as ``sim.events.fired / wall``; the purest dispatch-loop number,
* **F3 events/sec + jobs/sec** — the bursting profile, a mixed
  kernel/cluster path,
* **flows/sec** — one congestion-heavy ``fabric-congestion`` point
  (dragonfly, flow-adaptive policy, 0.95 load), the fabric solver path,
* **burst flows/sec** — the synchronized-burst point
  (:mod:`fabric_burst`): hundreds of concurrent flows, where the default
  indexed solver must beat the reference loop (the ``--quick`` CI gate
  requires >= 2x on the smoke size) while producing bit-identical
  FlowStats.

The profiler-overhead gate is **attributed**, not raced: the per-event
cost of ``ProfilingKernelProbe`` over the plain ``KernelProbe`` is
measured with a chunked tight loop (minimum chunk rejects CPU steal),
multiplied by the events a scaled C16 run fires, and divided by that
run's CPU time.  Macro A/B wall ratios are *also* recorded, but only as
informational fields: on a shared host their noise floor (±5-30 %
observed on back-to-back identical runs) swamps a 5 % signal at any
feasible run length, while the attributed figure is stable to a few
tenths of a percent.  CI gates the attributed enabled-profiler tax at
**under 5%** and requires the profiled run's model outputs to be
bit-identical; the disabled-profiler path is additionally checked
*structurally* — with the profiler off the telemetry layer must build the
plain ``KernelProbe``, so its tax is the one ``is not None`` test per
operation by construction.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_kernel.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time

import fabric_burst

from repro import profiles
from repro.core.rng import RandomSource
from repro.observability import KernelProbe, PhaseProfiler, Telemetry
from repro.observability.probes import ProfilingKernelProbe
from repro.sweep import resolve_target

#: CI gate: attaching a profiler (off or on) may cost at most this much.
MAX_OVERHEAD_PCT = 5.0

#: The congestion-heavy fabric point used for the flows/sec figure.
FABRIC_POINT = {
    "topology": "dragonfly",
    "congestion": "flow-adaptive",
    "load": 0.95,
    "flows": 256,
}

#: A scaled-up C16 for the overhead gate: the default profile finishes in
#: ~10 ms, far too short to resolve a 5% tax above scheduler noise.  More
#: jobs over a longer trace push one run well past 100 ms so the
#: per-event cost dominates the measurement.
OVERHEAD_POINT = {
    "max_jobs": 2_000,
    "duration": 300_000.0,
    "horizon": 900_000.0,
    "arrival_rate": 0.4,
}


def bench_profile(name: str, reps: int, profiler_mode: str = "none", **overrides):
    """Best-of-``reps`` run of one profile; returns a stats dict.

    ``profiler_mode`` is ``"none"`` (no profiler object at all),
    ``"off"`` (a disabled :class:`PhaseProfiler` attached — the branch
    every hot path still has to test) or ``"on"``.

    ``cpu_seconds`` (``time.process_time``) rides along for the overhead
    gate: the profiler's tax is pure CPU, and CPU time — unlike wall
    time — is immune to the host descheduling the benchmark, so the gate
    doesn't flake on busy machines.
    """
    best = None
    for _ in range(reps):
        profiler = None
        if profiler_mode == "off":
            profiler = PhaseProfiler(enabled=False)
        elif profiler_mode == "on":
            profiler = PhaseProfiler()
        telemetry = Telemetry(profiler=profiler)
        cpu_start = time.process_time()
        start = time.perf_counter()
        result = profiles.run(name, telemetry, **overrides)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        events = telemetry.metrics.get("sim.events.fired").total()
        if best is None or cpu < best["cpu_seconds"]:
            best = {
                "wall_seconds": wall,
                "cpu_seconds": cpu,
                "events": events,
                "events_per_sec": events / wall if wall else 0.0,
                "summary": {label: value for label, value in result.summary},
            }
    return best


def probe_cost_ns(chunks: int = 30, chunk_iterations: int = 10_000) -> float:
    """Per-event cost (ns) of the profiling probe over the plain probe.

    Runs the ``on_fire_start``/``on_fire`` pair in a tight loop, chunked;
    the *minimum* chunk is kept for each probe because host interference
    (CPU steal, frequency dips) only ever adds time.  The difference is
    the tax the profiler charges each kernel event.
    """

    class _Event:
        __slots__ = ("callback",)

        def __init__(self, callback):
            self.callback = callback

    event = _Event(lambda: None)

    def best_pair_ns(probe) -> float:
        start_hook, fire_hook = probe.on_fire_start, probe.on_fire
        best = float("inf")
        for _ in range(chunks):
            begin = time.perf_counter()
            for _ in range(chunk_iterations):
                start_hook(None, event)
                fire_hook(None, event)
            elapsed = time.perf_counter() - begin
            best = min(best, elapsed / chunk_iterations)
        return best * 1e9

    plain = KernelProbe(Telemetry())
    profiling = ProfilingKernelProbe(Telemetry(profiler=PhaseProfiler()))
    return max(0.0, best_pair_ns(profiling) - best_pair_ns(plain))


def bench_fabric(reps: int):
    """Best-of-``reps`` run of the congestion-heavy fabric point."""
    target = resolve_target("fabric-congestion")
    best = None
    for _ in range(reps):
        telemetry = Telemetry()
        start = time.perf_counter()
        metrics = target(dict(FABRIC_POINT), telemetry, RandomSource(seed=7))
        wall = time.perf_counter() - start
        flows = metrics["flows_finished"]
        if best is None or wall < best["wall_seconds"]:
            best = {
                "wall_seconds": wall,
                "flows": flows,
                "flows_per_sec": flows / wall if wall else 0.0,
                "congestion_events": metrics["congestion_events"],
            }
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions per mode; best wall time is kept")
    parser.add_argument("--quick", action="store_true",
                        help="2 reps per mode — the CI configuration")
    parser.add_argument("--output", default="BENCH_kernel.json")
    args = parser.parse_args()
    reps = 2 if args.quick else args.reps

    # Untimed warm-up: the first run of each path pays imports and cache
    # fills that would otherwise land on whichever mode runs first.
    bench_profile("C16", 1, profiler_mode="on")
    bench_profile("F3", 1)
    bench_fabric(1)

    c16 = bench_profile("C16", reps)
    f3 = bench_profile("F3", reps)
    fabric = bench_fabric(reps)
    burst = fabric_burst.measure_burst(
        fabric_burst.BURST_FLOWS_QUICK if args.quick
        else fabric_burst.BURST_FLOWS,
        reps=2,
    )

    # Macro A/B CPU ratios (paired rounds, best-of): informational only —
    # see the module docstring for why the gate can't be built on them.
    best = {"none": None, "off": None, "on": None}
    for _ in range(max(reps, 3)):
        for mode in best:
            sample = bench_profile("C16", 1, profiler_mode=mode,
                                   **OVERHEAD_POINT)
            if (best[mode] is None
                    or sample["cpu_seconds"] < best[mode]["cpu_seconds"]):
                best[mode] = sample
    base, c16_off, c16_on = best["none"], best["off"], best["on"]
    macro_off_pct = (
        c16_off["cpu_seconds"] / base["cpu_seconds"] - 1.0) * 100.0
    macro_on_pct = (
        c16_on["cpu_seconds"] / base["cpu_seconds"] - 1.0) * 100.0

    # The gated figure: per-event probe tax, attributed over the run.
    per_event_ns = probe_cost_ns()
    on_pct = (
        per_event_ns * 1e-9 * base["events"] / base["cpu_seconds"] * 100.0
        if base["cpu_seconds"] else float("inf")
    )

    # With the profiler disabled the plain probe must be chosen — the
    # disabled path's tax is one `is not None` test by construction.
    off_structural = isinstance(
        Telemetry(profiler=PhaseProfiler(enabled=False))._make_probe(),
        KernelProbe,
    ) and not isinstance(
        Telemetry(profiler=PhaseProfiler(enabled=False))._make_probe(),
        ProfilingKernelProbe,
    )

    # The profiler observes; it must never change what the model computes.
    deterministic = (
        base["events"] == c16_off["events"] == c16_on["events"]
        and base["summary"] == c16_off["summary"] == c16_on["summary"]
    )

    document = {
        "schema": "repro.bench/v1",
        "benchmark": "kernel_throughput",
        "reps": reps,
        "c16": c16,
        "f3": {
            **f3,
            "jobs_per_sec": (
                f3["summary"].get("jobs finished", 0.0) / f3["wall_seconds"]
                if f3["wall_seconds"] else 0.0
            ),
        },
        "fabric": fabric,
        "fabric_burst": burst,
        "min_quick_burst_speedup": fabric_burst.MIN_QUICK_SPEEDUP,
        "overhead_point": OVERHEAD_POINT,
        "overhead_base_cpu_seconds": base["cpu_seconds"],
        "overhead_events": base["events"],
        "probe_cost_ns_per_event": per_event_ns,
        "profiler_on_overhead_pct": on_pct,
        "profiler_off_structural": off_structural,
        "macro_off_overhead_pct": macro_off_pct,
        "macro_on_overhead_pct": macro_on_pct,
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "deterministic": deterministic,
        "cpu_count": os.cpu_count(),
    }
    path = pathlib.Path(args.output)
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"C16: {c16['events_per_sec']:,.0f} events/s "
          f"({c16['events']:.0f} events in {c16['wall_seconds']:.3f}s)")
    print(f"F3:  {f3['events_per_sec']:,.0f} events/s, "
          f"{document['f3']['jobs_per_sec']:,.0f} jobs/s")
    print(f"fabric: {fabric['flows_per_sec']:,.0f} flows/s "
          f"({fabric['flows']:.0f} flows)")
    print(f"burst ({burst['flows']} flows): "
          f"{burst['reference']['flows_per_sec']:,.0f} flows/s reference, "
          f"{burst['indexed']['flows_per_sec']:,.0f} flows/s indexed "
          f"= {burst['speedup']:.2f}x, identical={burst['identical']}")
    print(f"profiler tax on C16: {per_event_ns:.0f} ns/event attributed "
          f"= {on_pct:+.2f}% (budget {MAX_OVERHEAD_PCT:.0f}%); "
          f"macro A/B (informational): off {macro_off_pct:+.1f}%, "
          f"on {macro_on_pct:+.1f}%; "
          f"off-path structural: {off_structural}, "
          f"deterministic: {deterministic}")
    print(f"wrote {path}")
    if not deterministic:
        print("ERROR: attaching the profiler changed model results")
        return 1
    if not off_structural:
        print("ERROR: disabled profiler did not select the plain KernelProbe")
        return 1
    if on_pct > MAX_OVERHEAD_PCT:
        print(f"ERROR: enabled-profiler overhead {on_pct:.2f}% exceeds "
              f"the {MAX_OVERHEAD_PCT:.0f}% budget")
        return 1
    if not burst["identical"]:
        print("ERROR: indexed and reference solvers disagree on the burst "
              "FlowStats")
        return 1
    if args.quick and burst["speedup"] < fabric_burst.MIN_QUICK_SPEEDUP:
        print(f"ERROR: indexed solver only {burst['speedup']:.2f}x the "
              f"reference on the quick burst (gate "
              f"{fabric_burst.MIN_QUICK_SPEEDUP:.1f}x)")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
