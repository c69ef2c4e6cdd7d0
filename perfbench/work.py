"""Workload bodies of the benchmark; each role runs in a fresh process.

    python3 perfbench/work.py --role work --workload fabric_burst \\
        --seed 1 --seconds 30 --trace 0 --scratch .perfbench/run-1

``perfbench/run.py`` starts this file from the root of a checkout with
``src`` on ``PYTHONPATH``.  Roles:

* ``import`` -- time ``import repro`` and count the third-party modules
  it loads, print them as one JSON line;
* ``setup`` -- set the workload up, print ``ready`` and exit;
* ``work`` -- set up, print ``ready``, run the workload for
  ``--seconds`` and print one JSON line of results.

Inputs come only from ``--seed`` (through :class:`random.Random`); the
program sees nothing but the generated requests, traces and specs.  The
workloads call only the default paths a user gets: no solver choice, no
executor choice, no route-cache switch.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import SpanRecorder, layer_table

# fabric_burst: synchronized bursts on a mid-size dragonfly (64 terminals).
FABRIC_TOPOLOGY = {"groups": 8, "routers_per_group": 4, "terminals": 2}
BURST_FLOWS = 200
FLOW_BYTES = 2e6
BURST_SPACING_S = 1e-6
BURST_INPUTS = 16
#: Each operation also runs SMALL_BURSTS low-concurrency bursts of
#: SMALL_FLOWS flows on the built topology (warm route cache) and as
#: many on a freshly built one (cold route cache).
SMALL_FLOWS = 32
SMALL_BURSTS = 6

# sweep_congestion: the named 64-point congestion study.
SWEEP_WORKERS = 2
SWEEP_POINTS = 64
SWEEP_FLOWS = 256
SWEEP_INPUTS = 32

# serve_mixed: open loop over two connections, one per request class.
SERVE_PROFILE = "C17"
SERVE_NODES = 8
WARM_SET = 8
#: The open loop runs in slots of SLOT_S; each slot starts with a
#: REFERENCE_GUARD_S window in which nothing is due and the generator
#: times the reference kernel.  Requests are due at fixed offsets into
#: the slot: 36 hits and 5 misses a second.
SLOT_S = 1.0
REFERENCE_GUARD_S = 0.06
HIT_OFFSETS = [REFERENCE_GUARD_S + (k + 0.5) * (SLOT_S - REFERENCE_GUARD_S - 0.02) / 36
               for k in range(36)]
MISS_OFFSETS = [REFERENCE_GUARD_S + (k + 0.5) * 0.15 for k in range(5)]
#: Misses re-run in-process by the traced run (profile.c17_s, checks).
PROFILE_SAMPLES = 6
SERVER_START_TIMEOUT_S = 15.0

MIN_OPS = 4

#: The shared host alternates between its uncontended speed and stretches
#: of 5-90 s in which everything runs 40-75% slower, often for a whole
#: run.  Every timed figure is therefore bracketed by a reference kernel
#: -- a frozen max-min progressive filling over dict-held links, the kind
#: of work the program does most, owned by the benchmark so no change to
#: the program moves it -- and reported in reference-host seconds:
#: ``wall * REFERENCE_NOMINAL_S / reference time around it``.
#: REFERENCE_NOMINAL_S is the kernel's time on the uncontended host, so
#: figures read as seconds on that host (2-vCPU Intel Xeon, Python 3.11).
REFERENCE_LINKS = 80
REFERENCE_FLOWS = 240
REFERENCE_NOMINAL_S = 0.0045

#: PhaseProfiler phase -> per-layer metric prefix.
PHASES = {
    "fabric.congestion_solve": "fabric.congestion_solve",
    "fabric.routing": "fabric.routing",
    "telemetry": "fabric.telemetry",
}


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))] if ordered else 0.0


def _reference_paths() -> dict:
    rng = random.Random("perfbench-reference")
    return {flow: rng.sample(range(REFERENCE_LINKS), 4)
            for flow in range(REFERENCE_FLOWS)}


REFERENCE_PATHS = _reference_paths()


def reference_fill(paths: dict) -> dict:
    """Max-min fair rates of unit-capacity links by progressive filling."""
    capacity, users = {}, {}
    for flow, path in paths.items():
        for link in path:
            capacity[link] = 1.0
            users.setdefault(link, set()).add(flow)
    rates, active = {}, set(paths)
    while active:
        share, bottleneck = min((capacity[link] / len(flows & active), link)
                                for link, flows in users.items() if flows & active)
        for flow in users[bottleneck] & active:
            rates[flow] = share
            active.discard(flow)
            for link in paths[flow]:
                capacity[link] -= share
    return rates


def reference_seconds() -> float:
    """The faster of two timings of the reference kernel (~5 ms)."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        reference_fill(REFERENCE_PATHS)
        best = min(best, time.perf_counter() - started)
    return best


def cpu_references(cpus) -> list:
    """Reference time on each of ``cpus`` in turn.  The vCPUs of a shared
    host change speed independently, so work that spans several of them
    is scaled by their mean."""
    home = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(reference_seconds())
    finally:
        os.sched_setaffinity(0, home)
    return times


def all_cpus_reference() -> float:
    return statistics.mean(cpu_references(sorted(os.sched_getaffinity(0))))


def repeat_for(seconds: float, operation, reference=reference_seconds) -> list:
    """Call ``operation(i)`` for i = 0, 1, ... until ``seconds`` pass.

    Returns, per operation, the mean ``reference()`` time just before and
    just after it.
    """
    deadline = time.perf_counter() + seconds
    references = []
    while len(references) < MIN_OPS or time.perf_counter() < deadline:
        before = reference()
        operation(len(references))
        references.append((before + reference()) / 2)
    return references


def scaled(samples, references) -> list:
    """``(operation index, seconds)`` samples in reference-host seconds."""
    return [seconds * REFERENCE_NOMINAL_S / references[index]
            for index, seconds in samples]


def peak_rss_mb(children: bool = False) -> float:
    """High-water RSS of this process (and of its reaped children)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def flow_digest(stats, count: int):
    """sha256 over ``(flow_id, completion_time)``, or None if a flow is
    missing, dropped or short of its bytes."""
    if len(stats) != count:
        return None
    digest = hashlib.sha256()
    for index, flow in enumerate(sorted(stats, key=lambda s: s.flow_id)):
        if (flow.flow_id != index or flow.dropped
                or flow.delivered_bytes != FLOW_BYTES or flow.size != FLOW_BYTES):
            return None
        digest.update(f"{flow.flow_id}:{flow.completion_time!r};".encode())
    return digest.hexdigest()[:16]


class Outcome:
    """Attempted/failed operation counts plus notes for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note and len(self.notes) < 20:
                self.notes.append(note)


def profiled_telemetry(recorder: SpanRecorder):
    """``Telemetry(profiler=PhaseProfiler())`` as ``repro profile`` builds
    it, or None (layers unmeasured) when either name is gone."""
    try:
        from repro.observability import PhaseProfiler, Telemetry
    except ImportError:
        recorder.unmeasured.update(PHASES.values())
        return None
    return Telemetry(profiler=PhaseProfiler())


def trace_fabric_runs(recorder: SpanRecorder):
    """Wrap ``FabricSimulator.run`` in a ``fabric.run`` span that also
    charges the run's profiler phases and route-cache hits/misses.

    Returns the callable that restores the original."""
    try:
        from repro.interconnect.fabric import FabricSimulator
        from repro.interconnect.routecache import route_cache_for
    except ImportError:
        recorder.unmeasured.update(["fabric.run", "routecache.hits", "routecache.misses"])
        return lambda: None
    original = FabricSimulator.run

    def run(self, flows, *args, **kwargs):
        cache = route_cache_for(self.topology)
        before_cache = cache.stats()
        profiler = getattr(self.telemetry, "profiler", None)
        before = dict(profiler.phases) if profiler is not None else {}
        with recorder.span("fabric.run"):
            stats = original(self, flows, *args, **kwargs)
            if profiler is not None:
                for phase, (seconds, calls) in profiler.phases.items():
                    start_seconds, start_calls = before.get(phase, (0.0, 0))
                    recorder.charge(phase, seconds - start_seconds,
                                    calls - start_calls)
        after_cache = cache.stats()
        recorder.count("routecache.hits",
                       after_cache["hits"] - before_cache["hits"])
        recorder.count("routecache.misses",
                       after_cache["misses"] - before_cache["misses"])
        return stats

    FabricSimulator.run = run
    return lambda: setattr(FabricSimulator, "run", original)


def fabric_layers(taken: dict) -> dict:
    """Per-layer values of one recorder take that holds fabric runs."""
    table = layer_table(taken["spans"])
    row = lambda name: table.get(name, [0.0, 0.0, 0])  # noqa: E731
    layers = {
        "fabric.run_s": row("fabric.run")[0],
        "fabric.unattributed_s": row("fabric.run")[1],
        "topology.build_s": row("topology.build")[0],
        "topology.builds": row("topology.build")[2],
        "routecache.hits": taken["counts"].get("routecache.hits", 0.0),
        "routecache.misses": taken["counts"].get("routecache.misses", 0.0),
    }
    for phase, metric in PHASES.items():
        layers[f"{metric}_s"] = row(phase)[0]
        if metric != "fabric.telemetry":
            layers[f"{metric}_calls"] = row(phase)[2]
    layers["attributed_s"] = layers["topology.build_s"] + sum(
        row(phase)[0] for phase in PHASES
    )
    return layers


def layer_medians(per_op: list, seen: set, recorder: SpanRecorder) -> dict:
    """Median of each layer over the traced operations; a layer whose
    span never appeared is reported unmeasured."""
    merged = {}
    for name in per_op[0]:
        merged[name] = median([layers[name] for layers in per_op])
    for span_name, metric in [("fabric.run", "fabric.run")] + list(PHASES.items()):
        if span_name not in seen:
            recorder.unmeasured.add(metric)
    return merged


# --- fabric_burst ------------------------------------------------------------


class FabricBurst:
    """Synchronized bursts, in process and single-threaded."""

    def __init__(self, seed: int, seconds: float, recorder: SpanRecorder,
                 scratch: Path) -> None:
        from repro.interconnect.congestion import congestion_policy
        from repro.interconnect.fabric import FabricSimulator, Flow
        from repro.interconnect.topology import build_topology

        self.recorder = recorder
        self._policy = congestion_policy
        self._simulator = FabricSimulator
        self._flow = Flow
        self._build = build_topology
        with recorder.span("topology.build"):
            self.topology = build_topology("dragonfly", **FABRIC_TOPOLOGY)
        terminals = sorted(self.topology.terminals)
        rng = random.Random(f"fabric_burst/{seed}")
        self.bursts = [
            [tuple(rng.sample(terminals, 2)) for _ in range(flows)]
            for flows in [BURST_FLOWS] * BURST_INPUTS + [SMALL_FLOWS] * BURST_INPUTS
        ]
        self.digests = {}

    def simulate(self, burst: int, topology, telemetry=None):
        """Run input burst ``burst``: 0..BURST_INPUTS-1 are the large
        ones, BURST_INPUTS.. the small ones."""
        pairs = self.bursts[burst]
        flows = [
            self._flow(source=source, destination=destination,
                       size=FLOW_BYTES, start_time=k * BURST_SPACING_S,
                       flow_id=k)
            for k, (source, destination) in enumerate(pairs)
        ]
        options = {} if telemetry is None else {"telemetry": telemetry}
        simulator = self._simulator(
            topology, congestion=self._policy("flow"),
            reroute_adaptively=True, **options,
        )
        return simulator.run(flows)

    def check(self, burst: int, stats, outcome: Outcome) -> None:
        digest = flow_digest(stats, len(self.bursts[burst]))
        expected = self.digests.setdefault(burst, digest)
        outcome.record(
            digest is not None and digest == expected,
            f"burst {burst}: digest {digest} (expected {expected})",
        )

    def timed(self, burst: int, outcome: Outcome, cold: bool = False) -> float:
        """Wall of one untraced burst; a cold one includes building the
        topology it runs on."""
        started = time.perf_counter()
        topology = (self._build("dragonfly", **FABRIC_TOPOLOGY) if cold
                    else self.topology)
        stats = self.simulate(burst, topology)
        seconds = time.perf_counter() - started
        self.check(burst, stats, outcome)
        return seconds

    def measure(self, seconds: float, trace: bool) -> dict:
        outcome = Outcome()
        warm, small_warm, small_cold, traced = [], [], [], []
        setup = fabric_layers(self.recorder.take())
        per_op, seen = [], set()

        def operation(index: int) -> None:
            burst = index % BURST_INPUTS
            if trace and index % 2:
                restore = trace_fabric_runs(self.recorder)
                try:
                    telemetry = profiled_telemetry(self.recorder)
                    with self.recorder.span("burst", request=index):
                        stats = self.simulate(burst, self.topology, telemetry)
                finally:
                    restore()
                self.check(burst, stats, outcome)
                taken = self.recorder.take()
                seen.update(span["name"] for span in taken["spans"])
                layers = fabric_layers(taken)
                wall = layer_table(taken["spans"])["burst"][0]
                traced.append((index, wall))
                layers["trace.unattributed_s"] = wall - layers.pop("attributed_s")
                layers["trace.unattributed_frac"] = layers["trace.unattributed_s"] / wall
                per_op.append(layers)
                return
            warm.append((index, self.timed(burst, outcome)))
            if trace:
                return
            for k in range(SMALL_BURSTS):
                small = BURST_INPUTS + (index * SMALL_BURSTS + k) % BURST_INPUTS
                small_warm.append((index, self.timed(small, outcome)))
                small_cold.append((index, self.timed(small, outcome, cold=True)))

        references = repeat_for(seconds, operation)
        outcome.notes.append(
            "burst digests: " + " ".join(
                f"{burst}:{digest}" for burst, digest in sorted(self.digests.items())
            )
        )
        result = {"outcome": outcome}
        warm = median(scaled(warm, references))
        if trace:
            layers = layer_medians(per_op, seen, self.recorder)
            layers["topology.build_s"] = setup["topology.build_s"]
            layers["topology.builds"] = setup["topology.builds"]
            layers["trace.overhead_frac"] = median(scaled(traced, references)) / warm - 1.0
            result["layers"] = layers
        else:
            result["metrics"] = {
                "work_per_s": BURST_FLOWS / warm,
                "hit_latency_p50_s": median(scaled(small_warm, references)),
                "miss_latency_p50_s": median(scaled(small_cold, references)),
                "peak_rss_mb": peak_rss_mb(),
            }
        return result

    def close(self) -> None:
        pass


# --- sweep_congestion ----------------------------------------------------------


def trace_sweep_points(recorder: SpanRecorder, spans_dir: Path):
    """Trace every fabric-congestion point in the sweep's workers.

    The default executor forks its workers, so wrappers installed here
    are inherited: each point runs under a ``sweep.point`` span with the
    profiled telemetry attached, and the worker appends the point's spans
    to ``spans_dir/<pid>.jsonl``.  Under an executor that does not fork,
    no file appears and the layers read as unmeasured.
    """
    restores = [trace_fabric_runs(recorder)]
    try:
        from repro.observability import PhaseProfiler, Telemetry
        from repro.sweep import targets
    except ImportError:
        recorder.unmeasured.add("sweep.point")
        return lambda: [restore() for restore in restores]
    restores.append(recorder.wrap(targets, "build_topology", "topology.build"))
    original = targets.TARGETS.get("fabric-congestion")
    if original is None:
        recorder.unmeasured.add("sweep.point")
        return lambda: [restore() for restore in restores]

    def point(params, telemetry, rng):
        profiled = Telemetry(tracer=telemetry.tracer, metrics=telemetry.metrics,
                             profiler=PhaseProfiler())
        with recorder.span("sweep.point"):
            metrics = original(params, profiled, rng)
        with open(spans_dir / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as out:
            out.write(json.dumps(recorder.take()) + "\n")
        return metrics

    targets.TARGETS["fabric-congestion"] = point

    def restore_all():
        targets.TARGETS["fabric-congestion"] = original
        for restore in restores:
            restore()

    return restore_all


class SweepCongestion:
    """``run_sweep(named_sweep("congestion", seed=...), workers=2)``."""

    def __init__(self, seed: int, seconds: float, recorder: SpanRecorder,
                 scratch: Path) -> None:
        from repro.sweep import named_sweep, run_sweep

        self.recorder = recorder
        self._run = run_sweep
        rng = random.Random(f"sweep_congestion/{seed}")
        self.specs = [
            named_sweep("congestion", seed=rng.randrange(1, 2**31))
            for _ in range(SWEEP_INPUTS)
        ]
        self.spans_dir = scratch / "sweep-spans"
        self.fingerprints = {}

    def sweep(self, index: int):
        spec = self.specs[index % SWEEP_INPUTS]
        first = []

        def progress(_result) -> None:
            if not first:
                first.append(time.perf_counter())

        started = time.perf_counter()
        result = self._run(spec, workers=SWEEP_WORKERS, progress=progress)
        wall = time.perf_counter() - started
        return result, wall, (first[0] - started) if first else wall

    def check(self, index: int, result, outcome: Outcome) -> None:
        fingerprint = result.fingerprint()
        expected = self.fingerprints.setdefault(index % SWEEP_INPUTS, fingerprint)
        ok = (
            result.ok and len(result.points) == SWEEP_POINTS
            and fingerprint == expected
            and all(point.metrics.get("flows_finished") == SWEEP_FLOWS
                    for point in result.points)
        )
        outcome.record(ok, f"sweep {index}: ok={result.ok} "
                           f"points={len(result.points)} fingerprint={fingerprint[:16]}")

    def traced_layers(self, result, wall: float, first: float) -> dict:
        points = []
        for path in sorted(self.spans_dir.glob("*.jsonl")):
            points.extend(json.loads(line) for line in path.read_text().splitlines())
            path.unlink()
        per_point = [fabric_layers(taken) for taken in points]
        layers = {
            name: sum(point[name] for point in per_point)
            for name in (per_point[0] if per_point else [])
        }
        point_walls = [point.wall_seconds for point in result.points]
        layers.update({
            "sweep.wall_s": wall,
            "sweep.point_s": median(point_walls),
            "sweep.first_result_s": first,
            "sweep.harness_s": wall - sum(point_walls) / SWEEP_WORKERS,
            "sweep.points": len(result.points),
            "sweep.failed_points": len(result.failures),
        })
        attributed = layers.pop("attributed_s", 0.0) / SWEEP_WORKERS
        layers["trace.unattributed_s"] = wall - attributed
        layers["trace.unattributed_frac"] = (wall - attributed) / wall
        seen = {span["name"] for taken in points for span in taken["spans"]}
        return layers, seen

    def measure(self, seconds: float, trace: bool) -> dict:
        outcome = Outcome()
        walls, firsts, point_walls, traced_walls = [], [], [], []
        per_op, seen = [], set()
        self.spans_dir.mkdir(parents=True, exist_ok=True)

        def operation(index: int) -> None:
            if trace and index % 2:
                restore = trace_sweep_points(self.recorder, self.spans_dir)
                try:
                    result, wall, first = self.sweep(index)
                finally:
                    restore()
                layers, names = self.traced_layers(result, wall, first)
                per_op.append(layers)
                seen.update(names)
                traced_walls.append((index, wall))
            else:
                result, wall, first = self.sweep(index)
                walls.append((index, wall))
                firsts.append((index, first))
                point_walls.extend((index, point.wall_seconds) for point in result.points)
            self.check(index, result, outcome)

        references = repeat_for(seconds, operation, all_cpus_reference)
        outcome.notes.append(
            "sweep fingerprints: " + " ".join(
                f"{self.specs[index].seed}:{fingerprint[:16]}"
                for index, fingerprint in sorted(self.fingerprints.items())
            )
        )
        result = {"outcome": outcome}
        if trace:
            if not per_op or "sweep.point" not in seen:
                self.recorder.unmeasured.update(["sweep.point", "topology.build"])
            layers = layer_medians(per_op, seen, self.recorder) if per_op else {}
            layers["trace.overhead_frac"] = (median(scaled(traced_walls, references))
                                             / median(scaled(walls, references)) - 1.0)
            result["layers"] = layers
        else:
            result["metrics"] = {
                "work_per_s": SWEEP_POINTS / median(scaled(walls, references)),
                "hit_latency_p50_s": median(scaled(point_walls, references)),
                "miss_latency_p50_s": median(scaled(firsts, references)),
                "peak_rss_mb": peak_rss_mb(children=True),
            }
        return result

    def close(self) -> None:
        pass


# --- serve_mixed -----------------------------------------------------------------


def start_server(store: Path, log: Path, cpu=None):
    """Spawn ``python -m repro serve --port 0`` on a fresh store, on vCPU
    ``cpu`` alone when one is given.

    Returns ``(process, (host, port), seconds)``: seconds run from spawn
    until ``/healthz`` answers 200.
    """
    started = time.perf_counter()
    with open(log, "ab") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(store)],
            stdout=subprocess.PIPE, stderr=stderr, text=True,
            preexec_fn=None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu})),
        )
    try:
        line = process.stdout.readline()
        if not line.startswith("serving on http://"):
            raise RuntimeError(f"repro serve did not start: {line!r}")
        host, _, port = line.split("http://", 1)[1].strip().rpartition(":")
        address = (host, int(port))
        while True:
            try:
                connection = http.client.HTTPConnection(*address, timeout=5)
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    connection.close()
                    break
                connection.close()
            except OSError:
                pass
            if time.perf_counter() - started > SERVER_START_TIMEOUT_S:
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.002)
    except BaseException:
        stop_server(process)
        raise
    return process, address, time.perf_counter() - started


def stop_server(process) -> None:
    """SIGINT (the service's clean shutdown), then SIGKILL; always reaped."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


def proc_status_kb(pid: int, field: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def scrape_counter(text: str, name: str) -> float:
    """Sum a counter over its label sets in a Prometheus exposition."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name + "{") or line.startswith(name + " "):
            total += float(line.rsplit(" ", 1)[1])
    return total


def encode(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def respell(seed: int, rng: random.Random) -> bytes:
    """One spelling of the warm request for ``seed``: key order, int or
    float numbers and profile-id case vary; the canonical form does not."""
    params = [("seed", seed if rng.random() < 0.5 else float(seed)),
              ("nodes", SERVE_NODES if rng.random() < 0.5 else float(SERVE_NODES))]
    rng.shuffle(params)
    fields = [("profile", rng.choice([SERVE_PROFILE, SERVE_PROFILE.lower()])),
              ("params", dict(params))]
    rng.shuffle(fields)
    return encode(dict(fields))


def canonical_body(seed: int) -> bytes:
    return encode({"profile": SERVE_PROFILE,
                   "params": {"nodes": SERVE_NODES, "seed": seed}})


class ServeMixed:
    """Open-loop cached hits and cold C17 misses against ``repro serve``."""

    def __init__(self, seed: int, seconds: float, recorder: SpanRecorder,
                 scratch: Path) -> None:
        self.recorder = recorder
        self.scratch = scratch
        rng = random.Random(f"serve_mixed/{seed}")
        self.warm_seeds = rng.sample(range(1, 1_000_000), WARM_SET)
        self.slots = max(MIN_OPS, int(seconds / SLOT_S))
        misses = len(MISS_OFFSETS) * self.slots
        self.hits = []
        for _ in range(len(HIT_OFFSETS) * self.slots):
            warm = rng.randrange(WARM_SET)
            self.hits.append((warm, respell(self.warm_seeds[warm], rng)))
        self.misses = [
            (miss_seed, canonical_body(miss_seed))
            for miss_seed in rng.sample(range(1_000_000, 2**31), misses)
        ]
        # The server and the generator each get a vCPU of their own, and
        # the reference kernel is timed on both (see cpu_references).
        cpus = sorted(os.sched_getaffinity(0))
        self.cpus = (cpus[-1], cpus[0])
        os.sched_setaffinity(0, {cpus[0]})
        self.server, self.address, _ = start_server(
            scratch / "store", scratch / "serve.log", cpu=cpus[-1]
        )
        self.cold = []

    def scrape(self) -> str:
        """The server's ``/metrics`` exposition."""
        connection = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            connection.request("GET", "/metrics")
            return connection.getresponse().read().decode("utf-8")
        finally:
            connection.close()

    def post(self, connection, body: bytes):
        connection.request("POST", "/v1/profile", body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.getheader("X-Cache"), response.read()

    def lane(self, requests, offsets, start: float, out: list,
             spans: SpanRecorder, trace: bool) -> None:
        """Send ``requests`` at ``offsets`` into each slot regardless of
        replies, recording ``(key, slot, due, sent, done, status, cache,
        body)``."""
        connection = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            for index, (key, body) in enumerate(requests):
                slot, position = divmod(index, len(offsets))
                due = start + slot * SLOT_S + offsets[position]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    if trace and index % 2:
                        with spans.span("serve.request", request=index):
                            reply = self.post(connection, body)
                    else:
                        reply = self.post(connection, body)
                except (OSError, http.client.HTTPException) as error:
                    connection.close()
                    reply = (0, None, repr(error).encode())
                out.append((key, slot, due, sent, time.perf_counter()) + reply)
        finally:
            connection.close()

    def measure(self, seconds: float, trace: bool) -> dict:
        outcome = Outcome()
        connection = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            for warm_seed in self.warm_seeds:
                status, cache, body = self.post(connection, canonical_body(warm_seed))
                outcome.record(status == 200 and cache == "miss",
                               f"warm {warm_seed}: {status} {cache}")
                self.cold.append(body)
        finally:
            connection.close()

        scraped_before = self.scrape()
        cpu_before = proc_cpu_seconds(self.server.pid)
        start = time.perf_counter() + 0.05
        hit_log, miss_log = [], []
        lanes = [
            threading.Thread(target=self.lane, args=(
                self.hits, HIT_OFFSETS, start, hit_log, SpanRecorder(), trace)),
            threading.Thread(target=self.lane, args=(
                self.misses, MISS_OFFSETS, start, miss_log, SpanRecorder(), trace)),
        ]
        for lane in lanes:
            lane.start()
        # The reference kernel runs at each slot boundary, while nothing is due.
        references = []
        for slot in range(self.slots + 1):
            delay = start + slot * SLOT_S - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            references.append(statistics.mean(cpu_references(self.cpus)))
        for lane in lanes:
            lane.join()
        cpu_seconds = proc_cpu_seconds(self.server.pid) - cpu_before
        slot_references = [(before + after) / 2
                           for before, after in zip(references, references[1:])]

        hit_latency, miss_latency = [], []
        hit_by_trace = ([], [])
        for index, (warm, slot, due, sent, done, status, cache, body) in enumerate(hit_log):
            ok = status == 200 and cache == "hit" and body == self.cold[warm]
            outcome.record(ok, f"hit {index}: {status} {cache} "
                               f"identical={body == self.cold[warm]}")
            hit_latency.append((slot, done - due))
            hit_by_trace[index % 2].append(done - due)
        miss_bodies = {}
        for index, (miss_seed, slot, due, sent, done, status, cache, body) in enumerate(miss_log):
            ok = status == 200 and cache == "miss"
            if ok:
                document = json.loads(body)
                ok = (document["request"]["profile"] == SERVE_PROFILE
                      and document["request"]["params"]["seed"] == miss_seed)
                miss_bodies[miss_seed] = document
            outcome.record(ok, f"miss {index} seed {miss_seed}: {status} {cache}")
            miss_latency.append((slot, done - due))
        lag = max(sent - due for _, _, due, sent, *_ in hit_log + miss_log)

        scraped = self.scrape()
        events = (scrape_counter(scraped, "serve_kernel_events")
                  - scrape_counter(scraped_before, "serve_kernel_events"))
        peak = proc_status_kb(self.server.pid, "VmHWM") / 1024.0
        outcome.notes.append(
            f"{len(hit_log)} hits, {len(miss_log)} misses, server cpu "
            f"{cpu_seconds:.3f} s, {events:.0f} kernel events, "
            f"generator lag max {lag * 1e3:.2f} ms"
        )

        result = {"outcome": outcome}
        if not trace:
            server_seconds = cpu_seconds * REFERENCE_NOMINAL_S / median(slot_references)
            result["metrics"] = {
                "work_per_s": events / server_seconds,
                "hit_latency_p50_s": median(scaled(hit_latency, slot_references)),
                "miss_latency_p50_s": median(scaled(miss_latency, slot_references)),
                "peak_rss_mb": peak,
            }
            return result
        hit_latency = [seconds for _, seconds in hit_latency]
        miss_latency = [seconds for _, seconds in miss_latency]
        hit_p50, miss_p50 = median(hit_latency), median(miss_latency)
        layers = self.in_process_layers(hit_log, miss_log, miss_bodies, outcome)
        layers.update({
            "serve.hit_overhead_s": hit_p50 - layers["serve.canonicalise_s"]
            - layers["serve.cache_get_s"],
            "serve.miss_overhead_s": miss_p50 - layers["profile.c17_s"],
            "serve.hit_ratio": len(hit_log) / max(1, len(hit_log) + len(miss_log)),
            "serve.simulations": scrape_counter(scraped, "serve_simulations"),
            "serve.kernel_events": scrape_counter(scraped, "serve_kernel_events"),
            "serve.rejected": scrape_counter(scraped, "serve_rejected"),
            "serve.errors": scrape_counter(scraped, "serve_errors"),
            "serve.hit_latency_p90_s": quantile(hit_latency, 0.9),
            "serve.miss_latency_p90_s": quantile(miss_latency, 0.9),
            "serve.hit_samples": len(hit_latency),
            "serve.miss_samples": len(miss_latency),
            "serve.generator_lag_max_s": lag,
            "trace.overhead_frac": median(hit_by_trace[1]) / median(hit_by_trace[0]) - 1.0,
        })
        unattributed = (len(hit_latency) * layers["serve.hit_overhead_s"]
                        + len(miss_latency) * layers["serve.miss_overhead_s"])
        waited = len(hit_latency) * hit_p50 + len(miss_latency) * miss_p50
        layers["trace.unattributed_s"] = unattributed / max(1, len(hit_latency) + len(miss_latency))
        layers["trace.unattributed_frac"] = unattributed / waited
        result["layers"] = layers
        return result

    def in_process_layers(self, hit_log, miss_log, miss_bodies, outcome) -> dict:
        """Time the serve layers on this run's own bodies, in process."""
        recorder = self.recorder
        layers = {}
        try:
            from repro.serve import ResultCache
            from repro.validate.fingerprint import canonical_request, request_fingerprint
        except ImportError:
            recorder.unmeasured.update(["serve.canonicalise", "serve.cache_get"])
            layers["serve.canonicalise_s"] = layers["serve.cache_get_s"] = 0.0
        else:
            canonicalise = []
            sent = self.hits[:len(hit_log)] + self.misses[:len(miss_log)]
            for _key, body in sent:
                payload = json.loads(body)
                with recorder.span("serve.canonicalise") as span:
                    request_fingerprint(canonical_request(payload))
                canonicalise.append(span["end"] - span["start"])
            cache = ResultCache(self.scratch / "cache-probe")
            fingerprints = []
            for warm_seed, body in zip(self.warm_seeds, self.cold):
                fingerprint = request_fingerprint(
                    canonical_request(json.loads(canonical_body(warm_seed))))
                cache.put(fingerprint, body)
                fingerprints.append(fingerprint)
            gets = []
            for warm, *_ in hit_log:
                with recorder.span("serve.cache_get") as span:
                    cache.get(fingerprints[warm])
                gets.append(span["end"] - span["start"])
            layers["serve.canonicalise_s"] = median(canonicalise)
            layers["serve.cache_get_s"] = median(gets)

        try:
            from repro import profiles
            from repro.observability import PhaseProfiler, Telemetry
            from repro.validate.fingerprint import canonical_request, profile_fingerprint
        except ImportError:
            recorder.unmeasured.update(["profile.c17", "kernel.dispatch", "kernel.events"])
            layers.update({"profile.c17_s": 0.0, "kernel.dispatch_s": 0.0,
                           "kernel.events": 0.0})
            return layers
        walls, dispatch, events = [], [], []
        for miss_seed in list(miss_bodies)[:PROFILE_SAMPLES]:
            params = canonical_request(json.loads(canonical_body(miss_seed)))["params"]
            profiler = PhaseProfiler()
            telemetry = Telemetry(profiler=profiler)
            with recorder.span("profile.c17") as span:
                result = profiles.run(SERVE_PROFILE, telemetry, **params)
            walls.append(span["end"] - span["start"])
            dispatch.append(profiler.seconds("kernel.dispatch"))
            events.append(telemetry.counter("sim.events.fired").total())
            document = json.loads(json.dumps(profile_fingerprint(result)))
            outcome.record(document == miss_bodies[miss_seed]["result"],
                           f"miss seed {miss_seed}: served result differs "
                           "from an in-process run")
        if "kernel.dispatch" not in profiler.phases:
            recorder.unmeasured.add("kernel.dispatch")
        layers.update({"profile.c17_s": median(walls),
                       "kernel.dispatch_s": median(dispatch),
                       "kernel.events": median(events)})
        return layers

    def close(self) -> None:
        stop_server(self.server)


WORKLOADS = {
    "fabric_burst": FabricBurst,
    "sweep_congestion": SweepCongestion,
    "serve_mixed": ServeMixed,
}


def import_probe() -> dict:
    before = set(sys.modules)
    started = time.perf_counter()
    import repro  # noqa: F401

    seconds = time.perf_counter() - started
    third_party = {
        name for name in set(sys.modules) - before
        if name.partition(".")[0] not in sys.stdlib_module_names
        and name.partition(".")[0] != "repro"
    }
    return {"import.repro_s": seconds,
            "import.third_party_modules": len(third_party)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--role", choices=("import", "setup", "work"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, default=Path(".perfbench"))
    args = parser.parse_args(argv)
    if args.role == "import":
        print(json.dumps(import_probe()), flush=True)
        return 0
    args.scratch.mkdir(parents=True, exist_ok=True)
    recorder = SpanRecorder()
    workload = WORKLOADS[args.workload](args.seed, args.seconds, recorder, args.scratch)
    try:
        print("ready", flush=True)
        if args.role == "setup":
            return 0
        result = workload.measure(args.seconds, bool(args.trace))
    finally:
        workload.close()
    outcome = result.pop("outcome")
    result.update(attempted=outcome.attempted, failed=outcome.failed,
                  notes=outcome.notes, unmeasured=sorted(recorder.unmeasured))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
