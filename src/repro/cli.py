"""Command-line interface: a thin parser over the library.

Run as ``python -m repro <command>``:

* ``catalog``    — the device catalog with reference-kernel timings,
* ``topology``   — build a topology family and print its metrics,
* ``roadmap``    — the technology-scaling table (C13's data),
* ``experiments``— the experiment index with bench targets,
* ``report``     — assemble the bench result tables into one report,
* ``trace``      — run a profiled experiment, write a Chrome trace,
* ``metrics``    — run a profiled experiment, print its counter tables
  (``metrics C16`` is the fault-injection campaign),
* ``profile``    — run an experiment under the wall-clock profiler and
  report where host time went (phases, event types, top frames),
* ``sweep``      — fan a scenario sweep over worker processes (or, with
  ``--backend tcp``, over a fleet of worker hosts),
* ``sweep-worker`` — serve one worker host for a tcp-backend sweep,
* ``serve`` / ``serve-request`` — the simulation service and its client,
* ``validate``   — run invariants, differential checks and golden-
  fingerprint comparisons (``--record`` refreshes the goldens).

``--set KEY=VALUE`` is the one override spelling (for a profile or
``build_topology``).  A flag that names a library field (of
``SupervisorConfig``, ``FleetConfig``, ``ServeConfig``, ``run_worker`` or
``validate``) reaches it only when given: the library holds the defaults.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import List, Optional

from repro.core.errors import ConfigurationError

# The simulator is imported inside the handlers that use it: building the
# parser, ``--help`` and ``serve-request`` load neither numpy nor networkx.

#: What the library raises on a bad ``--set`` value, naming the field.
_BAD_INPUT = (ConfigurationError, TypeError, ValueError)

#: Experiment registry: id -> (claim anchor, bench target).
EXPERIMENTS = {
    "F1": ("Figure 1: Big Data/HPC/AI convergence", "benchmarks/test_fig1_convergence.py"),
    "F2": ("Figure 2: interconnect scales", "benchmarks/test_fig2_interconnect_scales.py"),
    "F3": ("Figure 3: delivery models", "benchmarks/test_fig3_delivery_models.py"),
    "C1": ("SII.B: flow-based congestion management", "benchmarks/test_congestion_management.py"),
    "C2": ("SII.B: low-diameter topologies", "benchmarks/test_topology_comparison.py"),
    "C3": ("SII.B: switch scaling wall", "benchmarks/test_switch_scaling.py"),
    "C4": ("SIII.B: accelerator specialisation O(N)", "benchmarks/test_accelerator_specialization.py"),
    "C5": ("SIII.B: closed-loop sim+AI", "benchmarks/test_closed_loop_hybrid.py"),
    "C6": ("SIII.A: instrumentation heavy edge", "benchmarks/test_edge_inference.py"),
    "C7": ("SII.C: cloud noise vs barriers", "benchmarks/test_cloud_noise.py"),
    "C8": ("SIII.F: transparent meta-scheduler", "benchmarks/test_metascheduler.py"),
    "C9": ("SIII.F: data gravity", "benchmarks/test_data_gravity.py"),
    "C10": ("SIII.F/G: Open Compute Exchange", "benchmarks/test_compute_exchange.py"),
    "C11": ("SIII.E: platform standardisation", "benchmarks/test_platform_economics.py"),
    "C12": ("SIII.C: in-network all-reduce offload", "benchmarks/test_collective_offload.py"),
    "C13": ("SI/SII.A: end of Dennard, dark silicon", "benchmarks/test_technology_scaling.py"),
    "C14": ("SIII.D: data-centric task mapping", "benchmarks/test_taskgraph_mapping.py"),
    "C15": ("SIII.C: virtual networks, zero trust", "benchmarks/test_virtual_networks.py"),
    "C16": ("SIII.C: fabric-PM resilience", "benchmarks/test_resilience_checkpointing.py"),
    "C17": ("SIII.D: model interchange", "benchmarks/test_model_interchange.py"),
    "C18": ("SIII.A/D: human-in-the-loop balance", "benchmarks/test_control_automation.py"),
    "C19": ("SIII.F: accounting and settlement", "benchmarks/test_federated_accounting.py"),
    "C20": ("SIV: horizontal federation smoothing", "benchmarks/test_horizontal_federation.py"),
}


def _imports_done() -> None:
    """Freeze the heap a command's imports built, before its run starts.

    The collector then never walks the import-time heap again, so a gen-2
    collection during the run costs what the run allocated, and forked
    workers do not copy the inherited pages on write.
    """
    gc.freeze()


def _command_catalog(args: argparse.Namespace) -> int:
    from repro.analysis.tables import Table
    from repro.core.units import format_time
    from repro.hardware import KernelProfile, Precision, default_catalog

    catalog = default_catalog()
    n = 4096
    kernel = KernelProfile(
        flops=2.0 * n * n * 256,
        bytes_moved=float(n * n),
        precision=Precision.INT8,
        mvm_dimension=n,
    )
    table = Table(
        "Device catalog (reference: batched 4096 INT8 MVM)",
        ["device", "kind", "TDP (W)", "unit cost ($)", "ref kernel time"],
    )
    for device in catalog:
        try:
            timing = format_time(device.time_for(kernel))
        except ConfigurationError:  # the device lacks the kernel's precision
            timing = "n/a"
        table.add_row(
            device.name, device.kind.value, device.spec.tdp,
            device.spec.unit_cost, timing,
        )
    table.print()
    return 0


def _command_topology(args: argparse.Namespace) -> int:
    from repro.analysis.tables import Table
    from repro.interconnect.topology import build_topology

    try:
        topology = build_topology(args.family, **dict(args.set))
    except _BAD_INPUT as error:
        print(f"bad topology: {error}", file=sys.stderr)
        return 2
    table = Table(f"Topology metrics: {topology.name}", ["metric", "value"])
    table.add_row("switches", topology.switch_count)
    table.add_row("terminals", topology.terminal_count)
    table.add_row("switch-to-switch links", topology.link_count)
    table.add_row("diameter (hops)", topology.diameter())
    table.add_row("average hops", topology.average_shortest_path())
    table.add_row("bisection bandwidth (GB/s)", topology.bisection_bandwidth() / 1e9)
    table.add_row("cost per terminal ($)", topology.cost_per_terminal())
    table.print()
    return 0


def _command_roadmap(args: argparse.Namespace) -> int:
    from repro.analysis.tables import Table
    from repro.hardware.technology import (
        GENERAL_PURPOSE,
        SPECIALIZED,
        default_roadmap,
        dennard_break_year,
    )

    table = Table(
        "Technology scaling roadmap (relative to 2005)",
        ["node", "year", "density", "power density", "lit fraction",
         "GP throughput", "specialised"],
    )
    for node in default_roadmap():
        table.add_row(
            node.name, node.year, node.density, node.power_density(),
            node.lit_fraction(), GENERAL_PURPOSE.throughput(node),
            SPECIALIZED.throughput(node),
        )
    table.print()
    print(f"Dennard break detected: {dennard_break_year()}")
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    from repro.analysis.tables import Table

    table = Table(
        "Experiment index (run: pytest <bench>)",
        ["id", "claim", "bench target"],
    )
    for experiment_id, (claim, target) in EXPERIMENTS.items():
        table.add_row(experiment_id, claim, target)
    table.print()
    return 0


def _command_report(args: argparse.Namespace) -> int:
    """Assemble the checkout's benchmarks/results/*.txt into REPORT.md."""
    import pathlib

    checkout = pathlib.Path(__file__).resolve().parents[2]
    results_dir = pathlib.Path(
        args.results_dir or checkout / "benchmarks" / "results"
    )
    if not results_dir.is_dir():
        print(
            f"no results at {results_dir}; run "
            "`pytest benchmarks` first",
            file=sys.stderr,
        )
        return 1
    chunks = ["# Experiment report", ""]
    found = 0
    for experiment_id in EXPERIMENTS:
        matches = sorted(results_dir.glob(f"{experiment_id}_*.txt"))
        for path in matches:
            chunks.append("```")
            chunks.append(path.read_text().rstrip())
            chunks.append("```")
            chunks.append("")
            found += 1
    if not found:
        print(f"no result files in {results_dir}", file=sys.stderr)
        return 1
    output = pathlib.Path(args.output or checkout / "REPORT.md")
    output.write_text("\n".join(chunks))
    print(f"wrote {found} experiment tables to {output}")
    return 0


def _run_profile(args: argparse.Namespace, telemetry=None):
    """Run ``args.experiment`` with its ``--set`` overrides.

    A telemetry's profiler charges the run to the ``profile.run`` phase.
    On a bad id or override, prints why and returns None (exit 2).
    """
    from repro import profiles
    from repro.observability.profiler import PHASE_RUN, timed

    _imports_done()
    profiler = telemetry.profiler if telemetry is not None else None
    try:
        return timed(profiler, PHASE_RUN, lambda: profiles.run(
            args.experiment, telemetry, **dict(args.set)
        ))()
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
    except _BAD_INPUT as error:
        given = ", ".join(f"{key}={value!r}" for key, value in args.set)
        print(f"bad override for {args.experiment} ({given}): {error}",
              file=sys.stderr)
    return None


def _print_summary(result) -> None:
    from repro.analysis.tables import Table

    table = Table(
        f"Run summary: {result.experiment_id} — {result.title}",
        ["metric", "value"],
    )
    for name, value in result.summary:
        table.add_row(name, value)
    table.print()


def _command_trace(args: argparse.Namespace) -> int:
    """Run one experiment profile with tracing on; export and summarise."""
    from repro.analysis.tables import Table
    from repro.observability.export import (
        top_time_sinks,
        write_chrome_trace,
        write_jsonl,
    )

    result = _run_profile(args)
    if result is None:
        return 2
    tracer = result.telemetry.tracer
    output = args.output or f"trace_{result.experiment_id.lower()}.json"
    path = write_chrome_trace(tracer, output)
    _print_summary(result)
    sinks = Table(
        f"Top {args.top} time sinks (total simulated seconds per span group)",
        ["category", "span", "total (s)", "count", "mean (s)"],
    )
    for category, name, total, count, mean in top_time_sinks(tracer, n=args.top):
        sinks.add_row(category, name, total, count, mean)
    sinks.print()
    print(f"wrote {len(tracer)} trace records to {path} "
          "(open at https://ui.perfetto.dev or chrome://tracing)")
    if args.jsonl:
        jsonl_path = write_jsonl(tracer, args.jsonl)
        print(f"wrote JSONL archival export to {jsonl_path}")
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    """Run one experiment profile and print its metric tables."""
    from repro.analysis.tables import Table
    from repro.observability.export import counter_rows, histogram_rows

    result = _run_profile(args)
    if result is None:
        return 2
    registry = result.telemetry.metrics
    _print_summary(result)
    counters = Table(
        f"Counters and gauges: {result.experiment_id}",
        ["metric", "labels", "value"],
    )
    for name, labels, value in sorted(counter_rows(registry)):
        counters.add_row(name, labels or "-", value)
    counters.print()
    histogram_data = histogram_rows(registry)
    if histogram_data:
        histograms = Table(
            f"Histograms: {result.experiment_id}",
            ["metric", "labels", "bucket", "count", "mean"],
        )
        for name, labels, bucket, count, mean in histogram_data:
            histograms.add_row(name, labels or "-", bucket, count, mean)
        histograms.print()
    return 0


def _parse_axis_value(text: str):
    """``'0.5'`` -> float, ``'8'`` -> int, anything else stays a string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _key_values(text: str, expected: str):
    """``'KEY=V1,V2'`` -> ``('KEY', [v1, v2])``, each item typed."""
    key, separator, values = text.partition("=")
    if not separator or not key:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return key, [_parse_axis_value(item) for item in values.split(",")]


def _axis_clause(text: str):
    """``--axis NAME=V1,V2`` -> ``(name, [v1, v2])``."""
    name, values = _key_values(text, "NAME=V1,V2,...")
    if "" in values:
        raise argparse.ArgumentTypeError(
            f"axis {name!r} has an empty value in {text!r}"
        )
    return name, values


def _set_clause(text: str):
    """``--set KEY=VALUE`` -> ``(key, value)``; ``KEY=V1,V2`` gives a list."""
    key, values = _key_values(text, "KEY=VALUE")
    return key, values if len(values) > 1 else values[0]


def _given(args: argparse.Namespace, target) -> dict:
    """The flags given on the command line for ``target``'s fields.

    ``target`` is a dataclass or a function.  Flags that name one of its
    fields default to ``argparse.SUPPRESS``, so a flag left out is not in
    ``args`` and ``target`` keeps its own default.
    """
    import dataclasses
    import inspect

    if dataclasses.is_dataclass(target):
        names = [field.name for field in dataclasses.fields(target)]
    else:
        names = list(inspect.signature(target).parameters)
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _preload(modules: List[str]) -> bool:
    """Import every ``--preload`` module; print why one fails."""
    import importlib

    for module in modules:
        try:
            importlib.import_module(module)
        except ImportError as error:
            print(f"cannot preload {module!r}: {error}", file=sys.stderr)
            return False
    return True


def _command_profile(args: argparse.Namespace) -> int:
    """Run an experiment profile under the wall-clock profiler.

    Unlike ``trace``/``metrics`` (simulated time), this answers ROADMAP
    item 1's question — where does *host* wall-clock time go — with
    deterministic phase attribution, per-event-type latency tables, an
    optional sampling stack profiler, and a ``repro.profile/v1`` report
    JSON.  Exit codes: 0 ok, 2 bad profile id or override (the message
    names the field).
    """
    import json as json_module
    import pathlib

    # Import the profiles before the sampler starts, so it samples the run.
    from repro import profiles  # noqa: F401
    from repro.analysis.tables import Table
    from repro.observability import (
        PhaseProfiler,
        StackSampler,
        Telemetry,
        prometheus_lines,
        profile_report,
        write_chrome_trace,
        write_collapsed,
        write_prometheus,
    )

    profiler = PhaseProfiler(detail=bool(args.chrome))
    sampler = (
        StackSampler(interval=args.sample_interval)
        if (args.sample or args.collapsed)
        else None
    )
    telemetry = Telemetry(profiler=profiler)
    try:
        if sampler is not None:
            sampler.start()
        result = _run_profile(args, telemetry)
    finally:
        if sampler is not None:
            sampler.stop()
    if result is None:
        return 2

    _print_summary(result)
    phases = Table(
        "Wall-clock phases (host seconds, hottest first)",
        ["phase", "seconds", "calls", "mean (s)"],
    )
    for phase, seconds, calls, mean in profiler.phase_table():
        phases.add_row(phase, f"{seconds:.6f}", calls, f"{mean:.3e}")
    phases.print()
    events = Table(
        f"Top {args.top} event types by wall-clock dispatch time",
        ["callback", "seconds", "calls", "mean (s)"],
    )
    for label, seconds, calls, mean in profiler.event_table()[: args.top]:
        events.add_row(label, f"{seconds:.6f}", calls, f"{mean:.3e}")
    events.print()
    if sampler is not None:
        frames = Table(
            f"Top {args.top} sampled frames ({sampler.samples} samples, "
            f"{sampler.interval * 1e3:.1f} ms interval)",
            ["frame", "samples"],
        )
        for frame, count in sampler.top_frames(args.top):
            frames.add_row(frame, count)
        frames.print()

    report = profile_report(
        profiler, sampler, name=result.experiment_id, top=args.top
    )
    output = pathlib.Path(
        args.output or f"profile_{result.experiment_id.lower()}.json"
    )
    output.write_text(json_module.dumps(report, indent=2) + "\n")
    print(f"wrote profile report to {output}")
    if args.collapsed:
        path = write_collapsed(sampler, args.collapsed)
        print(f"wrote collapsed stacks (flamegraph input) to {path}")
    if args.chrome:
        path = write_chrome_trace(profiler.tracer, args.chrome)
        print(f"wrote wall-clock Chrome trace to {path}")
    if args.prometheus:
        path = write_prometheus(telemetry.metrics, args.prometheus)
        print(
            f"wrote {len(prometheus_lines(telemetry.metrics))} Prometheus "
            f"exposition lines to {path}"
        )
    return 0


def _is_flag(token: str, flag: str) -> bool:
    """True when ``token`` is ``flag`` or an abbreviation argparse took."""
    return len(token) > 2 and token.startswith("--") and flag.startswith(token)


def _resume_command(argv: List[str], journal_path: str) -> str:
    """The exact ``repro`` invocation that finishes this sweep.

    Printed in the Ctrl-C hint so resuming is one copy-paste: the
    interrupted command's own arguments, with ``--journal``/``--resume``
    replaced by ``--resume`` at the flushed journal and the
    ``--auth-token`` value replaced by a placeholder.
    """
    import shlex

    parts: List[str] = []
    tokens = iter(argv)
    for token in tokens:
        flag, inline, _ = token.partition("=")
        dropped = _is_flag(flag, "--journal") or _is_flag(flag, "--resume")
        secret = _is_flag(flag, "--auth-token")
        if not (dropped or secret):
            parts.append(token)
            continue
        if not inline:
            next(tokens, None)
        if secret:
            parts += ["--auth-token", "<SECRET>"]
    parts += ["--resume", str(journal_path)]
    return "repro " + shlex.join(parts)


def _command_sweep(args: argparse.Namespace) -> int:
    """Run a scenario sweep; print its table and optionally store JSON.

    Exit codes: 0 clean, 1 partial (error ledger non-empty, or a
    --strict point failure), 2 bad arguments, 130 interrupted (journal
    flushed; resume with --resume).
    """
    from repro.analysis.aggregate import pivot, summary_table
    from repro.analysis.tables import Table
    from repro.sweep import (
        NAMED_SWEEPS,
        FleetConfig,
        FleetError,
        SupervisorConfig,
        SweepPointError,
        SweepSpec,
        named_sweep,
        resolve_target,
        run_sweep,
    )
    from repro.sweep.store import save_sweep

    _imports_done()
    if args.axis and not args.target:
        print("--axis needs --target NAME", file=sys.stderr)
        return 2
    if args.target:
        if not args.axis:
            print("--target needs at least one --axis name=v1,v2,...",
                  file=sys.stderr)
            return 2
        spec = SweepSpec(
            name=args.name, target=args.target, grid=dict(args.axis),
            seed=args.seed if args.seed is not None else 0,
        )
    else:
        if args.name not in NAMED_SWEEPS:
            known = ", ".join(NAMED_SWEEPS)
            print(f"unknown sweep {args.name!r}; named sweeps: {known} "
                  "(or pass --target with --axis)", file=sys.stderr)
            return 2
        spec = named_sweep(args.name, seed=args.seed)
    try:
        resolve_target(spec.target)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2

    def announce(host: str, port: int) -> None:
        print(f"fleet coordinator listening on {host}:{port}", flush=True)

    fleet = None
    try:
        config = SupervisorConfig(**_given(args, SupervisorConfig))
        if args.backend == "tcp":
            fleet = FleetConfig(**_given(args, FleetConfig), on_listen=announce)
    except ConfigurationError as error:
        print(str(error), file=sys.stderr)
        return 2

    total = len(spec.grid)
    journal = getattr(args, "journal", None)

    def report(point) -> None:
        print(f"  point {point.index + 1}/{total} done "
              f"({point.wall_seconds * 1e3:.1f} ms)")

    collect_telemetry = bool(args.telemetry or args.prometheus)
    parent_telemetry = None
    reporter = None
    if args.progress or collect_telemetry:
        from repro.observability import Telemetry

        parent_telemetry = Telemetry()
    if args.progress:
        from repro.observability import SweepProgressReporter

        reporter = SweepProgressReporter(total, telemetry=parent_telemetry)

    try:
        try:
            result = run_sweep(
                spec, workers=args.workers,
                trace_dir=getattr(args, "trace_dir", None),
                progress=reporter if reporter is not None
                else (report if args.verbose else None),
                config=config, journal=journal, resume=args.resume,
                telemetry=parent_telemetry,
                collect_telemetry=collect_telemetry,
                backend=args.backend, fleet=fleet,
            )
        finally:
            if reporter is not None:
                reporter.close()
    except ConfigurationError as error:
        print(str(error), file=sys.stderr)
        return 2
    except (SweepPointError, FleetError) as error:
        print(str(error), file=sys.stderr)
        return 1
    except KeyboardInterrupt as interrupt:
        # A Ctrl-C before the executor took over (say, while the journal
        # header was being written) carries no partial result.
        partial = getattr(interrupt, "partial", None)
        done = len(partial.points) if partial is not None else 0
        remaining = total - done
        journal_path = args.resume[0] if args.resume else journal
        print(f"\ninterrupted: {done}/{total} point(s) completed "
              f"before Ctrl-C; {remaining} remaining", file=sys.stderr)
        if journal_path:
            print(f"journal flushed to {journal_path}; finish the "
                  f"remaining {remaining} point(s) with:",
                  file=sys.stderr)
            print(f"  {_resume_command(args.argv, journal_path)}",
                  file=sys.stderr)
        else:
            print("no journal was kept (pass --journal PATH to make "
                  "sweeps resumable)", file=sys.stderr)
        return 130
    # With no completed point there is nothing to tabulate; the error
    # ledger below says why every point failed.
    if result.points and args.pivot:
        rows_axis, columns_axis, value = args.pivot
        pivot(result, rows_axis, columns_axis, value,
              title=f"Sweep {result.name}: {value}").print()
    elif result.points:
        summary_table(
            result, title=f"Sweep {result.name} ({result.target}, "
                          f"{len(result.points)} points, "
                          f"{result.workers} workers)"
        ).print()
    print(f"swept {len(result.points)} points in "
          f"{result.wall_seconds:.2f}s with {result.workers} worker(s); "
          f"fingerprint {result.fingerprint()[:12]}")
    recovered = sum(
        result.harness.get(key, 0.0)
        for key in ("crashes", "timeouts", "errors")
    )
    if recovered:
        print(f"supervisor recovered from {recovered:.0f} harness fault(s): "
              f"{result.harness.get('crashes', 0.0):.0f} crash(es), "
              f"{result.harness.get('timeouts', 0.0):.0f} timeout(s), "
              f"{result.harness.get('errors', 0.0):.0f} point error(s); "
              f"{result.harness.get('retries', 0.0):.0f} retried")
    if result.failures:
        print(f"\n{len(result.failures)} point(s) failed after retries:",
              file=sys.stderr)
        for failure in result.failures:
            print(f"  point {failure.index} ({failure.attempts} attempts): "
                  f"{failure.error}", file=sys.stderr)
    if args.backend == "tcp" and parent_telemetry is not None:
        from repro.observability import host_breakdown, summarize_telemetry

        per_host = host_breakdown(summarize_telemetry(parent_telemetry))
        if per_host:
            events = sorted({e for ev in per_host.values() for e in ev})
            fleet_table = Table("Fleet hosts", ["host"] + events)
            for host_name, values in per_host.items():
                fleet_table.add_row(
                    host_name,
                    *(f"{values.get(event, 0.0):g}" for event in events),
                )
            fleet_table.print()
    if collect_telemetry and result.telemetry is not None:
        spans = sum(
            entry.get("count", 0)
            for names in result.telemetry.get("spans", {}).values()
            for entry in names.values()
        )
        print(f"merged telemetry from {len(result.points)} point(s): "
              f"{len(result.telemetry.get('counters', {}))} counters, "
              f"{len(result.telemetry.get('histograms', {}))} histograms, "
              f"{spans:.0f} spans")
    if args.prometheus and result.telemetry is not None:
        from repro.observability import (
            registry_from_summary,
            write_prometheus,
        )

        path = write_prometheus(
            registry_from_summary(result.telemetry), args.prometheus
        )
        print(f"wrote Prometheus exposition to {path}")
    if args.output:
        path = save_sweep(result, args.output)
        print(f"wrote sweep results to {path}")
    return 0 if result.ok else 1


def _command_sweep_worker(args: argparse.Namespace) -> int:
    """Serve one sweep worker host until its coordinator releases it.

    Exit codes: 0 orderly shutdown, 1 coordinator connection lost
    mid-sweep, 2 bad arguments or unreachable coordinator.
    """
    from repro.sweep import FleetError
    from repro.sweep.remote_worker import run_worker

    if not _preload(args.preload):
        return 2
    _imports_done()
    try:
        return run_worker(**_given(args, run_worker))
    except (FleetError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


def _command_serve(args: argparse.Namespace) -> int:
    """Run the long-running simulation service until interrupted.

    Prints the bound address (port 0 picks an ephemeral port) and the
    artefact store path, then serves forever.  Exit codes: 0 on
    SIGINT/EOF, 2 on bad arguments.
    """
    import asyncio
    import importlib

    from repro.serve import QuotaPolicy, ServeConfig, ServiceApp
    from repro.serve.app import REQUEST_PATH

    if not _preload(args.preload):
        return 2
    # Load what a request runs through before binding, so a 200 on
    # /healthz means the first cache miss already runs at full speed.
    for module in REQUEST_PATH:
        importlib.import_module(module)
    _imports_done()
    config = _given(args, ServeConfig)
    try:
        if "quota" in config:
            config["quota"] = QuotaPolicy.parse(config["quota"])
        app = ServiceApp(ServeConfig(**config))
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    async def serve() -> None:
        host, port = await app.start()
        print(f"serving on http://{host}:{port}", flush=True)
        print(f"artefact store at {app.cache.directory}", flush=True)
        await app.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    finally:
        app.close()
    return 0


def _command_serve_request(args: argparse.Namespace) -> int:
    """One request against a running serve process (the CLI client).

    Exit codes: 0 success, 1 server error, 2 bad arguments or
    connection failure, 3 request shed (429).
    """
    import json

    from repro.serve import http_request

    kind = args.kind
    method, target, payload = "GET", None, None
    headers = {}
    if args.tenant is not None:
        headers["X-Tenant"] = args.tenant
    if kind == "health":
        target = "/healthz"
    elif kind == "metrics":
        target = "/metrics"
    elif kind == "profile":
        if args.id is None:
            print("serve-request profile needs a profile id",
                  file=sys.stderr)
            return 2
        method, target = "POST", "/v1/profile"
        payload = {"profile": args.id, "params": dict(args.set)}
    else:  # sweep
        method, target = "POST", "/v1/sweep"
        if args.axis:
            if args.target is None:
                print("--axis needs --target NAME", file=sys.stderr)
                return 2
            payload = {"target": args.target, "axes": dict(args.axis)}
            if args.id is not None:
                payload["name"] = args.id
        elif args.id is not None:
            payload = {"sweep": args.id}
        else:
            print("serve-request sweep needs a named sweep id or "
                  "--target with --axis", file=sys.stderr)
            return 2
        if args.seed is not None:
            payload["seed"] = args.seed
    if args.stream and method == "POST":
        target += "?stream=1"
    try:
        response = http_request(
            args.url, method, target, payload,
            headers=headers, timeout=args.timeout,
        )
    except (ConnectionError, OSError, ValueError) as error:
        print(f"request failed: {error}", file=sys.stderr)
        return 2
    body = response.body.decode("utf-8", "replace")
    sys.stdout.write(body if body.endswith("\n") or not body else body + "\n")
    if response.status == 429:
        print(
            f"shed ({response.headers.get('x-reject-reason', '?')}); "
            f"Retry-After: {response.headers.get('retry-after', '?')}s",
            file=sys.stderr,
        )
        return 3
    if response.status >= 400:
        return 1
    if method == "POST" and not args.stream:
        envelope = json.loads(body)
        print(
            f"{envelope['kind']} {envelope['fingerprint'][:16]} "
            f"cache={response.headers.get('x-cache', '?')}",
            file=sys.stderr,
        )
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    """Run the validation pipeline; exit 0 only if everything holds."""
    from repro.validate import validate

    _imports_done()
    try:
        report = validate(
            mode="record" if args.record else "check",
            differential=not args.skip_differential,
            **_given(args, validate),
        )
    except (KeyError, ConfigurationError) as error:
        print(error.args[0], file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    from repro.sweep.backends import BACKEND_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Diversified heterogeneous HPC simulation framework "
                    "(DATE 2021 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Flag groups that several subcommands share (``parents=[...]``).
    overrides = argparse.ArgumentParser(add_help=False)
    overrides.add_argument(
        "--set", action="append", default=[], type=_set_clause,
        metavar="KEY=VALUE",
        help="override a field, e.g. --set max_jobs=50; V1,V2 gives a "
             "list (repeatable)",
    )
    experiment = argparse.ArgumentParser(add_help=False, parents=[overrides])
    experiment.add_argument("experiment", help="experiment id (e.g. F1, C16)")
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument(
        "--target", default=None, metavar="NAME",
        help="sweep a registered target (e.g. fabric-congestion, profile:C1) "
             "over --axis values instead of a named sweep",
    )
    target.add_argument(
        "--axis", action="append", default=[], type=_axis_clause,
        metavar="NAME=V1,V2", help="a grid axis for --target (repeatable)",
    )
    target.add_argument("--seed", type=int, default=None, help="sweep seed")
    # run_worker parameters (--auth-token is a FleetConfig field too): a
    # flag left out leaves the library's default.
    fleet = argparse.ArgumentParser(
        add_help=False, argument_default=argparse.SUPPRESS
    )
    fleet.add_argument(
        "--journal", metavar="PATH",
        help="journal every completed point to this crash-consistent JSONL "
             "file (a worker host's journal merges into `repro sweep "
             "--resume`)",
    )
    fleet.add_argument(
        "--trace-dir",
        help="write one telemetry JSONL per point under this directory",
    )
    fleet.add_argument(
        "--auth-token", metavar="SECRET",
        help="tcp backend: the shared secret of every worker hello "
             "(compared constant-time; a mismatch is rejected with an "
             "explicit frame)",
    )
    preload = argparse.ArgumentParser(add_help=False)
    preload.add_argument(
        "--preload", action="append", default=[], metavar="MODULE",
        help="import MODULE before serving (registers custom sweep "
             "targets; repeatable)",
    )

    subparsers.add_parser("catalog", help="show the device catalog")
    subparsers.add_parser("roadmap", help="show the technology roadmap")
    subparsers.add_parser("experiments", help="list paper experiments")

    report = subparsers.add_parser(
        "report", help="assemble experiment tables into one report"
    )
    report.add_argument(
        "--results-dir", default=None,
        help="(default: benchmarks/results of the checkout)",
    )
    report.add_argument(
        "--output", default=None, help="(default: REPORT.md of the checkout)"
    )

    topology = subparsers.add_parser(
        "topology", parents=[overrides],
        help="build and measure a topology",
    )
    topology.add_argument(
        "family",
        help="dragonfly, hyperx, fat-tree, two-tier or torus; --set "
             "overrides a field, e.g. --set dims=3,3",
    )

    trace = subparsers.add_parser(
        "trace", parents=[experiment],
        help="run an experiment profile and export a Chrome trace",
    )
    trace.add_argument(
        "--output", default=None,
        help="Chrome trace JSON path (default: trace_<id>.json)",
    )
    trace.add_argument(
        "--jsonl", default=None, help="also write a JSONL archival export here"
    )
    trace.add_argument(
        "--top", type=int, default=10, help="how many time-sink rows to print"
    )

    subparsers.add_parser(
        "metrics", parents=[experiment],
        help="run an experiment profile and print metric tables",
    )

    profile = subparsers.add_parser(
        "profile", parents=[experiment],
        help="run an experiment under the wall-clock profiler and report "
             "where host time went",
    )
    profile.add_argument(
        "--output", default=None,
        help="repro.profile/v1 report JSON path "
             "(default: profile_<id>.json)",
    )
    profile.add_argument(
        "--top", type=int, default=10,
        help="how many event types / frames to print and keep in the report",
    )
    profile.add_argument(
        "--sample", action="store_true",
        help="also run the sampling stack profiler alongside the phase "
             "profiler",
    )
    profile.add_argument(
        "--sample-interval", type=float, default=0.005, metavar="SECONDS",
        help="stack sampling interval (default 5 ms)",
    )
    profile.add_argument(
        "--collapsed", default=None, metavar="PATH",
        help="write collapsed stacks (flamegraph.pl input) here; "
             "implies --sample",
    )
    profile.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="write a wall-clock Chrome trace of the timed phases here",
    )
    profile.add_argument(
        "--prometheus", default=None, metavar="PATH",
        help="write the run's metrics as Prometheus text exposition here",
    )

    sweep = subparsers.add_parser(
        "sweep", parents=[target, fleet],
        help="run a scenario sweep over a worker pool",
    )
    sweep.add_argument(
        "name",
        help="named sweep (congestion, smoke, resilience, reliability) "
             "or a label for --target sweeps",
    )
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument(
        "--output", default=None, help="write repro.sweep/v1 JSON here"
    )
    sweep.add_argument(
        "--pivot", nargs=3, metavar=("ROWS", "COLS", "VALUE"), default=None,
        help="print a rows x cols table of mean VALUE instead of all points",
    )
    sweep.add_argument("--verbose", action="store_true")
    sweep.add_argument(
        "--resume", action="append", default=None, metavar="PATH",
        help="resume from a journal: skip its completed points, append "
             "new ones (fingerprint matches an uninterrupted run); "
             "repeatable — extra paths (worker-host journals of an "
             "interrupted fleet run) are merged into the first",
    )
    sweep.add_argument(
        "--progress", action="store_true",
        help="show a live progress line (TTY-aware; includes supervisor "
             "retry/crash/timeout counters)",
    )
    sweep.add_argument(
        "--telemetry", action="store_true",
        help="merge every point's telemetry summary into the result "
             "(deterministic at any worker count; stored with --output)",
    )
    sweep.add_argument(
        "--prometheus", default=None, metavar="PATH",
        help="write the merged sweep telemetry as Prometheus text "
             "exposition here (implies --telemetry)",
    )
    sweep.add_argument(
        "--backend", default=None, choices=BACKEND_NAMES,
        help="executor backend: local (supervised worker processes) or "
             "tcp (shard over `repro sweep-worker` hosts); default: in "
             "process for one worker with no --timeout or --chaos, local "
             "otherwise",
    )
    # SupervisorConfig and FleetConfig fields: left out, the library decides.
    policy = sweep.add_argument_group(
        "fault tolerance", argument_default=argparse.SUPPRESS
    )
    policy.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="per-point wall-clock budget; overdue workers are killed and "
             "the point retried",
    )
    policy.add_argument(
        "--retries", type=int, metavar="N",
        help="retry budget per point before it lands in the error ledger",
    )
    policy.add_argument(
        "--jitter", type=float, metavar="FRACTION",
        help="stretch each retry backoff by up to this fraction, drawn "
             "deterministically per (seed, sweep, point, attempt)",
    )
    policy.add_argument(
        "--chaos", metavar="SPEC",
        help="inject harness faults, e.g. crash:0.1,hang:0.05 "
             "(hang needs --timeout)",
    )
    policy.add_argument(
        "--strict", action="store_true",
        help="raise on the first exhausted point instead of returning a "
             "partial result with an error ledger",
    )
    tcp = sweep.add_argument_group(
        "tcp backend", argument_default=argparse.SUPPRESS
    )
    tcp.add_argument(
        "--listen", metavar="HOST:PORT",
        help="coordinator listen address (port 0 = ephemeral; the bound "
             "address is printed)",
    )
    tcp.add_argument(
        "--min-hosts", type=int, metavar="N",
        help="wait for N connected worker hosts before dispatching any "
             "point",
    )
    tcp.add_argument(
        "--heartbeat-interval", type=float, metavar="SECONDS",
        help="expected worker heartbeat cadence",
    )
    tcp.add_argument(
        "--heartbeat-timeout", type=float, metavar="SECONDS",
        help="declare a silent host dead after this long (unset: 10x the "
             "heartbeat interval)",
    )
    tcp.add_argument(
        "--wait-for-hosts", type=float, metavar="SECONDS",
        help="give up (FleetError) after this long with zero usable hosts",
    )
    tcp.add_argument(
        "--no-steal", dest="steal", action="store_false",
        help="disable work stealing (idle hosts reclaiming unstarted "
             "points from loaded ones)",
    )

    # Every flag but --preload is a run_worker parameter.
    worker = subparsers.add_parser(
        "sweep-worker", parents=[fleet, preload],
        argument_default=argparse.SUPPRESS,
        help="serve one sweep worker host for a tcp-backend coordinator",
    )
    worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the coordinator's address (as printed by "
             "`repro sweep --backend tcp`)",
    )
    worker.add_argument(
        "--slots", type=int, metavar="N",
        help="points this host runs concurrently (one child process each)",
    )
    worker.add_argument(
        "--name", help="host label in fleet telemetry (unset: hostname:pid)",
    )
    worker.add_argument(
        "--connect-timeout", type=float, metavar="SECONDS",
        help="keep retrying the initial dial this long (the coordinator "
             "may boot late)",
    )

    # Every flag but --preload is a ServeConfig field.
    serve = subparsers.add_parser(
        "serve", parents=[preload], argument_default=argparse.SUPPRESS,
        help="run the long-running simulation service (HTTP/JSON API "
             "with fingerprint-keyed caching and admission control)",
    )
    serve.add_argument("--host", help="listen address")
    serve.add_argument(
        "--port", type=int, metavar="PORT",
        help="listen port; 0 picks an ephemeral port and prints it",
    )
    serve.add_argument(
        "--store", metavar="DIR",
        help="artefact store directory — cached results and in-flight "
             "sweep journals; point a restarted service at the same "
             "store to resume interrupted sweeps",
    )
    serve.add_argument(
        "--sweep-workers", type=int, metavar="N",
        help="worker processes per sweep request",
    )
    serve.add_argument(
        "--job-workers", type=int, metavar="N",
        help="concurrent simulation jobs (each builds its own topology)",
    )
    serve.add_argument(
        "--max-queue", type=int, metavar="N",
        help="in-flight cold requests before load shedding with 429",
    )
    serve.add_argument(
        "--quota", metavar="RATE:BURST",
        help="per-tenant token-bucket quota, e.g. 1:8 (1 req/s, burst "
             "8) or 0:2 (hard budget of 2); unset: unlimited",
    )
    serve.add_argument(
        "--cache-ttl", type=float, metavar="SECONDS",
        help="age cached artefacts out of the store after this long "
             "(memory entry dropped, disk file unlinked, request "
             "recomputed); unset: never",
    )

    serve_request = subparsers.add_parser(
        "serve-request", parents=[overrides, target],
        help="send one request to a running serve process",
    )
    serve_request.add_argument(
        "url", help="service base url, e.g. http://127.0.0.1:7750"
    )
    serve_request.add_argument(
        "kind", choices=("profile", "sweep", "health", "metrics"),
        help="what to request",
    )
    serve_request.add_argument(
        "id", nargs="?", default=None,
        help="profile id (C1...) or named sweep (congestion, smoke, "
             "resilience, reliability); optional sweep name with --target",
    )
    serve_request.add_argument(
        "--tenant", default=None,
        help="tenant name for quota accounting (X-Tenant header)",
    )
    serve_request.add_argument(
        "--stream", action="store_true",
        help="stream NDJSON progress events instead of one JSON body",
    )
    serve_request.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="socket timeout (default 300)",
    )

    # --golden-dir, --profiles, --sweeps and --rtol are validate() fields.
    validate = subparsers.add_parser(
        "validate", argument_default=argparse.SUPPRESS,
        help="check invariants, differentials and golden fingerprints",
    )
    mode = validate.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true", default=False,
        help="compare against committed goldens (the default)",
    )
    mode.add_argument(
        "--record", action="store_true", default=False,
        help="(re)write the golden fingerprints from this build",
    )
    validate.add_argument(
        "--golden-dir",
        help="golden fingerprint directory (unset: tests/golden of the "
             "checkout repro runs from)",
    )
    validate.add_argument(
        "--profiles", nargs="*", metavar="ID",
        help="profile subset (unset: all; pass none to skip profiles)",
    )
    validate.add_argument(
        "--sweeps", nargs="*", metavar="NAME",
        help="named-sweep subset (unset: all; pass none to skip sweeps)",
    )
    validate.add_argument(
        "--rtol", type=float, help="relative tolerance for numeric drift",
    )
    validate.add_argument(
        "--skip-differential", action="store_true", default=False,
        help="skip the differential model checks",
    )
    return parser


_HANDLERS = {
    "catalog": _command_catalog,
    "topology": _command_topology,
    "roadmap": _command_roadmap,
    "experiments": _command_experiments,
    "report": _command_report,
    "trace": _command_trace,
    "metrics": _command_metrics,
    "profile": _command_profile,
    "sweep": _command_sweep,
    "sweep-worker": _command_sweep_worker,
    "serve": _command_serve,
    "serve-request": _command_serve_request,
    "validate": _command_validate,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (``repro metrics C16 | head``): point
        # stdout at /dev/null so the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
