"""Command-line interface: inspect devices, topologies and the roadmap.

Run as ``python -m repro <command>``:

* ``catalog``    — the device catalog with reference-kernel timings,
* ``topology``   — build a topology family and print its metrics,
* ``roadmap``    — the technology-scaling table (C13's data),
* ``experiments``— the experiment index with bench targets,
* ``trace``      — run a profiled experiment, write a Chrome trace,
* ``metrics``    — run a profiled experiment, print its counter tables,
* ``profile``    — run an experiment under the wall-clock profiler and
  report where host time went (phases, event types, top frames),
* ``sweep``      — fan a scenario sweep over worker processes (or, with
  ``--backend tcp``, over a fleet of worker hosts),
* ``sweep-worker`` — serve one worker host for a tcp-backend sweep,
* ``faults``     — run the fault-injection profile (C16) and report
  goodput, retries and conservation,
* ``validate``   — run invariants, differential checks and golden-
  fingerprint comparisons (``--record`` refreshes the goldens).
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import List, Optional

# The simulator is imported inside the handlers that use it: building the
# parser, ``--help`` and ``serve-request`` load neither numpy nor networkx.

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

#: CLI argument names per topology kind, mapped onto build_topology specs.
_TOPOLOGY_ARGS = {
    "dragonfly": lambda args: {
        "groups": args.groups, "routers_per_group": args.routers,
        "terminals": args.terminals,
    },
    "hyperx": lambda args: {
        "dims": tuple(args.dims), "terminals": args.terminals,
    },
    "fat-tree": lambda args: {"k": args.k},
    "two-tier": lambda args: {
        "leaves": args.leaves, "spines": args.spines,
        "terminals": args.terminals,
    },
    "torus": lambda args: {
        "dims": tuple(args.dims), "terminals": args.terminals,
    },
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
        except Exception:
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

    spec = _TOPOLOGY_ARGS[args.family](args)
    topology = build_topology(args.family, **spec)
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
        "Experiment index (run: pytest <bench> --benchmark-only)",
        ["id", "claim", "bench target"],
    )
    for experiment_id, (claim, target) in EXPERIMENTS.items():
        table.add_row(experiment_id, claim, target)
    table.print()
    return 0


def _command_report(args: argparse.Namespace) -> int:
    """Assemble benchmarks/results/*.txt into one report file."""
    import pathlib

    results_dir = pathlib.Path(args.results_dir)
    if not results_dir.is_dir():
        print(
            f"no results at {results_dir}; run "
            "`pytest benchmarks/ --benchmark-only` first",
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
    output = pathlib.Path(args.output)
    output.write_text("\n".join(chunks))
    print(f"wrote {found} experiment tables to {output}")
    return 0


def _profile_or_fail(experiment_id: str):
    """Run one telemetry profile; prints the traceable ids on a bad id."""
    from repro import profiles

    _imports_done()
    try:
        return profiles.run(experiment_id)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
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

    result = _profile_or_fail(args.experiment)
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

    result = _profile_or_fail(args.experiment)
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


def _axis_clause(text: str):
    """``--axis NAME=V1,V2`` -> ``(name, [v1, v2])``."""
    name, separator, values = text.partition("=")
    if not separator or not name:
        raise argparse.ArgumentTypeError(
            f"expected NAME=V1,V2,..., got {text!r}"
        )
    items = values.split(",")
    if not all(items):
        raise argparse.ArgumentTypeError(
            f"axis {name!r} has an empty value in {text!r}"
        )
    return name, [_parse_axis_value(item) for item in items]


def _set_clause(text: str):
    """``--set KEY=VALUE`` -> ``(key, value)``."""
    key, separator, value = text.partition("=")
    if not separator or not key:
        raise argparse.ArgumentTypeError(
            f"expected KEY=VALUE, got {text!r}"
        )
    return key, _parse_axis_value(value)


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

    from repro.analysis.tables import Table
    from repro.core.errors import ConfigurationError
    from repro.observability import (
        PHASE_RUN,
        PhaseProfiler,
        StackSampler,
        Telemetry,
        prometheus_lines,
        profile_report,
        timed,
        write_chrome_trace,
        write_collapsed,
        write_prometheus,
    )
    from repro import profiles

    _imports_done()
    overrides = dict(args.set)

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
        result = timed(profiler, PHASE_RUN, lambda: profiles.run(
            args.experiment, telemetry, **overrides
        ))()
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    except (ConfigurationError, TypeError, ValueError) as error:
        print(f"bad override for {args.experiment}: {error}", file=sys.stderr)
        return 2
    finally:
        if sampler is not None:
            sampler.stop()

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
    from repro.core.errors import ConfigurationError
    from repro.sweep import (
        NAMED_SWEEPS,
        FleetError,
        SupervisorConfig,
        SweepInterrupted,
        SweepPointError,
        SweepSpec,
        named_sweep,
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
        from repro.sweep import resolve_target

        resolve_target(spec.target)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2

    fleet = None
    try:
        config = SupervisorConfig(
            timeout=args.timeout, retries=args.retries, jitter=args.jitter,
            chaos=args.chaos, strict=args.strict,
        )
        if args.backend == "tcp":
            from repro.sweep import FleetConfig

            def announce(host: str, port: int) -> None:
                print(f"fleet coordinator listening on {host}:{port}",
                      flush=True)

            fleet = FleetConfig(
                listen=args.listen,
                min_hosts=args.min_hosts,
                heartbeat_interval=args.heartbeat_interval,
                heartbeat_timeout=args.heartbeat_timeout,
                steal=not args.no_steal,
                wait_for_hosts=args.wait_for_hosts,
                auth_token=args.auth_token,
                on_listen=announce,
            )
    except ConfigurationError as error:
        print(str(error), file=sys.stderr)
        return 2

    total = len(spec.grid)

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
                spec, workers=args.workers, trace_dir=args.trace_dir,
                progress=reporter if reporter is not None
                else (report if args.verbose else None),
                config=config, journal=args.journal, resume=args.resume,
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
    except SweepInterrupted as interrupt:
        partial = interrupt.partial
        done = len(partial.points) if partial is not None else 0
        remaining = total - done
        journal_path = args.resume[0] if args.resume else args.journal
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
        return run_worker(
            args.connect,
            slots=args.slots,
            name=args.name,
            journal=args.journal,
            trace_dir=args.trace_dir,
            connect_timeout=args.connect_timeout,
            auth_token=args.auth_token,
        )
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
    quota = None
    if args.quota is not None:
        try:
            quota = QuotaPolicy.parse(args.quota)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
    try:
        app = ServiceApp(
            ServeConfig(
                host=args.host,
                port=args.port,
                store=args.store,
                sweep_workers=args.sweep_workers,
                job_workers=args.job_workers,
                max_queue=args.max_queue,
                quota=quota,
                cache_ttl=args.cache_ttl,
            )
        )
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


def _command_faults(args: argparse.Namespace) -> int:
    """Run the resilience profile and print the fault/recovery summary.

    Exit codes: 0 success, 2 invalid campaign spec (the message names
    the offending field).
    """
    from repro.analysis.tables import Table
    from repro.core.errors import ConfigurationError
    from repro.observability.export import counter_rows
    from repro.profiles import run

    _imports_done()
    overrides = {}
    if args.nodes is not None:
        overrides["nodes"] = args.nodes
    if args.node_mtbf is not None:
        overrides["node_mtbf"] = args.node_mtbf
    if args.repair_time is not None:
        overrides["repair_time"] = args.repair_time
    if args.max_jobs is not None:
        overrides["max_jobs"] = args.max_jobs
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        result = run("C16", **overrides)
    except (ConfigurationError, ValueError) as error:
        # An invalid campaign spec (negative MTBF, zero nodes, ...) is a
        # usage error, not a crash: the message already names the
        # offending field and value.
        print(f"invalid fault campaign: {error}", file=sys.stderr)
        return 2
    _print_summary(result)
    counters = Table(
        "Fault and recovery counters", ["metric", "labels", "value"]
    )
    for name, labels, value in sorted(counter_rows(result.telemetry.metrics)):
        if name.startswith(("resilience.", "cluster.jobs", "cluster.nodes")):
            counters.add_row(name, labels or "-", value)
    counters.print()
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    """Run the validation pipeline; exit 0 only if everything holds."""
    from repro.core.errors import ConfigurationError
    from repro.validate import DEFAULT_RTOL, validate

    _imports_done()
    try:
        report = validate(
            mode="record" if args.record else "check",
            profiles=args.profiles,
            sweeps=args.sweeps,
            golden_dir=args.golden_dir,
            rtol=args.rtol if args.rtol is not None else DEFAULT_RTOL,
            differential=not args.skip_differential,
        )
    except (KeyError, ConfigurationError) as error:
        print(error.args[0], file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


def _add_axis_flag(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument(
        "--axis", action="append", default=[], type=_axis_clause,
        metavar="NAME=V1,V2", help=help,
    )


def _add_set_flag(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument(
        "--set", action="append", default=[], type=_set_clause,
        metavar="KEY=VALUE", help=help,
    )


def _add_preload_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preload", action="append", default=[], metavar="MODULE",
        help="import MODULE before serving (registers custom sweep "
             "targets; repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro.sweep.backends import BACKEND_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Diversified heterogeneous HPC simulation framework "
                    "(DATE 2021 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("catalog", help="show the device catalog")
    subparsers.add_parser("roadmap", help="show the technology roadmap")
    subparsers.add_parser("experiments", help="list paper experiments")

    report = subparsers.add_parser(
        "report", help="assemble experiment tables into one report"
    )
    report.add_argument("--results-dir", default="benchmarks/results")
    report.add_argument("--output", default="REPORT.md")

    topology = subparsers.add_parser("topology", help="build and measure a topology")
    topology.add_argument("family", choices=sorted(_TOPOLOGY_ARGS))
    topology.add_argument("--groups", type=int, default=9)
    topology.add_argument("--routers", type=int, default=4)
    topology.add_argument("--terminals", type=int, default=4)
    topology.add_argument("--dims", type=int, nargs="+", default=[4, 4])
    topology.add_argument("--k", type=int, default=8)
    topology.add_argument("--leaves", type=int, default=8)
    topology.add_argument("--spines", type=int, default=4)

    trace = subparsers.add_parser(
        "trace", help="run an experiment profile and export a Chrome trace"
    )
    trace.add_argument("experiment", help="experiment id (e.g. F1, C1)")
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

    metrics = subparsers.add_parser(
        "metrics", help="run an experiment profile and print metric tables"
    )
    metrics.add_argument("experiment", help="experiment id (e.g. F1, C1)")

    profile = subparsers.add_parser(
        "profile",
        help="run an experiment under the wall-clock profiler and report "
             "where host time went",
    )
    profile.add_argument("experiment", help="experiment id (e.g. F1, C16)")
    _add_set_flag(
        profile, "override a profile parameter, e.g. --set max_jobs=50 "
                 "(repeatable)",
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
        "sweep", help="run a scenario sweep over a worker pool"
    )
    sweep.add_argument(
        "name",
        help="named sweep (congestion, smoke, resilience, reliability) "
             "or a label for --target sweeps",
    )
    sweep.add_argument(
        "--target", default=None,
        help="sweep a registered target (e.g. fabric-congestion, profile:C1) "
             "over custom --axis values instead of a named sweep",
    )
    _add_axis_flag(sweep, "a grid axis for --target sweeps (repeatable)")
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument(
        "--output", default=None, help="write repro.sweep/v1 JSON here"
    )
    sweep.add_argument(
        "--trace-dir", default=None,
        help="write one telemetry JSONL per point under this directory",
    )
    sweep.add_argument(
        "--pivot", nargs=3, metavar=("ROWS", "COLS", "VALUE"), default=None,
        help="print a rows x cols table of mean VALUE instead of all points",
    )
    sweep.add_argument("--verbose", action="store_true")
    sweep.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock budget; overdue workers are killed and "
             "the point retried",
    )
    sweep.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="retry budget per point before it lands in the error ledger "
             "(default 2)",
    )
    sweep.add_argument(
        "--journal", default=None, metavar="PATH",
        help="journal every completed point to this crash-consistent "
             "JSONL file",
    )
    sweep.add_argument(
        "--resume", action="append", default=None, metavar="PATH",
        help="resume from a journal: skip its completed points, append "
             "new ones (fingerprint matches an uninterrupted run); "
             "repeatable — extra paths (worker-host journals of an "
             "interrupted fleet run) are merged into the first",
    )
    sweep.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="inject harness faults, e.g. crash:0.1,hang:0.05 "
             "(hang needs --timeout)",
    )
    sweep.add_argument(
        "--strict", action="store_true",
        help="raise on the first exhausted point instead of returning a "
             "partial result with an error ledger",
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
        "--jitter", type=float, default=0.0, metavar="FRACTION",
        help="stretch each retry backoff by up to this fraction, drawn "
             "deterministically per (seed, sweep, point, attempt)",
    )
    sweep.add_argument(
        "--backend", default=None, choices=BACKEND_NAMES,
        help="executor backend: local (supervised worker processes) or "
             "tcp (shard over `repro sweep-worker` hosts); default: in "
             "process for one worker with no --timeout or --chaos, local "
             "otherwise",
    )
    sweep.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="tcp backend: coordinator listen address (port 0 = "
             "ephemeral; the bound address is printed)",
    )
    sweep.add_argument(
        "--min-hosts", type=int, default=1, metavar="N",
        help="tcp backend: wait for N connected worker hosts before "
             "dispatching any point",
    )
    sweep.add_argument(
        "--heartbeat-interval", type=float, default=0.5, metavar="SECONDS",
        help="tcp backend: expected worker heartbeat cadence",
    )
    sweep.add_argument(
        "--heartbeat-timeout", type=float, default=None, metavar="SECONDS",
        help="tcp backend: declare a silent host dead after this long "
             "(default 10x the heartbeat interval)",
    )
    sweep.add_argument(
        "--wait-for-hosts", type=float, default=60.0, metavar="SECONDS",
        help="tcp backend: give up (FleetError) after this long with "
             "zero usable hosts",
    )
    sweep.add_argument(
        "--no-steal", action="store_true",
        help="tcp backend: disable work stealing (idle hosts reclaiming "
             "unstarted points from loaded ones)",
    )
    sweep.add_argument(
        "--auth-token", default=None, metavar="SECRET",
        help="tcp backend: demand this shared secret in every worker "
             "hello (compared constant-time; mismatches are rejected "
             "with an explicit frame)",
    )

    worker = subparsers.add_parser(
        "sweep-worker",
        help="serve one sweep worker host for a tcp-backend coordinator",
    )
    worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the coordinator's address (as printed by "
             "`repro sweep --backend tcp`)",
    )
    worker.add_argument(
        "--slots", type=int, default=1, metavar="N",
        help="points this host runs concurrently (one child process each)",
    )
    worker.add_argument(
        "--name", default=None,
        help="host label in fleet telemetry (default hostname:pid)",
    )
    worker.add_argument(
        "--journal", default=None, metavar="PATH",
        help="journal completed points locally before sending them — "
             "mergeable into a resume via `repro sweep --resume`",
    )
    worker.add_argument(
        "--trace-dir", default=None,
        help="write one telemetry JSONL per point under this directory",
    )
    _add_preload_flag(worker)
    worker.add_argument(
        "--connect-timeout", type=float, default=30.0, metavar="SECONDS",
        help="keep retrying the initial dial this long (the coordinator "
             "may boot late)",
    )
    worker.add_argument(
        "--auth-token", default=None, metavar="SECRET",
        help="shared secret sent in the hello frame; must match the "
             "coordinator's --auth-token when the fleet demands one",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the long-running simulation service (HTTP/JSON API "
             "with fingerprint-keyed caching and admission control)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="listen address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="listen port; 0 (default) picks an ephemeral port and "
             "prints it",
    )
    serve.add_argument(
        "--store", default=".repro-serve", metavar="DIR",
        help="artefact store directory — cached results and in-flight "
             "sweep journals; point a restarted service at the same "
             "store to resume interrupted sweeps",
    )
    serve.add_argument(
        "--sweep-workers", type=int, default=2, metavar="N",
        help="worker processes per sweep request (default 2)",
    )
    serve.add_argument(
        "--job-workers", type=int, default=1, metavar="N",
        help="concurrent simulation jobs (default 1 — topology/route "
             "caches are shared, which assumes sequential jobs)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=8, metavar="N",
        help="in-flight cold requests before load shedding with 429 "
             "(default 8)",
    )
    serve.add_argument(
        "--quota", default=None, metavar="RATE:BURST",
        help="per-tenant token-bucket quota, e.g. 1:8 (1 req/s, burst "
             "8) or 0:2 (hard budget of 2); default unlimited",
    )
    serve.add_argument(
        "--cache-ttl", type=float, default=None, metavar="SECONDS",
        help="age cached artefacts out of the store after this long "
             "(memory entry dropped, disk file unlinked, request "
             "recomputed); default never",
    )
    _add_preload_flag(serve)

    serve_request = subparsers.add_parser(
        "serve-request",
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
    _add_set_flag(serve_request, "profile parameter override (repeatable)")
    serve_request.add_argument(
        "--target", default=None, metavar="NAME",
        help="custom sweep target (with --axis)",
    )
    _add_axis_flag(
        serve_request, "custom sweep axis (repeatable, with --target)"
    )
    serve_request.add_argument(
        "--seed", type=int, default=None, help="sweep seed override"
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

    faults = subparsers.add_parser(
        "faults",
        help="run the fault-injection profile and report goodput/recovery",
    )
    faults.add_argument("--nodes", type=int, default=None)
    faults.add_argument(
        "--node-mtbf", type=float, default=None,
        help="per-node MTBF in seconds (site rate is node_mtbf / nodes)",
    )
    faults.add_argument("--repair-time", type=float, default=None)
    faults.add_argument("--max-jobs", type=int, default=None)
    faults.add_argument("--seed", type=int, default=None)

    validate = subparsers.add_parser(
        "validate",
        help="check invariants, differentials and golden fingerprints",
    )
    mode = validate.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true",
        help="compare against committed goldens (the default)",
    )
    mode.add_argument(
        "--record", action="store_true",
        help="(re)write the golden fingerprints from this build",
    )
    validate.add_argument(
        "--golden-dir", default=None,
        help="golden fingerprint directory (default: tests/golden of the "
             "checkout repro runs from)",
    )
    validate.add_argument(
        "--profiles", nargs="*", default=None, metavar="ID",
        help="profile subset (default: all; pass none to skip profiles)",
    )
    validate.add_argument(
        "--sweeps", nargs="*", default=None, metavar="NAME",
        help="named-sweep subset (default: all; pass none to skip sweeps)",
    )
    validate.add_argument(
        "--rtol", type=float, default=None,
        help="relative tolerance for numeric drift (default: 1e-6)",
    )
    validate.add_argument(
        "--skip-differential", action="store_true",
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
    "faults": _command_faults,
    "validate": _command_validate,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
