"""Simulation telemetry: tracing, metrics, profiling and export.

The observability layer answers "where do simulated time, bytes and
dollars go?" — and, since the second layer, "where does *wall-clock*
time go?" — for any run of the framework:

* :mod:`~repro.observability.tracer` — spans/instants/counter samples on
  the simulation clock,
* :mod:`~repro.observability.metrics` — named counters, gauges and
  fixed-bucket histograms with label support, plus sim-clock samplers,
* :mod:`~repro.observability.probes` — the :class:`Telemetry` facade the
  instrumented subsystems accept, kernel hooks and sampler attachments,
* :mod:`~repro.observability.profiler` — wall-clock phase attribution
  (:class:`PhaseProfiler`), a sampling stack profiler
  (:class:`StackSampler`), the one timing wrapper (:func:`timed`), the
  collapsed-stack/flamegraph export and the ``repro.profile/v1`` report,
* :mod:`~repro.observability.summary` — picklable telemetry summaries
  that merge deterministically across sweep worker processes,
* :mod:`~repro.observability.progress` — the TTY-aware live sweep
  progress line,
* :mod:`~repro.observability.export` — Chrome ``trace_event`` JSON,
  JSONL round-trip, top-N time-sink summaries and Prometheus
  text-format exposition.

Overhead contract: everything is **off by default**. A subsystem built
without a :class:`Telemetry` object performs one ``is not None`` test per
instrumented operation and records nothing; the kernel without hooks is
bit-identical to the unhooked kernel (same event order, same final clock).
This package depends only on :mod:`repro.core` — subsystems import it,
never the reverse.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".export": (
        "chrome_trace", "counter_rows", "histogram_rows", "jsonl_lines",
        "load_jsonl", "parse_prometheus", "prometheus_lines", "top_time_sinks",
        "write_chrome_trace", "write_jsonl", "write_prometheus",
    ),
    ".metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "PeriodicSampler",
        "exponential_buckets",
    ),
    ".probes": (
        "ProfilingKernelProbe", "Telemetry",
        "attach_cluster_sampler",
    ),
    ".profiler": (
        "PHASE_CONGESTION", "PHASE_DISPATCH", "PHASE_ROUTING", "PHASE_RUN",
        "PHASE_TELEMETRY", "PhaseProfiler", "StackSampler", "callback_label",
        "collapsed_stack_lines", "parse_collapsed", "profile_report", "timed",
        "write_collapsed",
    ),
    ".progress": ("SweepProgressReporter",),
    ".summary": (
        "label_string", "merge_summaries", "parse_label_string",
        "registry_from_summary", "summarize_telemetry",
    ),
    ".tracer": (
        "NULL_TRACER", "CounterRecord", "InstantRecord", "SpanRecord",
        "Tracer",
    ),
})

__all__ = [
    "Counter",
    "CounterRecord",
    "Gauge",
    "Histogram",
    "InstantRecord",
    "MetricsRegistry",
    "NULL_TRACER",
    "PHASE_CONGESTION",
    "PHASE_DISPATCH",
    "PHASE_ROUTING",
    "PHASE_RUN",
    "PHASE_TELEMETRY",
    "PeriodicSampler",
    "PhaseProfiler",
    "ProfilingKernelProbe",
    "SpanRecord",
    "StackSampler",
    "SweepProgressReporter",
    "Telemetry",
    "Tracer",
    "attach_cluster_sampler",
    "callback_label",
    "chrome_trace",
    "collapsed_stack_lines",
    "counter_rows",
    "exponential_buckets",
    "histogram_rows",
    "jsonl_lines",
    "label_string",
    "load_jsonl",
    "merge_summaries",
    "parse_collapsed",
    "parse_label_string",
    "parse_prometheus",
    "profile_report",
    "prometheus_lines",
    "registry_from_summary",
    "summarize_telemetry",
    "timed",
    "top_time_sinks",
    "write_chrome_trace",
    "write_collapsed",
    "write_jsonl",
    "write_prometheus",
]
