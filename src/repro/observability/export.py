"""Trace and metrics export: Chrome ``trace_event`` JSON, JSONL, summaries.

Chrome's trace-event format (load the file at ``chrome://tracing`` or
https://ui.perfetto.dev) wants microsecond timestamps; simulated seconds
are scaled by 1e6. Spans become complete events (``"ph": "X"`` with
``ts``/``dur``), instants ``"ph": "I"``, counter samples ``"ph": "C"``.
Each category gets its own ``tid`` track, named via thread-name metadata
events, so kernel/queue/job/flow/wan activity renders as separate lanes.

The JSONL export is one record per line (``kind`` discriminated) and
round-trips through :func:`load_jsonl` — the archival format for diffing
runs; Chrome JSON is the viewing format.  :func:`prometheus_lines`
renders a :class:`~repro.observability.metrics.MetricsRegistry` in the
Prometheus text exposition format (version 0.0.4) for scrape endpoints
and file-based collectors; :func:`parse_prometheus` reads it back for
round-trip tests.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Dict, List, Optional, Tuple, Union

from repro.observability.summary import label_string
from repro.observability.tracer import (
    CounterRecord,
    InstantRecord,
    SpanRecord,
    Tracer,
)

#: Simulated seconds -> Chrome trace microseconds.
_US = 1e6


def _track_ids(tracer: Tracer) -> Dict[str, int]:
    """Stable per-category track ids, in first-seen order (tid 1, 2, ...)."""
    return {category: index + 1 for index, category in enumerate(tracer.categories)}


def chrome_trace(tracer: Tracer) -> dict:
    """The tracer's records as a Chrome ``trace_event`` JSON object."""
    tracks = _track_ids(tracer)
    events: List[dict] = []
    for category, tid in tracks.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": category},
            }
        )
    for span in tracer.spans:
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start * _US,
                "dur": span.duration * _US,
                "pid": 0,
                "tid": tracks.get(span.category, 0),
                "args": span.args,
            }
        )
    for instant in tracer.instants:
        events.append(
            {
                "name": instant.name,
                "cat": instant.category,
                "ph": "I",
                "s": "t",
                "ts": instant.time * _US,
                "pid": 0,
                "tid": tracks.get(instant.category, 0),
                "args": instant.args,
            }
        )
    for counter in tracer.counters:
        events.append(
            {
                "name": counter.name,
                "ph": "C",
                "ts": counter.time * _US,
                "pid": 0,
                "args": counter.values,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write the Chrome trace JSON; returns the path written."""
    output = pathlib.Path(path)
    output.write_text(json.dumps(chrome_trace(tracer), indent=1))
    return output


def jsonl_lines(tracer: Tracer) -> List[str]:
    """One JSON object per record: spans, instants, then counter samples."""
    lines = []
    for span in tracer.spans:
        lines.append(
            json.dumps(
                {
                    "kind": "span",
                    "name": span.name,
                    "category": span.category,
                    "start": span.start,
                    "end": span.end,
                    "args": span.args,
                }
            )
        )
    for instant in tracer.instants:
        lines.append(
            json.dumps(
                {
                    "kind": "instant",
                    "name": instant.name,
                    "category": instant.category,
                    "time": instant.time,
                    "args": instant.args,
                }
            )
        )
    for counter in tracer.counters:
        lines.append(
            json.dumps(
                {
                    "kind": "counter",
                    "name": counter.name,
                    "time": counter.time,
                    "values": counter.values,
                }
            )
        )
    return lines


def write_jsonl(tracer: Tracer, path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write the JSONL archival export; returns the path written."""
    output = pathlib.Path(path)
    output.write_text("\n".join(jsonl_lines(tracer)) + "\n")
    return output


#: Required fields per JSONL record kind (the corruption contract).
_JSONL_REQUIRED = {
    "span": ("name", "category", "start", "end"),
    "instant": ("name", "category", "time"),
    "counter": ("name", "time"),
}


def load_jsonl(path: Union[str, pathlib.Path]) -> Tracer:
    """Rebuild a (clockless) tracer from a JSONL export.

    Fails loudly on corruption, matching the ``load_sweep``/
    ``load_journal`` contract: malformed JSON, a non-object record, an
    unknown ``kind`` or a missing required field all raise ``ValueError``
    naming the path, the line number and the offending field.
    """
    source = pathlib.Path(path)
    tracer = Tracer()
    for number, line in enumerate(source.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{source}: corrupt trace line {number}: {error}"
            ) from None
        if not isinstance(record, dict):
            raise ValueError(
                f"{source}: trace line {number} is not an object "
                f"({type(record).__name__})"
            )
        kind = record.get("kind")
        if kind not in _JSONL_REQUIRED:
            raise ValueError(
                f"{source}: unknown record kind {kind!r} at line {number}"
            )
        for field in _JSONL_REQUIRED[kind]:
            if field not in record:
                raise ValueError(
                    f"{source}: {kind} record at line {number} missing "
                    f"required field {field!r}"
                )
        if kind == "span":
            tracer.spans.append(
                SpanRecord(
                    record["name"], record["category"],
                    record["start"], record["end"], record.get("args", {}),
                )
            )
        elif kind == "instant":
            tracer.instants.append(
                InstantRecord(
                    record["name"], record["category"],
                    record["time"], record.get("args", {}),
                )
            )
        else:
            tracer.counters.append(
                CounterRecord(record["name"], record["time"], record.get("values", {}))
            )
    return tracer


def top_time_sinks(
    tracer: Tracer, n: int = 10
) -> List[Tuple[str, str, float, int, float]]:
    """The top-``n`` ``(category, name, total, count, mean)`` span groups.

    Spans are grouped by ``(category, name)`` and ranked by total
    simulated seconds — the run profile's "where did the time go" view.
    Note that overlapping spans (e.g. concurrent jobs) each contribute
    their full duration, so totals can exceed the wall span of the run.
    An empty (or never-used) tracer yields ``[]``.
    """
    if not tracer.spans:
        return []
    totals: Dict[Tuple[str, str], List[float]] = {}
    for span in tracer.spans:
        bucket = totals.setdefault((span.category, span.name), [0.0, 0])
        bucket[0] += span.duration
        bucket[1] += 1
    ranked = sorted(totals.items(), key=lambda item: item[1][0], reverse=True)
    return [
        (category, name, total, int(count), total / count if count else 0.0)
        for (category, name), (total, count) in ranked[:n]
    ]


def counter_rows(registry) -> List[Tuple[str, str, float]]:
    """Flat ``(name, labels, value)`` rows for every counter/gauge series."""
    rows: List[Tuple[str, str, float]] = []
    for metric in registry:
        if metric.kind not in ("counter", "gauge"):
            continue
        for labels in metric.label_sets():
            rows.append(
                (metric.name, label_string(labels), metric.value(**labels))
            )
    return rows


def histogram_rows(registry) -> List[Tuple[str, str, str, int, float]]:
    """``(name, labels, bucket, count, mean)`` rows for every histogram."""
    rows: List[Tuple[str, str, str, int, float]] = []
    for metric in registry:
        if metric.kind != "histogram":
            continue
        for labels in metric.label_sets():
            rendered = label_string(labels)
            counts = metric.counts(**labels)
            bounds = [f"<= {b:g}" for b in metric.buckets] + ["+inf"]
            mean = metric.mean(**labels)
            for bound, count in zip(bounds, counts):
                rows.append((metric.name, rendered, bound, count, mean))
    return rows


# --- Prometheus text exposition -------------------------------------------------


def _prometheus_name(name: str) -> str:
    """Sanitise a metric name: ``[a-zA-Z_:][a-zA-Z0-9_:]*`` required."""
    sanitised = "".join(
        c if c.isascii() and (c.isalnum() or c in "_:") else "_"
        for c in name
    )
    if not sanitised or not (sanitised[0].isalpha() or sanitised[0] in "_:"):
        sanitised = "_" + sanitised
    return sanitised


def _prometheus_escape(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prometheus_labels(labels: Dict[str, str], extra: str = "") -> str:
    """``{k="v",...}`` rendering (sorted), or ``""`` for no labels."""
    parts = [
        f'{_prometheus_name(k)}="{_prometheus_escape(str(v))}"'
        for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _prometheus_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def prometheus_lines(registry) -> List[str]:
    """Render a metrics registry in the Prometheus text exposition format.

    Counters and gauges become one sample per label set; histograms
    become cumulative ``_bucket{le="..."}`` samples (Prometheus ``le``
    semantics match :class:`~repro.observability.metrics.Histogram`
    exactly) plus ``_sum`` and ``_count``.  Metric names are sanitised
    (``.`` becomes ``_``); output order is deterministic: metrics in
    registration order, label sets sorted.
    """
    lines: List[str] = []
    for metric in registry:
        name = _prometheus_name(metric.name)
        if metric.description:
            lines.append(f"# HELP {name} {metric.description}")
        if metric.kind in ("counter", "gauge"):
            lines.append(f"# TYPE {name} {metric.kind}")
            label_sets = sorted(
                metric.label_sets(), key=lambda d: sorted(d.items())
            )
            if not label_sets:
                label_sets = [{}]
            for labels in label_sets:
                lines.append(
                    f"{name}{_prometheus_labels(labels)} "
                    f"{_prometheus_value(metric.value(**labels))}"
                )
        elif metric.kind == "histogram":
            lines.append(f"# TYPE {name} histogram")
            label_sets = sorted(
                metric.label_sets(), key=lambda d: sorted(d.items())
            )
            for labels in label_sets:
                counts = metric.counts(**labels)
                cumulative = 0
                for bound, count in zip(metric.buckets, counts):
                    cumulative += count
                    le = f'le="{_prometheus_value(float(bound))}"'
                    lines.append(
                        f"{name}_bucket{_prometheus_labels(labels, le)} "
                        f"{cumulative}"
                    )
                cumulative += counts[-1]
                inf_le = 'le="+Inf"'
                lines.append(
                    f"{name}_bucket{_prometheus_labels(labels, inf_le)} "
                    f"{cumulative}"
                )
                lines.append(
                    f"{name}_sum{_prometheus_labels(labels)} "
                    f"{_prometheus_value(metric.sum(**labels))}"
                )
                lines.append(
                    f"{name}_count{_prometheus_labels(labels)} {cumulative}"
                )
    return lines


def write_prometheus(
    registry, path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write the Prometheus text exposition; returns the path written."""
    output = pathlib.Path(path)
    lines = prometheus_lines(registry)
    output.write_text("\n".join(lines) + ("\n" if lines else ""))
    return output


def parse_prometheus(text: str) -> Dict[Tuple[str, str], float]:
    """Parse a text exposition back into ``{(name, labels): value}``.

    ``labels`` is the sorted ``k="v",...`` body (empty string when
    unlabelled).  Comments and blank lines are skipped; a malformed
    sample line raises ``ValueError`` naming the line.  Covers the
    subset :func:`prometheus_lines` emits — enough for round-trip tests
    and smoke validation, not a general scrape parser.
    """
    samples: Dict[Tuple[str, str], float] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, _, rest = line.partition("{")
            body, separator, value_text = rest.rpartition("} ")
            if not separator:
                raise ValueError(
                    f"prometheus line {number} has an unterminated label "
                    f"set: {line!r}"
                )
            labels = ",".join(sorted(body.split(",")))
        else:
            name, _, value_text = line.rpartition(" ")
            labels = ""
        name = name.strip()
        value_text = value_text.strip()
        if not name or not value_text:
            raise ValueError(
                f"prometheus line {number} is not `name value`: {line!r}"
            )
        try:
            value = float(value_text.replace("+Inf", "inf"))
        except ValueError:
            raise ValueError(
                f"prometheus line {number} has a non-numeric value: "
                f"{value_text!r}"
            ) from None
        samples[(name, labels)] = value
    return samples
