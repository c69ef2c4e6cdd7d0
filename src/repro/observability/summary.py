"""Telemetry summaries: picklable snapshots that merge deterministically.

The sweep engine runs every scenario point in a worker process with its
own fresh :class:`~repro.observability.probes.Telemetry`; when the worker
exits, everything it measured dies with it.  This module defines the
cross-process form: :func:`summarize_telemetry` flattens one run's
metrics registry and tracer into a plain-JSON dict small enough to ride
the supervisor's result pipes and the run journal, and
:func:`merge_summaries` folds any number of such summaries into one
aggregate.

Determinism contract: merging is plain float addition, which is **order
dependent**, so callers must always merge in point-index order (the sweep
engine does).  Under that rule the aggregate is bit-identical at any
worker count: each per-point summary is a pure function of the point, and
the fold order is a pure function of the grid.

Gauges are deliberately *not* summarised: a gauge is last-value-wins, and
"last" across processes depends on scheduling — there is no
order-independent merge.  Counter totals, histogram bucket counts and
span durations all add.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.observability.metrics import MetricsRegistry

#: Summary document schema identifier.
SCHEMA = "repro.telemetry.summary/v1"


def label_string(labels: Mapping[str, object]) -> str:
    """Canonical ``k=v,k2=v2`` form (sorted; empty string when unlabelled)."""
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def parse_label_string(text: str) -> Dict[str, str]:
    """Invert :func:`label_string` (label values must not contain ``,``/``=``)."""
    if not text:
        return {}
    labels: Dict[str, str] = {}
    for part in text.split(","):
        key, separator, value = part.partition("=")
        if not separator:
            raise ValueError(f"malformed label clause {part!r} in {text!r}")
        labels[key] = value
    return labels


def summarize_telemetry(telemetry) -> dict:
    """Flatten one run's telemetry into a JSON-ready summary dict.

    Covers counters (per label set), histograms (bucket counts + sum per
    label set) and the tracer's spans/instants aggregated by
    ``(category, name)``.  Gauges are skipped — see the module docstring.
    """
    counters: Dict[str, dict] = {}
    histograms: Dict[str, dict] = {}
    for metric in telemetry.metrics:
        if metric.kind == "counter":
            counters[metric.name] = {
                "help": metric.description,
                "series": {
                    label_string(labels): metric.value(**labels)
                    for labels in metric.label_sets()
                },
            }
        elif metric.kind == "histogram":
            histograms[metric.name] = {
                "help": metric.description,
                "buckets": list(metric.buckets),
                "series": {
                    label_string(labels): {
                        "counts": metric.counts(**labels),
                        "sum": metric.sum(**labels),
                    }
                    for labels in metric.label_sets()
                },
            }
    spans: Dict[str, Dict[str, dict]] = {}
    for record in telemetry.tracer.spans:
        entry = spans.setdefault(record.category, {}).setdefault(
            record.name, {"total": 0.0, "count": 0}
        )
        entry["total"] += record.duration
        entry["count"] += 1
    instants: Dict[str, Dict[str, int]] = {}
    for record in telemetry.tracer.instants:
        by_name = instants.setdefault(record.category, {})
        by_name[record.name] = by_name.get(record.name, 0) + 1
    return {
        "schema": SCHEMA,
        "counters": counters,
        "histograms": histograms,
        "spans": spans,
        "instants": instants,
    }


def merge_summaries(summaries: Iterable[Optional[dict]]) -> dict:
    """Fold summaries (in the given order) into one aggregate summary.

    ``None`` entries are skipped, so callers can feed per-point summary
    slots directly even when some points did not collect telemetry.
    Histogram bucket bounds must agree across summaries (they are part of
    the metric's contract); a mismatch raises ``ValueError``.
    """
    merged: dict = {
        "schema": SCHEMA,
        "counters": {},
        "histograms": {},
        "spans": {},
        "instants": {},
    }
    for summary in summaries:
        if summary is None:
            continue
        for name, data in summary.get("counters", {}).items():
            target = merged["counters"].setdefault(
                name, {"help": data.get("help", ""), "series": {}}
            )
            series = target["series"]
            for labels, value in data.get("series", {}).items():
                series[labels] = series.get(labels, 0.0) + float(value)
        for name, data in summary.get("histograms", {}).items():
            buckets = [float(b) for b in data.get("buckets", [])]
            target = merged["histograms"].setdefault(
                name,
                {"help": data.get("help", ""), "buckets": buckets, "series": {}},
            )
            if target["buckets"] != buckets:
                raise ValueError(
                    f"histogram {name!r} bucket bounds differ across "
                    f"summaries: {target['buckets']} vs {buckets}"
                )
            series = target["series"]
            for labels, cell in data.get("series", {}).items():
                counts = [int(c) for c in cell.get("counts", [])]
                slot = series.setdefault(
                    labels, {"counts": [0] * len(counts), "sum": 0.0}
                )
                if len(slot["counts"]) != len(counts):
                    raise ValueError(
                        f"histogram {name!r} series {labels!r} has "
                        f"{len(counts)} buckets, expected "
                        f"{len(slot['counts'])}"
                    )
                slot["counts"] = [
                    a + b for a, b in zip(slot["counts"], counts)
                ]
                slot["sum"] += float(cell.get("sum", 0.0))
        for category, by_name in summary.get("spans", {}).items():
            target = merged["spans"].setdefault(category, {})
            for name, entry in by_name.items():
                slot = target.setdefault(name, {"total": 0.0, "count": 0})
                slot["total"] += float(entry.get("total", 0.0))
                slot["count"] += int(entry.get("count", 0))
        for category, by_name in summary.get("instants", {}).items():
            target = merged["instants"].setdefault(category, {})
            for name, count in by_name.items():
                target[name] = target.get(name, 0) + int(count)
    return merged


def registry_from_summary(summary: dict) -> MetricsRegistry:
    """Rebuild a :class:`MetricsRegistry` from a (merged) summary.

    The registry carries the summary's counters and histograms with their
    label sets intact — exactly what the Prometheus exposition in
    :mod:`repro.observability.export` renders.  Span/instant aggregates
    have no registry analogue and are left to the summary dict.
    """
    registry = MetricsRegistry()
    for name, data in summary.get("counters", {}).items():
        counter = registry.counter(name, data.get("help", ""))
        for labels_text, value in sorted(data.get("series", {}).items()):
            counter.inc(float(value), **parse_label_string(labels_text))
    for name, data in summary.get("histograms", {}).items():
        histogram = registry.histogram(
            name, [float(b) for b in data.get("buckets", [])],
            data.get("help", ""),
        )
        for labels_text, cell in sorted(data.get("series", {}).items()):
            key_labels = parse_label_string(labels_text)
            # Bucket counts cannot be replayed through observe() (the
            # original values are gone) — install the series directly.
            from repro.observability.metrics import _label_key

            key = _label_key(key_labels) if key_labels else ()
            histogram._counts[key] = [int(c) for c in cell.get("counts", [])]
            histogram._sums[key] = float(cell.get("sum", 0.0))
    return registry


def summary_totals(summary: dict) -> Dict[str, float]:
    """``{counter name: total across label sets}`` for quick assertions."""
    return {
        name: sum(float(v) for v in data.get("series", {}).values())
        for name, data in summary.get("counters", {}).items()
    }
