"""Metric collection, table rendering and sweep aggregation."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".aggregate": ("group_mean", "pivot", "speedup", "summary_table"),
    ".metrics": ("Percentiles", "SeriesStats", "summarize"),
    ".tables": ("Table", "format_series"),
})

__all__ = [
    "Percentiles",
    "SeriesStats",
    "Table",
    "format_series",
    "group_mean",
    "pivot",
    "speedup",
    "summarize",
    "summary_table",
]
