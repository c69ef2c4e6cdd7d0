"""Metric collection, table rendering and sweep aggregation."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".aggregate": ("group_mean", "pivot", "summary_table"),
    ".tables": ("Table",),
})
