"""Cross-process telemetry aggregation: determinism at any worker count.

The acceptance bar for the observability work: a sweep run with
``collect_telemetry=True`` produces the *same* merged telemetry summary
(and the same fingerprint) at ``workers=1`` (in process) and
``workers=4`` (supervised workers), and even across a parent-process
SIGKILL + ``resume=`` cycle — plus the Prometheus exposition of the
merged aggregate round-trips through the text parser.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.observability import (
    Telemetry,
    parse_prometheus,
    prometheus_lines,
    registry_from_summary,
)
from repro.observability.summary import (
    SCHEMA,
    merge_summaries,
    parse_label_string,
    summarize_telemetry,
)
from repro.sweep import load_journal, run_sweep

from tests.sweep import _ft_helpers as ft

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _telemetry_result(workers, **kwargs):
    return run_sweep(
        ft.telemetry_spec(), workers=workers, collect_telemetry=True, **kwargs
    )


class TestMergeDeterminism:
    def test_workers_1_and_4_yield_identical_aggregates(self):
        one = _telemetry_result(1)
        four = _telemetry_result(4)
        assert one.telemetry is not None
        assert one.telemetry == four.telemetry
        assert one.fingerprint() == four.fingerprint()

    def test_one_supervised_worker_matches_in_process(self):
        inline = _telemetry_result(1)
        supervised = _telemetry_result(1, backend="local")
        assert inline.telemetry == supervised.telemetry
        assert inline.fingerprint() == supervised.fingerprint()

    def test_aggregate_content_is_exact(self):
        result = _telemetry_result(4)
        summary = result.telemetry
        n = len(ft.telemetry_spec().points())
        assert summary["schema"] == SCHEMA
        assert summary["counters"]["ft.runs"]["series"] == {"": float(n)}
        # ft.value adds x + 0.25 per point, labelled by parity.
        series = summary["counters"]["ft.value"]["series"]
        assert series["parity=0"] == pytest.approx(
            sum(x + 0.25 for x in range(n) if x % 2 == 0)
        )
        assert series["parity=1"] == pytest.approx(
            sum(x + 0.25 for x in range(n) if x % 2 == 1)
        )
        histogram = summary["histograms"]["ft.size"]
        assert histogram["buckets"] == [1.0, 4.0, 16.0]
        cell = histogram["series"][""]
        # x in 0..7: {0} <= 1.0 < {1,2,3,4} <= 4.0 < {5,6,7} <= 16.0.
        assert cell["counts"] == [2, 3, 3, 0]
        assert cell["sum"] == pytest.approx(sum(range(n)))
        # Gauges never merge (last-write-wins has no cross-process order).
        assert "ft.last_x" not in summary["counters"]
        assert "ft.last_x" not in summary["histograms"]

    def test_collect_off_leaves_telemetry_none(self):
        result = run_sweep(ft.telemetry_spec(), workers=2)
        assert result.telemetry is None
        assert all(point.telemetry is None for point in result.points)
        assert result.fingerprint() == _telemetry_result(1).fingerprint()

    def test_per_point_summaries_ride_the_result(self):
        result = _telemetry_result(2)
        assert all(
            point.telemetry is not None and point.telemetry["schema"] == SCHEMA
            for point in result.points
        )
        refolded = merge_summaries(p.telemetry for p in result.points)
        assert refolded == result.telemetry


class TestJournalRoundTrip:
    def test_journal_preserves_per_point_telemetry(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        fresh = _telemetry_result(2, journal=journal)
        state = load_journal(journal)
        assert state.matches(ft.telemetry_spec()) is None
        resumed = run_sweep(
            ft.telemetry_spec(), resume=journal, collect_telemetry=True
        )
        assert resumed.harness["dispatched"] == 0.0
        assert resumed.telemetry == fresh.telemetry
        assert resumed.fingerprint() == fresh.fingerprint()


#: Runs a journalled telemetry-collecting sweep and SIGKILLs its own
#: parent process the moment the k-th point result lands.
_SIGKILL_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys

    from tests.sweep import _ft_helpers as ft
    from repro.sweep import run_sweep

    workers, journal, kill_after = (
        int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    )
    done = 0

    def progress(result):
        global done
        done += 1
        if done >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    run_sweep(ft.telemetry_spec(sleep_s=0.05), workers=workers,
              journal=journal, collect_telemetry=True, progress=progress)
    """
)


class TestResumeAfterParentSigkill:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_resumed_aggregate_matches_an_uninterrupted_run(
        self, tmp_path, workers
    ):
        journal = tmp_path / "run.jsonl"
        process = subprocess.run(
            [sys.executable, "-c", _SIGKILL_SCRIPT,
             str(workers), str(journal), "3"],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert process.returncode == -signal.SIGKILL, process.stderr
        spec = ft.telemetry_spec(sleep_s=0.05)
        state = load_journal(journal)
        assert state.matches(spec) is None
        assert 3 <= len(state.completed) < len(spec.points())
        resumed = run_sweep(
            spec, workers=workers, resume=journal, collect_telemetry=True
        )
        assert resumed.ok
        fresh = run_sweep(spec, collect_telemetry=True)
        assert resumed.telemetry == fresh.telemetry
        assert resumed.fingerprint() == fresh.fingerprint()


class TestSummaryUnits:
    def test_summarize_covers_counters_histograms_and_spans(self):
        telemetry = Telemetry()
        telemetry.metrics.counter("c").inc(2.0, kind="a")
        telemetry.metrics.histogram("h", buckets=[1.0, 2.0]).observe(1.5)
        telemetry.metrics.gauge("g").set(7.0)
        telemetry.tracer.clock = lambda: 0.0
        with telemetry.tracer.span("work", category="test"):
            pass
        telemetry.tracer.instant("tick", category="test")
        summary = summarize_telemetry(telemetry)
        assert summary["counters"]["c"]["series"] == {"kind=a": 2.0}
        assert summary["histograms"]["h"]["series"][""]["counts"] == [0, 1, 0]
        assert "g" not in summary["counters"]
        assert summary["spans"]["test"]["work"]["count"] == 1
        assert summary["instants"]["test"]["tick"] == 1
        json.dumps(summary)  # must be JSON-serialisable for the journal

    def test_merge_skips_none_and_adds(self):
        telemetry = Telemetry()
        telemetry.metrics.counter("c").inc(1.0)
        summary = summarize_telemetry(telemetry)
        merged = merge_summaries([None, summary, None, summary])
        assert merged["counters"] == {"c": {"help": "", "series": {"": 2.0}}}

    def test_merge_rejects_mismatched_histogram_buckets(self):
        first = Telemetry()
        first.metrics.histogram("h", buckets=[1.0]).observe(0.5)
        second = Telemetry()
        second.metrics.histogram("h", buckets=[2.0]).observe(0.5)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            merge_summaries(
                [summarize_telemetry(first), summarize_telemetry(second)]
            )

    def test_label_string_round_trip(self):
        assert parse_label_string("") == {}
        assert parse_label_string("a=1,b=x") == {"a": "1", "b": "x"}
        with pytest.raises(ValueError, match="malformed label clause"):
            parse_label_string("oops")


class TestPrometheusRoundTrip:
    def test_merged_summary_exports_and_parses(self):
        result = _telemetry_result(4)
        registry = registry_from_summary(result.telemetry)
        lines = prometheus_lines(registry)
        parsed = parse_prometheus("\n".join(lines) + "\n")
        n = len(ft.telemetry_spec().points())
        assert parsed[("ft_runs", "")] == float(n)
        assert parsed[("ft_value", 'parity="0"')] == (
            pytest.approx(sum(x + 0.25 for x in range(n) if x % 2 == 0))
        )
        # The histogram's cumulative +Inf count equals the observations.
        assert parsed[("ft_size_count", "")] == float(n)
        assert parsed[("ft_size_bucket", 'le="+Inf"')] == float(n)

    def test_registry_rebuild_preserves_bucket_counts(self):
        result = _telemetry_result(2)
        registry = registry_from_summary(result.telemetry)
        histogram = registry.get("ft.size")
        assert histogram.counts() == [2, 3, 3, 0]
        assert histogram.sum() == pytest.approx(sum(range(8)))
