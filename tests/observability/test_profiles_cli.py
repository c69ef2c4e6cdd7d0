"""Tests for the run profiles and the trace/metrics CLI subcommands."""

import json

import pytest

from repro.cli import main
from repro.profiles import PROFILES, run


class TestRunProfiles:
    def test_unknown_id_lists_traceable_ids(self):
        with pytest.raises(KeyError, match="C1"):
            run("nope")

    def test_id_is_case_insensitive(self):
        result = run("c1")
        assert result.experiment_id == "C1"

    def test_every_profile_id_is_a_known_experiment(self):
        from repro.cli import EXPERIMENTS

        assert set(PROFILES) <= set(EXPERIMENTS)

    def test_c1_profile_produces_congestion_telemetry(self):
        result = run("C1")
        assert len(result.telemetry.tracer) > 0
        metrics = result.telemetry.metrics
        assert metrics.get("fabric.flow_bytes").total() > 0
        assert dict(result.summary)["flows finished"] > 0

    def test_c9_profile_stages_bytes_over_the_wan(self):
        result = run("C9")
        assert result.telemetry.metrics.get("wan.transfer_bytes").total() > 0


class TestTraceCommand:
    def test_writes_valid_chrome_trace_and_prints_table(self, tmp_path, capsys):
        output = tmp_path / "c1.json"
        code = main(["trace", "C1", "--output", str(output), "--top", "3"])
        assert code == 0
        payload = json.loads(output.read_text())
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert spans
        for event in spans:
            assert event["ts"] >= 0 and event["dur"] >= 0
        out = capsys.readouterr().out
        assert "Run summary: C1" in out
        assert "time sinks" in out

    def test_jsonl_export_round_trips(self, tmp_path):
        from repro.observability.export import load_jsonl

        output = tmp_path / "c1.json"
        jsonl = tmp_path / "c1.jsonl"
        code = main(
            ["trace", "C1", "--output", str(output), "--jsonl", str(jsonl)]
        )
        assert code == 0
        assert len(load_jsonl(jsonl)) > 0

    def test_unknown_experiment_fails_with_hint(self, capsys):
        code = main(["trace", "ZZ"])
        assert code == 2
        assert "traceable ids" in capsys.readouterr().err


class TestMetricsCommand:
    @pytest.mark.parametrize("experiment, expected", [
        pytest.param("C1", [
            "Counters and gauges: C1", "fabric.flow_bytes",
            "Histograms: C1", "fabric.fct_seconds",
        ], id="C1"),
        pytest.param("C17", [
            "Run summary: C17", "mem DUE", "Counters and gauges: C17",
            "resilience.memerrors.corrected",
        ], id="C17"),
    ])
    def test_prints_counter_and_histogram_tables(self, capsys, experiment,
                                                 expected):
        code = main(["metrics", experiment])
        assert code == 0
        out = capsys.readouterr().out
        for line in expected:
            assert line in out
