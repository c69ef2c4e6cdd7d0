"""Tests for the run profiles and the trace/metrics/profile CLI subcommands."""

import json
import re

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
    @pytest.mark.parametrize("experiment", ["C1", "F1"])
    def test_writes_valid_chrome_trace_and_prints_table(
        self, tmp_path, capsys, experiment
    ):
        output = tmp_path / "trace.json"
        code = main(["trace", experiment, "--output", str(output), "--top", "3"])
        assert code == 0
        payload = json.loads(output.read_text())
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert spans
        for event in spans:
            assert event["ts"] >= 0 and event["dur"] >= 0
        out = capsys.readouterr().out
        assert f"Run summary: {experiment}" in out
        assert "time sinks" in out

    @pytest.mark.parametrize("experiment", ["C1", "F1"])
    def test_jsonl_export_round_trips(self, tmp_path, experiment):
        from repro.observability.export import load_jsonl

        output = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        code = main(
            ["trace", experiment, "--output", str(output), "--jsonl", str(jsonl)]
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
        pytest.param("F1", [
            "Run summary: F1", "Counters and gauges: F1",
            "cluster.jobs.finished", "sim.events.fired",
        ], id="F1"),
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


class TestOverrides:
    """``trace`` and ``metrics`` take ``--set`` like ``profile`` does."""

    @pytest.mark.parametrize("command", ["trace", "metrics"])
    def test_set_runs_the_override(self, tmp_path, monkeypatch, capsys,
                                   command):
        monkeypatch.chdir(tmp_path)
        expected = dict(run("C16", max_jobs=40).summary)["jobs submitted"]
        assert expected != dict(run("C16").summary)["jobs submitted"]
        assert main([command, "C16", "--set", "max_jobs=40"]) == 0
        out = capsys.readouterr().out
        assert re.search(rf"^jobs submitted\s+{expected}\s*$", out,
                         re.MULTILINE)

    @pytest.mark.parametrize("command", ["trace", "metrics"])
    def test_unknown_field_exits_2_naming_it(self, tmp_path, monkeypatch,
                                             capsys, command):
        monkeypatch.chdir(tmp_path)
        assert main([command, "C16", "--set", "bogus=1"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestProfileCommand:
    def test_writes_every_export(self, tmp_path, capsys):
        from repro.observability import parse_collapsed, parse_prometheus

        paths = {
            name: tmp_path / f"profile_c16.{name}"
            for name in ("json", "folded", "trace", "prom")
        }
        code = main([
            "profile", "C16", "--set", "max_jobs=40", "--sample",
            "--output", str(paths["json"]),
            "--collapsed", str(paths["folded"]),
            "--chrome", str(paths["trace"]),
            "--prometheus", str(paths["prom"]),
        ])
        assert code == 0
        assert "Wall-clock phases" in capsys.readouterr().out

        report = json.loads(paths["json"].read_text())
        assert report["schema"] == "repro.profile/v1"
        phases = {p["phase"]: p for p in report["phases"]}
        assert {"profile.run", "kernel.dispatch"} <= set(phases)
        assert all(p["seconds"] >= 0 and p["calls"] > 0 for p in phases.values())
        assert report["event_types"]

        stacks = parse_collapsed(paths["folded"].read_text().splitlines())
        assert sum(stacks.values()) == report["stack_samples"]

        trace = json.loads(paths["trace"].read_text())["traceEvents"]
        complete = [e for e in trace if e["ph"] == "X"]
        tracks = {e["tid"]: e["args"]["name"] for e in trace if e["ph"] == "M"}
        assert {tracks[e["tid"]] for e in complete} == set(phases)
        assert all(e["cat"] == tracks[e["tid"]] for e in complete)
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)

        samples = parse_prometheus(paths["prom"].read_text())
        assert samples[("sim_events_fired", "")] > 0

    def test_invalid_override_exits_2_naming_the_field(self, capsys):
        code = main(["profile", "C16", "--set", "node_mtbf=-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "node_mtbf" in err
        assert "Traceback" not in err
