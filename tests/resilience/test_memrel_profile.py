"""The C17 memory-reliability profile and the C16 fault-campaign CLI."""

import pytest

from repro.cli import main
from repro.profiles import run


@pytest.fixture(scope="module")
def c17():
    return run("C17")


class TestC17Profile:
    def test_smoke_and_summary_shape(self, c17):
        summary = dict(c17.summary)
        assert summary["jobs finished"] > 0
        assert summary["mem upsets"] == (
            summary["mem corrected"]
            + summary["mem DUE"]
            + summary["mem silent"]
        ) > 0
        assert summary["mem kills"] <= summary["mem DUE"]
        assert 0.0 < summary["effective node MTBF (s)"] < 30_000.0
        assert summary["checkpoint interval (s)"] > 0
        assert summary["energy (kWh)"] > 0
        assert summary["carbon total (kg)"] > 0
        assert summary["gCO2e per job"] > 0

    def test_memerror_telemetry_counters(self, c17):
        metrics = c17.telemetry.metrics
        corrected = metrics.get("resilience.memerrors.corrected")
        assert corrected is not None and corrected.total() > 0
        summary = dict(c17.summary)
        assert corrected.total() == summary["mem corrected"]

    def test_run_is_deterministic(self, c17):
        again = run("C17")
        assert dict(again.summary) == dict(c17.summary)

    def test_chipkill_override_changes_the_mix(self, c17):
        chipkill = run("C17", ecc="chipkill")
        base, strong = dict(c17.summary), dict(chipkill.summary)
        # Same timeline (policy-invariant draws), different classification.
        assert strong["mem upsets"] == base["mem upsets"]
        assert strong["mem corrected"] >= base["mem corrected"]


class TestFaultsCli:
    """The fault campaign runs as ``repro metrics C16 --set ...``."""

    def test_churn_profile_prints_fault_counters(self, capsys):
        assert main([
            "metrics", "C16", "--set", "max_jobs=40", "--set", "seed=11",
        ]) == 0
        out = capsys.readouterr().out
        assert "faults injected" in out
        assert "resilience.faults.injected" in out

    def test_invalid_campaign_spec_exits_2_naming_the_field(self, capsys):
        assert main(["metrics", "C16", "--set", "node_mtbf=-5"]) == 2
        err = capsys.readouterr().err
        assert "bad override for C16" in err
        assert "node_mtbf" in err

    def test_zero_nodes_exits_2_naming_the_field(self, capsys):
        assert main(["metrics", "C16", "--set", "nodes=0"]) == 2
        err = capsys.readouterr().err
        assert "bad override for C16" in err
        assert "nodes=0" in err
