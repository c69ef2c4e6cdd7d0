"""The C17 memory-reliability profile, the C16 fault-campaign CLI, and
the churn builder all four cluster-churn entry points share."""

import pytest

from repro.cli import main
from repro.core.errors import ConfigurationError
from repro.core.rng import RandomSource
from repro.federation import SiteKind
from repro.observability import Telemetry
from repro.profiles import churn_site, memory_plan, run
from repro.resilience import MemoryErrorCampaign, MemoryUpset
from repro.sweep.targets import resolve_target


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


    def test_scrub_interval_zero_turns_scrubbing_off(self, c17):
        off = dict(run("C17", scrub_interval=0).summary)
        # With no patrol scrub every correctable upset escalates.
        assert off["mem corrected"] == 0
        assert off["mem DUE"] > dict(c17.summary)["mem DUE"]

    def test_scrub_interval_zero_draws_the_default_upsets(self):
        """Scrub policy reclassifies upsets; it never changes the draw."""
        site = churn_site("memrel", SiteKind.SUPERCOMPUTER, 8)

        def upsets(scrub_interval):
            spec, _, _ = memory_plan(
                site, fit_per_gib=4e6, ecc="sec-ded",
                scrub_interval=scrub_interval, node_mtbf=30_000.0,
                checkpoint_bytes=2e11,
            )
            timeline = MemoryErrorCampaign(
                horizon=60_000.0, memory=(spec,)
            ).timeline(RandomSource(seed=131, name="c17-profile").fork("faults"))
            return [e.time for e in timeline if isinstance(e, MemoryUpset)]

        default = upsets(900.0)
        assert default and upsets(0) == default


class TestChurnBuilder:
    """C16, C17 and both cluster sweep targets share one builder."""

    @pytest.mark.parametrize("profile_id", ["C16", "C17"])
    def test_profiles_reject_zero_nodes_naming_nodes(self, profile_id):
        with pytest.raises(ConfigurationError, match="nodes must be at least 1"):
            run(profile_id, nodes=0)

    @pytest.mark.parametrize(
        "target", ["resilience-churn", "memory-reliability"]
    )
    def test_targets_reject_zero_nodes_naming_nodes(self, target):
        with pytest.raises(ConfigurationError, match="nodes must be at least 1"):
            resolve_target(target)({"nodes": 0}, Telemetry(), RandomSource(1))


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
