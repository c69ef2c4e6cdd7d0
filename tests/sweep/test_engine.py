"""Tests for the parallel sweep engine: determinism is the contract."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core.errors import ConfigurationError
from repro.sweep import SweepSpec, named_sweep, run_sweep
from repro.sweep.engine import _run_point


def _smoke_spec(**kwargs):
    defaults = dict(
        name="t",
        target="fabric-congestion",
        grid={
            "topology": ["dragonfly", "two-tier"],
            "congestion": ["none", "flow"],
            "load": [0.9],
            "flows": [12],
        },
        seed=42,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestSweepSpec:
    def test_plain_mapping_grid_is_built(self):
        spec = _smoke_spec()
        assert len(spec.grid) == 4

    def test_needs_a_name(self):
        with pytest.raises(ConfigurationError):
            _smoke_spec(name="")

    def test_rng_for_depends_only_on_seed_and_index(self):
        spec = _smoke_spec()
        assert spec.rng_for(2).uniform() == spec.rng_for(2).uniform()
        assert spec.rng_for(1).uniform() != spec.rng_for(2).uniform()


class TestDeterminism:
    def test_bit_identical_across_worker_counts(self):
        spec = _smoke_spec()
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=4)
        assert serial.fingerprint() == parallel.fingerprint()
        for a, b in zip(serial.points, parallel.points):
            assert a.index == b.index
            assert a.params == b.params
            assert a.metrics == b.metrics
            assert a.counters == b.counters

    def test_different_seed_changes_outcomes(self):
        base = run_sweep(_smoke_spec(seed=1), workers=1)
        other = run_sweep(_smoke_spec(seed=2), workers=1)
        assert base.fingerprint() != other.fingerprint()

    def test_results_arrive_in_grid_order(self):
        spec = _smoke_spec()
        result = run_sweep(spec, workers=3)
        assert [p.index for p in result.points] == list(range(len(spec.grid)))


class TestRunSweep:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            run_sweep(_smoke_spec(), workers=0)

    def test_unknown_target_fails_fast(self):
        spec = _smoke_spec(target="no-such-target")
        with pytest.raises(KeyError):
            run_sweep(spec, workers=1)

    def test_progress_callback_sees_every_point(self):
        seen = []
        run_sweep(_smoke_spec(), workers=1, progress=lambda p: seen.append(p.index))
        assert seen == [0, 1, 2, 3]

    def test_trace_dir_writes_one_jsonl_per_point(self, tmp_path):
        run_sweep(_smoke_spec(), workers=1, trace_dir=str(tmp_path / "traces"))
        written = sorted((tmp_path / "traces").glob("point-*.jsonl"))
        assert len(written) == 4

    def test_records_merge_params_and_metrics(self):
        result = run_sweep(_smoke_spec(), workers=1)
        record = result.records()[0]
        assert record["topology"] == "dragonfly"
        assert "mean_fct_s" in record

    def test_counters_captured_per_point(self):
        result = run_sweep(_smoke_spec(), workers=1)
        assert all("fabric.flow_bytes" in p.counters for p in result.points)


class TestNamedSweeps:
    def test_congestion_sweep_is_64_points(self):
        assert len(named_sweep("congestion").grid) == 64

    def test_smoke_sweep_is_small(self):
        assert len(named_sweep("smoke").grid) == 8

    def test_unknown_named_sweep(self):
        with pytest.raises(KeyError):
            named_sweep("nope")

    def test_seed_override(self):
        assert named_sweep("smoke", seed=99).seed == 99


#: sha256 of the ``smoke`` sweep's ``trace_dir`` files, concatenated in
#: point order; each point numbers its flows from 0.
SMOKE_TRACE_SHA256 = (
    "17cc32a80130be75f9c130e27fdaeef088dcef8568be46fdeaebdd0426767ee5"
)


def _smoke_trace_digest(trace_dir) -> str:
    written = sorted(pathlib.Path(trace_dir).glob("point-*.jsonl"))
    assert len(written) == 8
    assert all(path.stat().st_size > 0 for path in written)
    digest = hashlib.sha256()
    for path in written:
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestPointTrace:
    """A point records a trace only when the caller reads one."""

    @pytest.fixture
    def trace_counting_target(self):
        from repro.sweep.targets import TARGETS

        def target(params, telemetry, rng):
            metrics = TARGETS["fabric-congestion"](params, telemetry, rng)
            metrics["trace_records"] = len(telemetry.tracer)
            return metrics

        TARGETS["_trace_counting"] = target
        yield "_trace_counting"
        del TARGETS["_trace_counting"]

    def test_a_plain_point_records_no_trace(self, trace_counting_target,
                                            tmp_path):
        params = named_sweep("smoke").points()[0].params
        records = {}
        for trace_dir, collect in [(None, False), (str(tmp_path), False),
                                   (None, True)]:
            result = _run_point((trace_counting_target, "t", 0, 0, params,
                                 trace_dir, collect))
            records[trace_dir, collect] = result.metrics.pop("trace_records")
            assert result.metrics["flows_finished"] > 0
        assert records[None, False] == 0
        assert records[str(tmp_path), False] > 0
        assert records[None, True] == records[str(tmp_path), False]

    def test_smoke_trace_files_are_pinned(self, tmp_path):
        run_sweep(named_sweep("smoke"), workers=1, trace_dir=str(tmp_path))
        assert _smoke_trace_digest(tmp_path) == SMOKE_TRACE_SHA256

    def test_trace_files_do_not_depend_on_earlier_sweeps(self, tmp_path):
        # A point's trace is a function of (seed, spec): the same in a
        # fresh process as in one where another sweep made flows first.
        fresh = tmp_path / "fresh"
        subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from repro.sweep import named_sweep, run_sweep\n"
             "run_sweep(named_sweep('smoke'), workers=1, "
             "trace_dir=sys.argv[1])\n",
             str(fresh)],
            env={**os.environ,
                 "PYTHONPATH": str(pathlib.Path(repro.__file__).parents[1])},
            check=True,
        )
        run_sweep(named_sweep("smoke"), workers=1)
        again = tmp_path / "again"
        run_sweep(named_sweep("smoke"), workers=1, trace_dir=str(again))
        assert _smoke_trace_digest(again) == _smoke_trace_digest(fresh)


class TestWorkerBody:
    def test_run_point_rejects_non_dict_metrics(self):
        from repro.sweep.targets import TARGETS

        TARGETS["_bad"] = lambda params, telemetry, rng: [1, 2]
        try:
            with pytest.raises(TypeError):
                _run_point(("_bad", "t", 0, 0, {}, None, False))
        finally:
            del TARGETS["_bad"]


class TestPointOrderIndependence:
    def test_congestion_points_in_reverse_order_match_run_sweep(
        self, monkeypatch
    ):
        # A point's result must not depend on which points ran before it
        # in the same process, now that topologies of one spec share
        # their switch-pair route searches.
        from repro.interconnect import routecache

        spec = named_sweep("congestion")
        monkeypatch.setattr(routecache, "_SPEC_MAPS", {})
        backwards = {}
        for point in reversed(spec.points()):
            result = _run_point((spec.target, spec.name, spec.seed,
                                 point.index, point.params, None, False))
            backwards[point.index] = result.payload()
        # One table per topology kind, warmed by the other points.
        assert len(routecache._SPEC_MAPS) == 4
        assert all(maps["cores"] for maps in routecache._SPEC_MAPS.values())
        monkeypatch.setattr(routecache, "_SPEC_MAPS", {})
        forwards = run_sweep(spec, workers=1)
        assert forwards.ok and len(forwards.points) == 64
        for point in forwards.points:
            assert backwards[point.index] == point.payload()
