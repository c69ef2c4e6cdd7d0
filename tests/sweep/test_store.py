"""Round-trip, atomicity and corruption tests for the repro.sweep/v1 store."""

import json
import os

import pytest

from repro.sweep import (
    SupervisorConfig,
    SweepSpec,
    load_sweep,
    run_sweep,
    save_sweep,
)
from repro.sweep.store import SCHEMA, sweep_document

from tests.sweep import _ft_helpers  # noqa: F401  (registers ft-* targets)


@pytest.fixture(scope="module")
def result():
    spec = SweepSpec(
        name="store-test",
        target="fabric-congestion",
        grid={"topology": ["dragonfly"], "load": [0.5, 0.9], "flows": [10]},
        seed=13,
    )
    return run_sweep(spec, workers=1)


class TestStore:
    def test_round_trip_preserves_fingerprint(self, result, tmp_path):
        path = save_sweep(result, tmp_path / "sweep.json")
        loaded = load_sweep(path)
        assert loaded.fingerprint() == result.fingerprint()
        assert loaded.name == result.name
        assert loaded.target == result.target
        assert loaded.seed == result.seed
        assert loaded.workers == result.workers

    def test_document_is_self_describing(self, result):
        document = sweep_document(result)
        assert document["schema"] == SCHEMA
        assert document["fingerprint"] == result.fingerprint()
        assert len(document["points"]) == len(result.points)

    def test_document_is_json_serialisable(self, result):
        json.dumps(sweep_document(result))

    def test_unknown_schema_rejected(self, result, tmp_path):
        path = tmp_path / "bad.json"
        document = sweep_document(result)
        document["schema"] = "repro.sweep/v999"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError):
            load_sweep(path)

    def test_missing_schema_rejected(self, tmp_path):
        path = tmp_path / "none.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_sweep(path)

    def test_failures_and_harness_round_trip(self, tmp_path):
        spec = SweepSpec(
            name="store-ft",
            target="ft-boom",
            grid={"x": [0, 1]},
            seed=3,
        )
        result = run_sweep(spec, config=SupervisorConfig(retries=0))
        assert not result.ok
        loaded = load_sweep(save_sweep(result, tmp_path / "partial.json"))
        assert not loaded.ok
        assert loaded.failures[0].index == 1
        assert "boom" in loaded.failures[0].error
        assert loaded.harness == result.harness
        assert loaded.fingerprint() == result.fingerprint()


class TestAtomicSave:
    def test_no_temp_files_left_behind(self, result, tmp_path):
        save_sweep(result, tmp_path / "sweep.json")
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]

    def test_failed_write_preserves_the_old_artefact(
        self, result, tmp_path, monkeypatch
    ):
        path = tmp_path / "sweep.json"
        path.write_text('{"precious": true}')

        def explode(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", explode)
        with pytest.raises(OSError, match="disk full"):
            save_sweep(result, path)
        assert json.loads(path.read_text()) == {"precious": True}
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]


class TestCorruptArtefacts:
    def _saved(self, result, tmp_path):
        path = tmp_path / "sweep.json"
        save_sweep(result, path)
        return path

    def test_truncated_json_names_the_path(self, result, tmp_path):
        path = self._saved(result, tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError, match=r"sweep\.json.*invalid JSON"):
            load_sweep(path)

    def test_non_object_document_is_rejected(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="expected a JSON object"):
            load_sweep(path)

    @pytest.mark.parametrize("field", ["name", "target", "seed", "points"])
    def test_missing_required_field_is_named(self, result, tmp_path, field):
        path = self._saved(result, tmp_path)
        document = json.loads(path.read_text())
        del document[field]
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=f"missing required field '{field}'"):
            load_sweep(path)

    @pytest.mark.parametrize("field", ["index", "params", "metrics"])
    def test_missing_point_field_is_named(self, result, tmp_path, field):
        path = self._saved(result, tmp_path)
        document = json.loads(path.read_text())
        del document["points"][1][field]
        path.write_text(json.dumps(document))
        with pytest.raises(
            ValueError, match=rf"points\[1\] missing required field '{field}'"
        ):
            load_sweep(path)

    def test_failure_entry_missing_index_is_named(self, result, tmp_path):
        path = self._saved(result, tmp_path)
        document = json.loads(path.read_text())
        document["failures"] = [{"error": "boom", "attempts": 2}]
        path.write_text(json.dumps(document))
        with pytest.raises(
            ValueError,
            match=r"failures\[0\] missing required field 'index'",
        ):
            load_sweep(path)

    def test_non_object_failure_entry_is_named(self, result, tmp_path):
        path = self._saved(result, tmp_path)
        document = json.loads(path.read_text())
        document["failures"] = ["boom"]
        path.write_text(json.dumps(document))
        with pytest.raises(
            ValueError, match=r"failures\[0\] is not an object"
        ):
            load_sweep(path)

    def test_non_integer_failure_index_is_named(self, result, tmp_path):
        path = self._saved(result, tmp_path)
        document = json.loads(path.read_text())
        document["failures"] = [{"index": "many", "error": "boom"}]
        path.write_text(json.dumps(document))
        with pytest.raises(
            ValueError, match=r"failures\[0\] has a non-integer"
        ):
            load_sweep(path)

    def test_nan_metric_names_the_point_and_key(self, result, tmp_path):
        path = self._saved(result, tmp_path)
        document = json.loads(path.read_text())
        key = next(iter(document["points"][0]["metrics"]))
        document["points"][0]["metrics"][key] = "nan"
        path.write_text(json.dumps(document))
        with pytest.raises(
            ValueError, match=rf"points\[0\]\.metrics\['{key}'\] is non-finite"
        ):
            load_sweep(path)

    def test_non_numeric_counter_names_the_point_and_key(
        self, result, tmp_path
    ):
        path = self._saved(result, tmp_path)
        document = json.loads(path.read_text())
        document["points"][0]["counters"]["bogus"] = {"nested": 1}
        path.write_text(json.dumps(document))
        with pytest.raises(
            ValueError,
            match=r"points\[0\]\.counters\['bogus'\] is not a number",
        ):
            load_sweep(path)
