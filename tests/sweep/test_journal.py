"""Crash-consistent journal: round-trips, torn tails, corruption."""

import json

import pytest

from repro.sweep import (
    TARGETS,
    PointResult,
    RunJournal,
    SupervisorConfig,
    SweepSpec,
    load_journal,
    load_sweep,
    register_target,
    run_sweep,
    save_sweep,
)
from repro.sweep.journal import (
    SCHEMA,
    JournalState,
    grid_digest,
    journal_header,
    point_from_record,
    point_record,
)

from tests.sweep import _ft_helpers as ft


def _point(index, value=1.0):
    return PointResult(
        index=index,
        params={"x": index},
        metrics={"value": value},
        counters={"runs": 1.0},
        wall_seconds=0.01,
    )


class TestHeader:
    def test_header_identifies_the_sweep(self):
        spec = ft.cheap_spec(n=4)
        header = journal_header(spec)
        assert header["schema"] == SCHEMA
        assert header["name"] == "ft"
        assert header["target"] == "ft-cheap"
        assert header["seed"] == spec.seed
        assert header["points"] == 4
        assert header["grid_digest"] == grid_digest(spec)

    def test_grid_digest_is_stable_but_axis_sensitive(self):
        assert grid_digest(ft.cheap_spec(n=4)) == grid_digest(ft.cheap_spec(n=4))
        assert grid_digest(ft.cheap_spec(n=4)) != grid_digest(ft.cheap_spec(n=5))

class TestRoundTrip:
    def test_points_and_failures_round_trip(self, tmp_path):
        spec = ft.cheap_spec(n=4)
        path = tmp_path / "run.jsonl"
        with RunJournal(path, spec) as journal:
            journal.record_point(_point(0), attempts=1)
            journal.record_point(_point(2, value=5.0), attempts=3)
            journal.record_failure(1, "RuntimeError: boom", attempts=2)
        state = load_journal(path)
        assert state.matches(spec) is None
        assert sorted(state.completed) == [0, 2]
        assert state.completed[2].metrics == {"value": 5.0}
        assert state.completed[0].counters == {"runs": 1.0}
        assert state.failed[1]["error"] == "RuntimeError: boom"
        assert state.failed[1]["attempts"] == 2
        assert state.torn_tail is False

    def test_resume_mode_appends_instead_of_truncating(self, tmp_path):
        spec = ft.cheap_spec(n=4)
        path = tmp_path / "run.jsonl"
        with RunJournal(path, spec) as journal:
            journal.record_point(_point(0), attempts=1)
        with RunJournal(path, spec, mode="resume") as journal:
            journal.record_point(_point(1), attempts=1)
        state = load_journal(path)
        assert sorted(state.completed) == [0, 1]

    def test_a_later_point_record_clears_an_earlier_failure(self, tmp_path):
        spec = ft.cheap_spec(n=4)
        path = tmp_path / "run.jsonl"
        with RunJournal(path, spec) as journal:
            journal.record_failure(3, "RuntimeError: boom", attempts=3)
            journal.record_point(_point(3), attempts=1)
        state = load_journal(path)
        assert 3 in state.completed
        assert state.failed == {}

    def test_fresh_mode_truncates_an_existing_journal(self, tmp_path):
        spec = ft.cheap_spec(n=4)
        path = tmp_path / "run.jsonl"
        with RunJournal(path, spec) as journal:
            journal.record_point(_point(0), attempts=1)
        with RunJournal(path, spec, mode="fresh"):
            pass
        assert load_journal(path).completed == {}

    def test_bad_mode_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fresh|resume"):
            RunJournal(tmp_path / "run.jsonl", ft.cheap_spec(), mode="append")


class TestTornTail:
    def test_torn_trailing_line_is_dropped_not_fatal(self, tmp_path):
        spec = ft.cheap_spec(n=4)
        path = tmp_path / "run.jsonl"
        with RunJournal(path, spec) as journal:
            journal.record_point(_point(0), attempts=1)
            journal.record_point(_point(1), attempts=1)
        with open(path, "a") as handle:
            handle.write('{"kind": "point", "index": 2, "metr')  # no newline
        state = load_journal(path)
        assert state.torn_tail is True
        assert sorted(state.completed) == [0, 1]

    def test_clean_journal_reports_no_torn_tail(self, tmp_path):
        spec = ft.cheap_spec(n=4)
        path = tmp_path / "run.jsonl"
        with RunJournal(path, spec):
            pass
        assert load_journal(path).torn_tail is False

    def test_resume_truncates_the_torn_tail_before_appending(self, tmp_path):
        """Resuming over a torn tail must not concatenate onto it.

        Two consecutive crash(+torn tail)/resume cycles on the same file:
        each resume drops the partial line, so the journal always keeps
        its at-most-one-torn-trailing-line invariant and stays loadable.
        """
        spec = ft.cheap_spec(n=4)
        path = tmp_path / "run.jsonl"
        with RunJournal(path, spec) as journal:
            journal.record_point(_point(0), attempts=1)
        for index in (1, 2):  # crash + resume, twice
            with open(path, "a") as handle:
                handle.write(f'{{"kind": "point", "index": {index}, "metr')
            with RunJournal(path, spec, mode="resume") as journal:
                journal.record_point(_point(index), attempts=1)
            state = load_journal(path)
            assert state.torn_tail is False
            assert sorted(state.completed) == list(range(index + 1))


class TestCorruption:
    def _journal(self, tmp_path, lines):
        path = tmp_path / "run.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        return path

    def test_mid_file_garbage_names_path_and_line(self, tmp_path):
        spec = ft.cheap_spec(n=4)
        path = self._journal(
            tmp_path,
            [json.dumps(journal_header(spec)), "{not json", "{}"],
        )
        with pytest.raises(ValueError, match=r"run\.jsonl.*line 2"):
            load_journal(path)

    def test_missing_header_is_rejected(self, tmp_path):
        path = self._journal(
            tmp_path, ['{"kind": "point", "index": 0}']
        )
        with pytest.raises(ValueError, match="precedes the journal header"):
            load_journal(path)

    def test_empty_file_is_rejected(self, tmp_path):
        path = self._journal(tmp_path, [])
        with pytest.raises(ValueError, match="no header"):
            load_journal(path)

    def test_wrong_schema_is_rejected(self, tmp_path):
        header = journal_header(ft.cheap_spec())
        header["schema"] = "repro.sweep.journal/v99"
        path = self._journal(tmp_path, [json.dumps(header)])
        with pytest.raises(ValueError, match="expected schema"):
            load_journal(path)

    def test_duplicate_header_is_rejected(self, tmp_path):
        header = json.dumps(journal_header(ft.cheap_spec()))
        path = self._journal(tmp_path, [header, header])
        with pytest.raises(ValueError, match="duplicate header"):
            load_journal(path)

    def test_malformed_point_record_names_the_line(self, tmp_path):
        spec = ft.cheap_spec(n=4)
        path = self._journal(
            tmp_path,
            [json.dumps(journal_header(spec)),
             '{"kind": "point", "index": 0, "params": {}}'],
        )
        with pytest.raises(ValueError, match="malformed point record at line 2"):
            load_journal(path)

    def test_malformed_failure_record_names_the_line(self, tmp_path):
        spec = ft.cheap_spec(n=4)
        path = self._journal(
            tmp_path,
            [json.dumps(journal_header(spec)),
             '{"kind": "failure", "error": "boom"}'],
        )
        with pytest.raises(
            ValueError, match="malformed failure record at line 2"
        ):
            load_journal(path)

    def test_unknown_record_kind_is_rejected(self, tmp_path):
        spec = ft.cheap_spec(n=4)
        path = self._journal(
            tmp_path,
            [json.dumps(journal_header(spec)), '{"kind": "banana"}'],
        )
        with pytest.raises(ValueError, match="unknown record kind 'banana'"):
            load_journal(path)


class TestSpecMatching:
    def test_journal_for_a_different_grid_reports_the_mismatch(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path, ft.cheap_spec(n=4)):
            pass
        mismatch = load_journal(path).matches(ft.cheap_spec(n=5))
        assert mismatch is not None
        assert "points" in mismatch or "grid_digest" in mismatch

    def test_journal_for_a_different_seed_reports_the_mismatch(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path, ft.cheap_spec(seed=1)):
            pass
        mismatch = load_journal(path).matches(ft.cheap_spec(seed=2))
        assert mismatch is not None and "seed" in mismatch


class TestNonFiniteMetrics:
    """A NaN metric must fail its point, never be saved or resumed."""

    def test_run_fails_the_point_and_resume_refuses_the_nan(self, tmp_path):
        @register_target("_nan-target")
        def nan_target(params, telemetry, rng):
            return {"x": float("nan") if params["i"] == 1 else 1.0}

        try:
            spec = SweepSpec(name="nan", target="_nan-target",
                             grid={"i": [0, 1, 2]})
            result = run_sweep(spec, config=SupervisorConfig(retries=0))
        finally:
            del TARGETS["_nan-target"]
        assert not result.ok
        assert [failure.index for failure in result.failures] == [1]
        error = result.failures[0].error
        assert "'_nan-target'" in error and "metrics['x'] is non-finite" in error
        assert sorted(p.index for p in result.points) == [0, 2]
        # What is saved loads back.
        assert load_sweep(save_sweep(result, tmp_path / "s.json")).points

        path = tmp_path / "run.jsonl"
        with RunJournal(path, spec) as journal:
            journal.record_point(_point(0), attempts=1)
            journal.record_point(_point(1, value=float("nan")), attempts=1)
        with pytest.raises(
            ValueError, match=r"line 3: metrics\['value'\] is non-finite"
        ):
            load_journal(path)


class TestPointRecords:
    def test_record_round_trips_with_telemetry(self):
        point = _point(4, value=2.5)
        point.telemetry = {"counters": {"ft.runs": 1.0}}
        result, attempts = point_from_record(point_record(point, attempts=3))
        assert attempts == 3
        assert result == point

    def test_telemetry_is_journalled_only_when_collected(self):
        assert "telemetry" not in point_record(_point(0))

    def test_optional_fields_take_their_defaults(self):
        result, attempts = point_from_record(
            {"kind": "point", "index": "2", "params": {"x": 2},
             "metrics": {"value": 1}}
        )
        assert attempts == 1
        assert result.index == 2
        assert result.counters == {}
        assert result.wall_seconds == 0.0
        assert result.telemetry is None
        assert result.metrics == {"value": 1.0}

    @pytest.mark.parametrize("field, value, message", [
        ("metrics", {"value": "fast"}, r"metrics\['value'\] is not a number"),
        ("metrics", {"value": None}, r"metrics\['value'\] is not a number"),
        ("counters", {"runs": float("inf")},
         r"counters\['runs'\] is non-finite"),
    ])
    def test_values_must_be_finite_numbers(self, field, value, message):
        record = point_record(_point(0))
        record[field] = value
        with pytest.raises(ValueError, match=message):
            point_from_record(record)


class TestJournalLines:
    def _journal(self, tmp_path, lines):
        path = tmp_path / "run.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        return path

    def _header(self):
        return json.dumps(journal_header(ft.cheap_spec(n=4)))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = self._journal(tmp_path, [
            "", self._header(), "   ",
            json.dumps(point_record(_point(1))), "",
        ])
        state = load_journal(path)
        assert sorted(state.completed) == [1]
        assert state.torn_tail is False

    @pytest.mark.parametrize("line", ["[1, 2]", '"point"', '{"index": 0}'])
    def test_a_record_without_a_kind_names_the_line(self, tmp_path, line):
        path = self._journal(tmp_path, [self._header(), line])
        with pytest.raises(ValueError, match="line 2 has no 'kind' field"):
            load_journal(path)

    def test_a_torn_header_leaves_no_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(self._header()[:20])
        with pytest.raises(ValueError, match="no header record"):
            load_journal(path)

    def test_the_last_point_record_of_an_index_wins(self, tmp_path):
        path = self._journal(tmp_path, [
            self._header(),
            json.dumps(point_record(_point(1, value=1.0), attempts=1)),
            json.dumps(point_record(_point(1, value=7.0), attempts=2)),
        ])
        state = load_journal(path)
        assert state.completed[1].metrics == {"value": 7.0}
        assert state.attempts == {1: 2}

    def test_a_failure_after_a_completion_does_not_undo_it(self, tmp_path):
        spec = ft.cheap_spec(n=4)
        path = tmp_path / "run.jsonl"
        with RunJournal(path, spec) as journal:
            journal.record_point(_point(2), attempts=1)
            journal.record_failure(2, "RuntimeError: late", attempts=3)
        state = load_journal(path)
        assert sorted(state.completed) == [2]
        assert state.failed == {}

    def test_the_last_failure_of_an_index_is_kept(self, tmp_path):
        spec = ft.cheap_spec(n=4)
        path = tmp_path / "run.jsonl"
        with RunJournal(path, spec) as journal:
            journal.record_failure(0, "first", attempts=1)
            journal.record_failure(0, "second", attempts=3)
        failure = load_journal(path).failed[0]
        assert (failure["error"], failure["attempts"]) == ("second", 3)


class TestAppendSide:
    def test_missing_parent_directories_are_created(self, tmp_path):
        path = tmp_path / "deep" / "er" / "run.jsonl"
        with RunJournal(path, ft.cheap_spec(n=4)) as journal:
            journal.record_point(_point(0))
        assert sorted(load_journal(path).completed) == [0]

    def test_close_twice_is_harmless(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl", ft.cheap_spec(n=4))
        journal.close()
        journal.close()

    def test_every_record_is_one_sorted_key_json_line(self, tmp_path):
        spec = ft.cheap_spec(n=4)
        path = tmp_path / "run.jsonl"
        with RunJournal(path, spec) as journal:
            journal.record_point(_point(0))
            journal.record_failure(1, "boom", attempts=2)
        lines = path.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == [
            "header", "point", "failure",
        ]
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True)
        assert json.loads(lines[0]) == journal_header(spec)

    def test_resume_over_a_clean_journal_keeps_every_byte(self, tmp_path):
        spec = ft.cheap_spec(n=4)
        path = tmp_path / "run.jsonl"
        with RunJournal(path, spec) as journal:
            journal.record_point(_point(0))
        before = path.read_bytes()
        with RunJournal(path, spec, mode="resume"):
            pass
        assert path.read_bytes() == before


class TestHeaderMatching:
    @pytest.mark.parametrize("key", [
        "schema", "name", "target", "seed", "points", "grid_digest",
    ])
    def test_each_header_field_is_checked(self, key):
        spec = ft.cheap_spec(n=4)
        header = journal_header(spec)
        header[key] = "changed"
        assert JournalState(header=header).matches(spec) == (
            f"journal {key} 'changed' does not match the spec's "
            f"{journal_header(spec)[key]!r}"
        )

    def test_grid_digest_sees_value_types(self):
        ints = SweepSpec(name="g", target="ft-cheap", grid={"x": [1, 2]})
        floats = SweepSpec(name="g", target="ft-cheap", grid={"x": [1.0, 2.0]})
        assert grid_digest(ints) != grid_digest(floats)

    def test_grid_digest_ignores_the_name_and_seed(self):
        assert grid_digest(ft.cheap_spec(n=4, seed=1)) == grid_digest(
            SweepSpec(name="other", target="ft-cheap",
                      grid={"x": list(range(4))}, seed=2)
        )
