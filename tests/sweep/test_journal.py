"""Crash-consistent journal: round-trips, torn tails, merges, corruption."""

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
    merge_journals,
    point_payload_digest,
    register_target,
    run_sweep,
    save_sweep,
)
from repro.sweep.journal import SCHEMA, grid_digest, journal_header

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


class TestMergeJournals:
    """Merging per-process journals after a kill-any-subset interruption."""

    def _write(self, tmp_path, name, points, spec=None, failures=()):
        spec = spec or ft.cheap_spec(n=6)
        path = tmp_path / name
        with RunJournal(path, spec) as journal:
            for index, value, attempts in points:
                journal.record_point(_point(index, value), attempts=attempts)
            for index, error in failures:
                journal.record_failure(index, error, attempts=3)
        return path

    def test_disjoint_journals_union_cleanly(self, tmp_path):
        first = self._write(tmp_path, "a.jsonl", [(0, 1.0, 1), (2, 3.0, 2)])
        second = self._write(tmp_path, "b.jsonl", [(1, 2.0, 1)])
        merged = merge_journals([first, second])
        assert sorted(merged.completed) == [0, 1, 2]
        assert merged.attempts == {0: 1, 2: 2, 1: 1}
        assert merged.origin == {
            0: str(first), 2: str(first), 1: str(second),
        }

    def test_duplicate_indices_keep_the_first_listed_record(self, tmp_path):
        first = self._write(tmp_path, "a.jsonl", [(0, 1.0, 1)])
        second = self._write(tmp_path, "b.jsonl", [(0, 1.0, 2)])
        merged = merge_journals([first, second])
        assert merged.attempts[0] == 1  # first journal's record won
        assert merged.origin[0] == str(first)

    def test_conflicting_payloads_name_path_and_index(self, tmp_path):
        first = self._write(tmp_path, "a.jsonl", [(3, 1.0, 1)])
        second = self._write(tmp_path, "b.jsonl", [(3, 999.0, 1)])
        with pytest.raises(
            ValueError, match=r"b\.jsonl: conflicting record for point 3"
        ):
            merge_journals([first, second])

    def test_header_mismatch_names_the_offending_key(self, tmp_path):
        first = self._write(tmp_path, "a.jsonl", [(0, 1.0, 1)])
        second = self._write(
            tmp_path, "b.jsonl", [(1, 2.0, 1)], spec=ft.cheap_spec(seed=99)
        )
        with pytest.raises(ValueError, match=r"b\.jsonl: journal seed"):
            merge_journals([first, second])

    def test_failures_survive_only_for_never_completed_points(self, tmp_path):
        first = self._write(
            tmp_path, "a.jsonl", [(0, 1.0, 1)],
            failures=[(4, "boom"), (5, "bust")],
        )
        second = self._write(tmp_path, "b.jsonl", [(4, 5.0, 2)])
        merged = merge_journals([first, second])
        assert sorted(merged.failed) == [5]  # point 4 completed elsewhere
        assert 4 in merged.completed

    def test_torn_tail_in_any_journal_is_reported(self, tmp_path):
        first = self._write(tmp_path, "a.jsonl", [(0, 1.0, 1)])
        second = self._write(tmp_path, "b.jsonl", [(1, 2.0, 1)])
        with open(second, "a") as handle:
            handle.write('{"kind": "point", "ind')
        merged = merge_journals([first, second])
        assert merged.torn_tail is True
        assert sorted(merged.completed) == [0, 1]

    def test_empty_path_list_is_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_journals([])

    def test_payload_digest_tracks_the_fingerprint_fields(self):
        assert point_payload_digest(_point(0)) == point_payload_digest(
            _point(0)
        )
        assert point_payload_digest(_point(0)) != point_payload_digest(
            _point(0, value=2.0)
        )
        # Wall-clock is harness noise, not part of the outcome.
        noisy = PointResult(
            index=0, params={"x": 0}, metrics={"value": 1.0},
            counters={"runs": 1.0}, wall_seconds=99.0,
        )
        assert point_payload_digest(noisy) == point_payload_digest(_point(0))


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
