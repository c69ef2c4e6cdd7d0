"""Tests for reducing sweep records to paper-style tables."""

import pytest

from repro.analysis.aggregate import group_mean, pivot, summary_table

ROWS = [
    {"topology": "torus", "policy": "none", "fct": 4.0},
    {"topology": "torus", "policy": "none", "fct": 6.0},
    {"topology": "torus", "policy": "ecn", "fct": 3.0},
    {"topology": "dragonfly", "policy": "none", "fct": 2.0},
    {"topology": "dragonfly", "policy": "ecn"},
]


class _Result:
    """Anything with ``records()`` is read through it, as a SweepResult is."""

    def records(self):
        return list(ROWS)


class TestGroupMean:
    def test_means_per_group_skipping_rows_without_the_value(self):
        assert group_mean(ROWS, ["topology", "policy"], "fct") == {
            ("torus", "none"): 5.0,
            ("torus", "ecn"): 3.0,
            ("dragonfly", "none"): 2.0,
        }

    def test_single_axis(self):
        assert group_mean(ROWS, ["topology"], "fct") == {
            ("torus",): pytest.approx(13.0 / 3),
            ("dragonfly",): 2.0,
        }

    def test_missing_group_column_raises(self):
        with pytest.raises(KeyError):
            group_mean(ROWS, ["fabric"], "fct")

    def test_reads_records_of_a_result(self):
        assert group_mean(_Result(), ["policy"], "fct") == group_mean(
            ROWS, ["policy"], "fct"
        )


class TestPivot:
    def test_cells_hold_means_and_gaps_render_as_dash(self):
        table = pivot(ROWS, "topology", "policy", "fct")
        assert table.title == "fct by topology x policy"
        assert table.columns == ["topology", "none", "ecn"]
        # Rows and columns keep first-seen order.
        assert table.rows == [["torus", "5", "3"], ["dragonfly", "2", "-"]]

    def test_custom_title(self):
        assert pivot(ROWS, "policy", "topology", "fct", title="C1").title == "C1"


class TestSummaryTable:
    def test_columns_are_the_union_of_keys(self):
        table = summary_table([{"a": 1}, {"b": 2.5, "a": 3}])
        assert table.columns == ["a", "b"]
        assert table.rows == [["1", "-"], ["3", "2.5"]]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summary_table([])
