"""Tests for ASCII table rendering."""

import pytest

from repro.analysis.tables import Table


class TestTable:
    def test_requires_columns(self):
        with pytest.raises(ValueError):
            Table("t", [])

    def test_row_arity_checked(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_render_contains_everything(self):
        table = Table("Experiment C1", ["policy", "p99 (us)"])
        table.add_row("flow-based", 9.4)
        table.add_row("none", 56.9)
        rendered = table.render()
        assert "Experiment C1" in rendered
        assert "flow-based" in rendered
        assert "9.4" in rendered
        assert "56.9" in rendered

    def test_columns_aligned(self):
        table = Table("t", ["name", "value"])
        table.add_row("short", 1)
        table.add_row("a-much-longer-name", 2)
        lines = table.render().splitlines()
        data_lines = lines[4:]
        positions = [line.index("1") if "1" in line else line.index("2")
                     for line in data_lines]
        assert len(set(positions)) == 1

    def test_float_rendering(self):
        table = Table("t", ["x"])
        table.add_row(0.000012345)
        assert "e-05" in table.render()

    def test_print_smoke(self, capsys):
        table = Table("t", ["x"])
        table.add_row(1)
        table.print()
        captured = capsys.readouterr()
        assert "t" in captured.out

