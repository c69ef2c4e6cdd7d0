"""ASCII table rendering for benchmark output.

Every benchmark prints the rows/series its experiment reports, in the same
spirit as a paper's table. :class:`Table` keeps it dependency free.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence


class Table:
    """A simple column-aligned ASCII table."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        if not columns:
            raise ValueError("table needs at least one column")
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *values: Any) -> None:
        """Append a row; values are stringified (floats get 4 sig figs)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, table has {len(self.columns)} columns"
            )
        self.rows.append([_render(v) for v in values])

    def render(self) -> str:
        """The formatted table as a string."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def print(self) -> None:
        """Print the table (with surrounding blank lines)."""
        print()
        print(self.render())
        print()


def _render(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)

