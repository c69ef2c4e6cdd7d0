"""Aggregation of sweep results into tables.

A :class:`~repro.sweep.engine.SweepResult` is a list of flat records
(params + metrics).  These helpers reduce that list the way a paper table
would: group by one axis, average a metric, or pivot two axes against
each other.  Everything here takes plain records (``List[Dict]``) so it
works equally on a live result, a loaded ``repro.sweep/v1`` document or
hand-built rows.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.tables import Table


def _rows_of(result_or_rows) -> List[Dict[str, object]]:
    if hasattr(result_or_rows, "records"):
        return result_or_rows.records()
    return list(result_or_rows)


def group_mean(
    result_or_rows,
    by: Sequence[str],
    value: str,
) -> Dict[Tuple[object, ...], float]:
    """Mean of ``value`` grouped by the ``by`` columns.

    Returns ``{(group key...): mean}``; rows missing the value column are
    skipped, rows missing a group column raise ``KeyError``.
    """
    by = list(by)
    sums: Dict[Tuple[object, ...], float] = {}
    counts: Dict[Tuple[object, ...], int] = {}
    for row in _rows_of(result_or_rows):
        if value not in row:
            continue
        key = tuple(row[column] for column in by)
        sums[key] = sums.get(key, 0.0) + float(row[value])
        counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}


def pivot(
    result_or_rows,
    rows: str,
    columns: str,
    value: str,
    title: str = "",
) -> Table:
    """A ``rows × columns`` table of mean ``value``.

    Cell (r, c) is the mean of ``value`` over every record whose ``rows``
    axis equals r and ``columns`` axis equals c — the shape of most paper
    sweep tables (e.g. topology × congestion policy, mean FCT).  Missing
    cells render as ``-``.
    """
    records = _rows_of(result_or_rows)
    means = group_mean(records, [rows, columns], value)
    row_values: List[object] = []
    column_values: List[object] = []
    for record in records:
        if rows in record and record[rows] not in row_values:
            row_values.append(record[rows])
        if columns in record and record[columns] not in column_values:
            column_values.append(record[columns])
    table = Table(
        title or f"{value} by {rows} x {columns}",
        [rows] + [str(c) for c in column_values],
    )
    for row_value in row_values:
        cells: List[object] = [row_value]
        for column_value in column_values:
            mean = means.get((row_value, column_value))
            cells.append("-" if mean is None else mean)
        table.add_row(*cells)
    return table


def summary_table(result_or_rows, title: str = "sweep results") -> Table:
    """Every record as one table row (columns = union of record keys)."""
    records = _rows_of(result_or_rows)
    if not records:
        raise ValueError("no records to tabulate")
    columns: List[str] = []
    for record in records:
        for key in record:
            if key not in columns:
                columns.append(key)
    table = Table(title, columns)
    for record in records:
        table.add_row(*[record.get(column, "-") for column in columns])
    return table
