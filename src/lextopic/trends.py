"""Tabular count/percentage tables shared by the corpus and analyze stages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingYear, _quoted

PER_TOPIC = "per_topic"
PER_YEAR = "per_year"


@dataclass
class TrendTable:
    """Counts and percentages over row labels x column labels.

    Rows are law types or topic labels; columns are years (or a single
    synthetic column for one-dimensional share tables).  ``normalization``
    declares the axis whose groups sum to 100: ``per_topic`` normalizes
    each row, ``per_year`` each column.  Groups with zero counts stay
    all-zero.
    """

    axis_rows: list[str]
    axis_cols: list
    counts: list[list[int]]
    percentages: list[list[float]]
    normalization: str

    def percent(self, row_label: str, col_label) -> float:
        return self.percentages[self.axis_rows.index(row_label)][self.axis_cols.index(col_label)]


def build_trend_table(
    axis_rows: list[str],
    axis_cols: list,
    counts: list[list[int]],
    normalization: str = PER_TOPIC,
) -> TrendTable:
    if normalization not in (PER_TOPIC, PER_YEAR):
        raise ValueError(f"unknown normalization {_quoted(normalization)}")
    cells = np.array(counts, dtype=np.float64).reshape(len(axis_rows), len(axis_cols))
    totals = cells.sum(axis=1 if normalization == PER_TOPIC else 0, keepdims=True)
    # Integer counts are exact in float64, so each cell is the float (100.0 * count) / total.
    percentages = np.divide(100.0 * cells, totals, out=np.zeros_like(cells), where=totals > 0)
    return TrendTable(axis_rows, axis_cols, counts, percentages.tolist(), normalization)


def year_table(axis_rows: list[str], rows, records, normalization: str) -> TrendTable:
    """Count records per (row, Gregorian year): record i falls in row rows[i].

    The columns are the records' distinct years, ascending. A record with
    no date raises MissingYear.
    """
    for record in records:
        if record.date is None:
            raise MissingYear(record.id)
    record_years = np.array([record.date.gregorian_year for record in records], dtype=np.int64)
    years, columns = np.unique(record_years, return_inverse=True)
    cells = np.asarray(rows, dtype=np.int64) * len(years) + columns
    counts = np.bincount(cells, minlength=len(axis_rows) * len(years)).reshape(len(axis_rows), len(years))
    return build_trend_table(axis_rows, years.tolist(), counts.tolist(), normalization)
