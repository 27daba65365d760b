"""Immutable rectangular tables with named columns, plus CSV in/out.

A table stores one tuple of cells per column. Every mutation-like method
returns a new table that shares each column it did not change; instances
are safe to share across threads. CSV ingestion performs no type inference:
every non-empty field arrives as text and empty fields become missing cells.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .cells import Cell, MISSING
from .errors import (
    DcflowError,
    DuplicateColumnError,
    EmptyInputError,
    EncodingError,
    RowArityError,
    ShapeMismatchError,
    UnknownColumnError,
)


def _transpose(columns: tuple[str, ...], rows: Sequence[Sequence]) -> Iterable[tuple]:
    """The columns of ``rows``; checks the names, then each row's width."""
    if len(set(columns)) < len(columns):
        raise DuplicateColumnError(next(n for i, n in enumerate(columns) if n in columns[:i]))
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            raise RowArityError(i + 1, len(columns), len(row))
    return zip(*rows) if rows else [()] * len(columns)


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    data: tuple[tuple[Cell, ...], ...]  # one tuple of cells per column
    n_rows: int
    provenance: str | None = None

    def __post_init__(self):
        _transpose(self.columns, ())  # checks the names
        if len(self.data) != len(self.columns):
            raise ShapeMismatchError(f"{len(self.data)} cell columns, {len(self.columns)} names")
        for values in self.data:
            if len(values) != self.n_rows:
                raise RowArityError(0, self.n_rows, len(values))

    @classmethod
    def from_rows(
        cls,
        columns: Sequence[str],
        rows: Iterable[Sequence[Cell]],
        provenance: str | None = None,
    ) -> "Table":
        columns, rows = tuple(columns), list(rows)
        return cls(columns, tuple(_transpose(columns, rows)), len(rows), provenance)

    @property
    def rows(self) -> tuple[tuple[Cell, ...], ...]:
        """The row tuples, rebuilt on each access."""
        return tuple(zip(*self.data)) if self.data else ((),) * self.n_rows

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise UnknownColumnError(name, self.columns) from None

    def column_values(self, name: str) -> tuple[Cell, ...]:
        return self.data[self.column_index(name)]

    def replace_column(self, name: str, values: Sequence[Cell]) -> "Table":
        j = self.column_index(name)
        return replace(self, data=self.data[:j] + (tuple(values),) + self.data[j + 1 :])


def load_table(data: bytes, *, provenance: str | None = None) -> Table:
    """Parse a CSV payload with a header row. Empty fields become missing
    cells; no typing.

    A leading UTF-8 byte order mark, as spreadsheet exports write, is
    dropped rather than kept in the first column's name.
    """
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"payload is not valid UTF-8: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        records = list(reader)
    except csv.Error as exc:  # a field over csv.field_size_limit(); NUL bytes before 3.11
        raise DcflowError(f"CSV line {reader.line_num}: {exc}") from exc
    if not records:
        raise EmptyInputError("empty CSV payload")
    # Checks the header and each record's width, then converts each column once.
    fields = Table.from_rows(records[0], records[1:])
    cells = tuple(tuple(MISSING if f == "" else Cell.text(f) for f in col) for col in fields.data)
    return Table(fields.columns, cells, fields.n_rows, provenance)


def table_to_csv(table: Table) -> bytes:
    """Serialize with canonical RFC-4180 quoting, "\\n" terminated lines."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([cell.render() for cell in row])
    return buf.getvalue().encode("utf-8")
