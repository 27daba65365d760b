"""Immutable rectangular tables with named columns, plus CSV in/out.

Every mutation-like method returns a new table; instances are safe to share
across threads. CSV ingestion performs no type inference: every non-empty
field arrives as text and empty fields become missing cells.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .cells import Cell, MISSING
from .errors import (
    DuplicateColumnError,
    EmptyInputError,
    EncodingError,
    RowArityError,
    UnknownColumnError,
)


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]
    provenance: str | None = None

    def __post_init__(self):
        seen = set()
        for name in self.columns:
            if name in seen:
                raise DuplicateColumnError(name)
            seen.add(name)
        width = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise RowArityError(i + 1, width, len(row))

    @classmethod
    def from_rows(
        cls,
        columns: Sequence[str],
        rows: Iterable[Sequence[Cell]],
        provenance: str | None = None,
    ) -> "Table":
        return cls(tuple(columns), tuple(tuple(r) for r in rows), provenance)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise UnknownColumnError(name, self.columns) from None

    def column_values(self, name: str) -> tuple[Cell, ...]:
        j = self.column_index(name)
        return tuple(row[j] for row in self.rows)

    def replace_column(self, name: str, values: Sequence[Cell]) -> "Table":
        j = self.column_index(name)
        if len(values) != self.n_rows:
            raise RowArityError(0, self.n_rows, len(values))
        new_rows = tuple(
            row[:j] + (values[i],) + row[j + 1 :] for i, row in enumerate(self.rows)
        )
        return replace(self, rows=new_rows)


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
    records = list(csv.reader(io.StringIO(text, newline="")))
    if not records:
        raise EmptyInputError("empty CSV payload")
    # Table checks the column names and each row's width.
    rows = tuple(
        tuple(MISSING if f == "" else Cell.text(f) for f in record) for record in records[1:]
    )
    return Table(tuple(records[0]), rows, provenance)


def table_to_csv(table: Table) -> bytes:
    """Serialize with canonical RFC-4180 quoting, "\\n" terminated lines."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([cell.render() for cell in row])
    return buf.getvalue().encode("utf-8")
