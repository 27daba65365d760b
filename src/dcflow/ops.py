"""The six column-cleaning operations.

All operations are pure functions from table to table: row count, column
names and every cell outside the target column are preserved. Cells that an
operation does not know how to improve are left untouched rather than
destroyed, mirroring the non-destructive defaults of interactive cleaning
tools.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Sequence

from .cells import Cell, CellKind, parse_date, parse_number
from .errors import OverlappingEditError, SchemaError
from .jsonread import list_of, obj, string
from .table import Table
from .transform import TransformExpr, eval_transform_expr

logger = logging.getLogger(__name__)


class OpKind(Enum):
    UPPER = "upper"
    TRIM = "trim"
    NUMERIC = "numeric"
    DATE = "date"
    MASS_EDIT = "mass_edit"
    REGEXR_TRANSFORM = "regexr_transform"


@dataclass(frozen=True)
class MassEdit:
    """One replacement group: every value in ``from_values`` becomes ``to``."""

    from_values: tuple[str, ...]
    to: str


@dataclass(frozen=True)
class MassEditSpec:
    edits: tuple[MassEdit, ...]

    def __post_init__(self):
        seen: dict[str, int] = {}
        for i, edit in enumerate(self.edits):
            if not edit.from_values:
                raise OverlappingEditError(f"edit {i} has an empty 'from' list")
            if not edit.to:
                raise OverlappingEditError(f"edit {i} has an empty 'to' value")
            for value in edit.from_values:
                if value in seen and seen[value] != i:
                    raise OverlappingEditError(
                        f"{value!r} appears in more than one 'from' list"
                    )
                seen[value] = i

    @classmethod
    def of(cls, edits: Sequence[tuple[Sequence[str], str]]) -> "MassEditSpec":
        return cls(tuple(MassEdit(tuple(f), t) for f, t in edits))

    @classmethod
    def from_json(cls, raw: Any, path: str) -> "MassEditSpec":
        """Parse ``{"edits": [{"from": [str], "to": str}, ...]}``."""
        edits = obj(raw, path, edits=list_of(_mass_edit_from_json))["edits"]
        try:
            return cls(edits)
        except OverlappingEditError as exc:
            raise SchemaError(f"{path}.edits", str(exc)) from exc

    def to_json(self) -> dict:
        return {"edits": [{"from": list(e.from_values), "to": e.to} for e in self.edits]}

    def mapping(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for edit in self.edits:
            for value in edit.from_values:
                out[value] = edit.to
        return out


def _mass_edit_from_json(raw: Any, path: str) -> MassEdit:
    fields = obj(raw, path, **{"from": list_of(string), "to": string})
    return MassEdit(fields["from"], fields["to"])


ARG_TYPES: dict[OpKind, type] = {
    OpKind.MASS_EDIT: MassEditSpec,
    OpKind.REGEXR_TRANSFORM: TransformExpr,
}


def _map_column(table: Table, column: str, fn: Callable[[Cell], Cell]) -> Table:
    values = table.column_values(column)
    return table.replace_column(column, [fn(cell) for cell in values])


def _map_text(table: Table, column: str, fn: Callable[[str], str]) -> Table:
    return _map_column(
        table, column, lambda cell: Cell.text(fn(cell.value)) if cell.kind is CellKind.TEXT else cell
    )


def apply_upper(table: Table, column: str) -> Table:
    """Uppercase every text cell in the column; other kinds pass through."""
    return _map_text(table, column, str.upper)


def apply_trim(table: Table, column: str) -> Table:
    """Strip leading/trailing Unicode whitespace (incl. non-breaking space)."""
    return _map_text(table, column, str.strip)


def apply_numeric(table: Table, column: str) -> Table:
    """Convert text cells matching the numeric grammar; leave the rest."""
    converted = 0

    def fn(cell: Cell) -> Cell:
        nonlocal converted
        if cell.kind is CellKind.TEXT:
            number = parse_number(cell.value)
            if number is not None:
                converted += 1
                return Cell.number(number)
        return cell

    result = _map_column(table, column, fn)
    logger.info("numeric(%s): converted %d cell(s)", column, converted)
    return result


def apply_date(table: Table, column: str) -> Table:
    """Convert text cells matching an accepted date format; leave the rest."""
    converted = 0

    def fn(cell: Cell) -> Cell:
        nonlocal converted
        if cell.kind is CellKind.TEXT:
            dt = parse_date(cell.value)
            if dt is not None:
                converted += 1
                return Cell.date(dt)
        return cell

    result = _map_column(table, column, fn)
    logger.info("date(%s): converted %d cell(s)", column, converted)
    return result


def apply_mass_edit(table: Table, column: str, spec: MassEditSpec) -> Table:
    """Replace text cells exactly equal to a 'from' value (case-sensitive)."""
    mapping = spec.mapping()

    def fn(cell: Cell) -> Cell:
        if cell.kind is CellKind.TEXT and cell.value in mapping:
            return Cell.text(mapping[cell.value])
        return cell

    return _map_column(table, column, fn)


def apply_regexr_transform(table: Table, column: str, expr: TransformExpr) -> Table:
    return _map_column(table, column, lambda cell: eval_transform_expr(expr, cell))
