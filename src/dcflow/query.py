"""Executable analysis purposes: a small declarative query engine.

Each benchmark purpose carries a QuerySpec so that its answer can be
computed deterministically from any table, with no model in the loop.
Semantics, in brief:

- Filters AND together. Missing cells fail every filter. Equality and
  ordering coerce text through the numeric grammar where possible (and
  through the date formats for ``before``/``after``); rows whose cells
  cannot be compared under the comparator are excluded.
- Aggregates skip missing cells. ``min``/``max`` prefer the numeric domain
  value by value (non-coercible values are ignored), falling back to date
  instants and then rendered text. The argmax/argmin orderings pick one
  domain for the whole column: numeric only if every value coerces, date
  instants only if every cell is a date, rendered text otherwise.
- ``group_by`` with an aggregate yields records of the form
  ``{<group column>: key, "value": aggregate}``, sorted by group key.
- ``argmax_by``/``argmin_by`` return the first select column's value(s) at
  the extreme of the aggregate column: a scalar when one distinct value
  remains, else a value list. They do not combine with ``group_by``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from typing import Any, Callable, Mapping, Optional, Sequence

from .cells import Cell, CellKind, cell_instant, cell_number, format_number, parse_date
from .errors import SchemaError, TypeMismatchError
from .table import Table


class PurposeCategory(Enum):
    DESCRIPTIVE_STATISTICS = "DescriptiveStatistics"
    COUNTING_GROUPING = "CountingGrouping"
    CLASSIFICATION = "Classification"
    TIME_BASED = "TimeBased"
    CORRELATION = "Correlation"
    FILTERING = "Filtering"


COMPARATORS = ("=", "!=", "<", "<=", ">", ">=", "contains", "before", "after")
AGGREGATE_FNS = (
    "count",
    "count_distinct",
    "min",
    "max",
    "sum",
    "mean",
    "argmax_by",
    "argmin_by",
)


@dataclass(frozen=True)
class Filter:
    column: str
    op: str
    value: Cell

    def __post_init__(self):
        if self.op not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.op!r}")


@dataclass(frozen=True)
class Aggregate:
    fn: str
    column: Optional[str] = None

    def __post_init__(self):
        if self.fn not in AGGREGATE_FNS:
            raise ValueError(f"unknown aggregate {self.fn!r}")
        if self.fn != "count" and self.column is None:
            raise ValueError(f"{self.fn} requires a column")


@dataclass(frozen=True)
class Order:
    by: Optional[str] = None  # None sorts a value list by its own values
    descending: bool = False


@dataclass(frozen=True)
class QuerySpec:
    select: tuple[str, ...] = ()
    filters: tuple[Filter, ...] = ()
    group_by: Optional[str] = None
    aggregate: Optional[Aggregate] = None
    distinct: bool = False
    order: Optional[Order] = None
    limit: Optional[int] = None

    def __post_init__(self):
        """The rules that need no table; ``execute_purpose`` checks the rest."""
        agg = self.aggregate
        if agg is not None and agg.fn in ("argmax_by", "argmin_by"):
            if self.group_by is not None:
                raise ValueError(f"{agg.fn} does not combine with group_by")
            if not self.select:
                raise ValueError(f"{agg.fn} requires a select column")
        order_by = self.order.by if self.order is not None else None
        if agg is None and order_by is not None and order_by not in self.select:
            raise ValueError(f"order.by {order_by!r} is not a select column")
        if self.limit is not None and (type(self.limit) is not int or self.limit < 0):
            raise ValueError("limit must be a non-negative integer or null")


class AnswerKind(Enum):
    SCALAR = "scalar"
    VALUE_LIST = "list"
    RECORDS = "records"


@dataclass(frozen=True)
class Answer:
    kind: AnswerKind
    value: Optional[Cell] = None
    values: tuple[Cell, ...] = ()
    records: tuple[Mapping[str, Cell], ...] = ()

    @classmethod
    def scalar(cls, cell: Cell) -> "Answer":
        return cls(AnswerKind.SCALAR, value=cell)

    @classmethod
    def value_list(cls, cells: Sequence[Cell]) -> "Answer":
        return cls(AnswerKind.VALUE_LIST, values=tuple(cells))

    @classmethod
    def of_records(cls, records: Sequence[Mapping[str, Cell]]) -> "Answer":
        return cls(AnswerKind.RECORDS, records=tuple(dict(r) for r in records))


@dataclass(frozen=True)
class Purpose:
    id: str
    statement: str
    category: PurposeCategory
    target_columns_gold: tuple[str, ...]
    query: QuerySpec
    gold_answer: Answer


# ---------------------------------------------------------------------------
# execution

def _row_test(f: Filter, table: Table) -> Callable[[tuple[Cell, ...]], bool]:
    """The test ``f`` applies to each row of ``table``.

    The column index and the literal's number, instant and rendering are
    computed once. A cell is coerced only into a domain the literal has,
    and a text cell's verdict is computed once per distinct value.
    """
    j = table.column_index(f.column)
    op = f.op
    lit_text = f.value.render()
    lit_number = cell_number(f.value)
    lit_instant = cell_instant(f.value)
    lit_is_text = f.value.kind is CellKind.TEXT

    def compare(cell: Cell) -> Optional[int]:
        """Three-way comparison of ``cell`` with the literal in the first
        domain both coerce to, number then instant; None if neither."""
        if lit_number is not None:
            n = cell_number(cell)
            if n is not None:
                return (n > lit_number) - (n < lit_number)
        if lit_instant is not None:
            d = cell_instant(cell)
            if d is not None:
                return (d > lit_instant) - (d < lit_instant)
        return None

    def verdict(cell: Cell) -> bool:
        if cell.is_missing:
            return False
        if op == "contains":
            return lit_text in cell.render()
        if op in ("before", "after"):
            got = cell_instant(cell)
            if lit_instant is None or got is None:
                return False
            return got < lit_instant if op == "before" else got > lit_instant
        cmp = compare(cell)
        if op in ("=", "!="):
            eq = cmp == 0 if cmp is not None else cell.render() == lit_text
            return eq if op == "=" else not eq
        if cmp is None:
            if not (lit_is_text and cell.kind is CellKind.TEXT):
                return False
            text = cell.value
            cmp = (text > lit_text) - (text < lit_text)
        return {"<": cmp < 0, "<=": cmp <= 0, ">": cmp > 0, ">=": cmp >= 0}[op]

    verdicts: dict[str, bool] = {}

    def test(row: tuple[Cell, ...]) -> bool:
        cell = row[j]
        if cell.kind is not CellKind.TEXT:
            return verdict(cell)
        seen = verdicts.get(cell.value)
        if seen is None:
            seen = verdicts[cell.value] = verdict(cell)
        return seen

    return test


def _validate_query(q: QuerySpec, table: Table) -> None:
    for name in q.select:
        table.column_index(name)
    for f in q.filters:
        table.column_index(f.column)
        if f.op in ("before", "after") and cell_instant(f.value) is None:
            raise TypeMismatchError(f.column, f.op)
    if q.group_by is not None:
        table.column_index(q.group_by)
    if q.aggregate is not None and q.aggregate.column is not None:
        table.column_index(q.aggregate.column)
    if q.order is not None and q.order.by is not None:
        table.column_index(q.order.by)


def _order_domain(values: Sequence[Cell]):
    """Sort keys for min/max-style ordering; None where a value is outside
    the domain (mixed content falls back to rendered text)."""
    numbers = [cell_number(v) for v in values]
    if values and all(n is not None for n in numbers):
        return numbers
    if values and all(v.kind is CellKind.DATE for v in values):
        return [v.value for v in values]
    return [v.render() for v in values]


def _extreme_cell(values: Sequence[Cell], biggest: bool) -> Cell:
    numbers = [cell_number(v) for v in values]
    usable = [n for n in numbers if n is not None]
    if usable:
        return Cell.number(max(usable) if biggest else min(usable))
    if all(v.kind is CellKind.DATE for v in values):
        instants = [v.value for v in values]
        return Cell.date(max(instants) if biggest else min(instants))
    renders = [v.render() for v in values]
    return Cell.text(max(renders) if biggest else min(renders))


def _aggregate_cell(agg: Aggregate, rows: Sequence[tuple[Cell, ...]], table: Table) -> Cell:
    if agg.fn == "count" and agg.column is None:
        return Cell.number(len(rows))
    j = table.column_index(agg.column)
    values = [row[j] for row in rows if not row[j].is_missing]
    if agg.fn == "count":
        return Cell.number(len(values))
    if agg.fn == "count_distinct":
        return Cell.number(len({v.render() for v in values}))
    if not values:
        return Cell.missing()
    if agg.fn in ("min", "max"):
        return _extreme_cell(values, biggest=agg.fn == "max")
    numbers = [n for n in (cell_number(v) for v in values) if n is not None]
    if not numbers:
        return Cell.missing()
    total = sum(numbers, Decimal(0))
    if agg.fn == "sum":
        return Cell.number(total)
    return Cell.number(total / Decimal(len(numbers)))


def _argmax_rows(
    agg: Aggregate, rows: Sequence[tuple[Cell, ...]], table: Table
) -> list[tuple[Cell, ...]]:
    j = table.column_index(agg.column)
    candidates = [row for row in rows if not row[j].is_missing]
    if not candidates:
        return []
    keys = _order_domain([row[j] for row in candidates])
    pairs = [(k, row) for k, row in zip(keys, candidates) if k is not None]
    if not pairs:
        return []
    extreme = max(p[0] for p in pairs) if agg.fn == "argmax_by" else min(p[0] for p in pairs)
    return [row for k, row in pairs if k == extreme]


def _project(
    q: QuerySpec, rows: Sequence[tuple[Cell, ...]], table: Table
) -> Answer:
    indices = [table.column_index(name) for name in q.select]
    projected = [tuple(row[j] for j in indices) for row in rows]
    if q.distinct:
        seen = set()
        unique = []
        for row in projected:
            key = tuple(c.render() for c in row)
            if key not in seen:
                seen.add(key)
                unique.append(row)
        projected = unique
    if q.order is not None:
        if q.order.by is None:
            projected.sort(key=lambda r: tuple(c.render() for c in r))
        else:
            k = q.select.index(q.order.by)
            projected.sort(key=lambda r: r[k].render())
        if q.order.descending:
            projected.reverse()
    if q.limit is not None:
        projected = projected[: q.limit]
    if len(q.select) == 1:
        return Answer.value_list([row[0] for row in projected])
    return Answer.of_records(
        [dict(zip(q.select, row)) for row in projected]
    )


def execute_purpose(query: QuerySpec, table: Table) -> Answer:
    """Compute a purpose's answer from a table. Pure and deterministic."""
    _validate_query(query, table)
    tests = [_row_test(f, table) for f in query.filters]
    rows = [row for row in table.rows if all(test(row) for test in tests)]
    agg = query.aggregate
    if agg is not None and agg.fn in ("argmax_by", "argmin_by"):
        winners = _argmax_rows(agg, rows, table)
        j = table.column_index(query.select[0])
        seen: dict[str, Cell] = {}
        for row in winners:
            cell = row[j]
            seen.setdefault(cell.render(), cell)
        cells = [seen[k] for k in sorted(seen)]
        if len(cells) == 1:
            return Answer.scalar(cells[0])
        return Answer.value_list(cells)
    if agg is not None and query.group_by is not None:
        gj = table.column_index(query.group_by)
        groups: dict[str, list[tuple[Cell, ...]]] = {}
        for row in rows:
            if row[gj].is_missing:
                continue
            groups.setdefault(row[gj].render(), []).append(row)
        records = [
            {query.group_by: Cell.text(key), "value": _aggregate_cell(agg, groups[key], table)}
            for key in sorted(groups)
        ]
        return Answer.of_records(records)
    if agg is not None:
        return Answer.scalar(_aggregate_cell(agg, rows, table))
    return _project(query, rows, table)


# ---------------------------------------------------------------------------
# canonical text

def answer_to_canonical_text(answer: Answer) -> str:
    """Render an answer to one comparable string.

    Scalars render directly; value lists render sorted lexicographically and
    joined with ", "; records render as canonical JSON with sorted keys.
    """
    if answer.kind is AnswerKind.SCALAR:
        return answer.value.render()
    if answer.kind is AnswerKind.VALUE_LIST:
        return ", ".join(sorted(cell.render() for cell in answer.values))
    rendered = [
        {key: cell.render() for key, cell in record.items()} for record in answer.records
    ]
    rendered.sort(key=lambda r: json.dumps(r, sort_keys=True, ensure_ascii=False))
    return json.dumps(rendered, sort_keys=True, ensure_ascii=False)


def answers_equal(a: Answer, b: Answer) -> bool:
    return answer_to_canonical_text(a) == answer_to_canonical_text(b)


# ---------------------------------------------------------------------------
# JSON forms (used inside benchmark manifests)

def _number_cell(d: Decimal, path: str) -> Cell:
    # Cells render without exponent notation, so the exponent is bounded:
    # {"number": "1e5000000"} would render as a 5 MB string.
    if not d.is_finite() or abs(d.adjusted()) > 1000:
        raise SchemaError(path, "number must be finite with an exponent within ±1000")
    return Cell.number(d)


def _cell_from_json(raw: Any, path: str) -> Cell:
    if raw is None:
        return Cell.missing()
    if isinstance(raw, bool):
        raise SchemaError(path, "booleans are not cell values")
    if isinstance(raw, str):
        return Cell.text(raw)
    if isinstance(raw, (int, Decimal)):
        return _number_cell(Decimal(raw), path)
    if isinstance(raw, float):
        return _number_cell(Decimal(str(raw)), path)
    if isinstance(raw, dict) and isinstance(raw.get("date"), str):
        dt = parse_date(raw["date"])
        if dt is None:
            raise SchemaError(path, f"unparseable date {raw['date']!r}")
        return Cell.date(dt)
    if isinstance(raw, dict) and isinstance(raw.get("number"), str):
        try:
            number = Decimal(raw["number"])
        except ArithmeticError:
            raise SchemaError(path, f"unparseable number {raw['number']!r}") from None
        return _number_cell(number, path)
    raise SchemaError(path, f"not a cell value: {raw!r}")


def _cell_to_json(cell: Cell) -> Any:
    if cell.kind is CellKind.MISSING:
        return None
    if cell.kind is CellKind.NUMBER:
        d = cell.value
        if d == d.to_integral_value():
            return int(d)
        return {"number": format_number(d)}
    if cell.kind is CellKind.DATE:
        return {"date": cell.render()}
    return cell.value


def query_from_json(raw: Any, path: str = "query") -> QuerySpec:
    if not isinstance(raw, dict):
        raise SchemaError(path, "must be an object")
    select = raw.get("select", [])
    if not isinstance(select, list) or not all(isinstance(s, str) for s in select):
        raise SchemaError(f"{path}.select", "must be a list of column names")
    raw_filters = raw.get("filters", [])
    if not isinstance(raw_filters, list):
        raise SchemaError(f"{path}.filters", "must be a list")
    filters = []
    for i, f in enumerate(raw_filters):
        fp = f"{path}.filters[{i}]"
        if not isinstance(f, dict) or not isinstance(f.get("column"), str):
            raise SchemaError(fp, "must be {'column', 'op', 'value'}")
        if f.get("op") not in COMPARATORS:
            raise SchemaError(fp, f"unknown comparator {f.get('op')!r}")
        filters.append(Filter(f["column"], f["op"], _cell_from_json(f.get("value"), fp)))
    aggregate = None
    if raw.get("aggregate") is not None:
        a = raw["aggregate"]
        if not isinstance(a, dict) or a.get("fn") not in AGGREGATE_FNS:
            raise SchemaError(f"{path}.aggregate", "must be {'fn', 'column'} with a known fn")
        if not isinstance(a.get("column"), (str, type(None))):
            raise SchemaError(f"{path}.aggregate", "'column' must be a column name or null")
        try:
            aggregate = Aggregate(a["fn"], a.get("column"))
        except ValueError as exc:
            raise SchemaError(f"{path}.aggregate", str(exc)) from None
    order = None
    if raw.get("order") is not None:
        o = raw["order"]
        if not isinstance(o, dict):
            raise SchemaError(f"{path}.order", "must be an object")
        if not isinstance(o.get("by"), (str, type(None))):
            raise SchemaError(f"{path}.order", "'by' must be a column name or null")
        if not isinstance(o.get("descending", False), bool):
            raise SchemaError(f"{path}.order.descending", "must be true or false")
        order = Order(o.get("by"), o.get("descending", False))
    group_by = raw.get("group_by")
    if group_by is not None and not isinstance(group_by, str):
        raise SchemaError(f"{path}.group_by", "must be a column name or null")
    if not isinstance(raw.get("distinct", False), bool):
        raise SchemaError(f"{path}.distinct", "must be true or false")
    try:
        return QuerySpec(
            select=tuple(select),
            filters=tuple(filters),
            group_by=group_by,
            aggregate=aggregate,
            distinct=raw.get("distinct", False),
            order=order,
            limit=raw.get("limit"),
        )
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def query_to_json(q: QuerySpec) -> dict:
    doc: dict[str, Any] = {"select": list(q.select)}
    if q.filters:
        doc["filters"] = [
            {"column": f.column, "op": f.op, "value": _cell_to_json(f.value)}
            for f in q.filters
        ]
    if q.group_by is not None:
        doc["group_by"] = q.group_by
    if q.aggregate is not None:
        doc["aggregate"] = {"fn": q.aggregate.fn, "column": q.aggregate.column}
    if q.distinct:
        doc["distinct"] = True
    if q.order is not None:
        doc["order"] = {"by": q.order.by, "descending": q.order.descending}
    if q.limit is not None:
        doc["limit"] = q.limit
    return doc


def answer_from_json(raw: Any, path: str = "answer") -> Answer:
    if not isinstance(raw, dict) or "type" not in raw:
        raise SchemaError(path, "must be an object with a 'type'")
    kind = raw["type"]
    if kind == "scalar":
        return Answer.scalar(_cell_from_json(raw.get("value"), f"{path}.value"))
    if kind == "list":
        values = raw.get("values")
        if not isinstance(values, list):
            raise SchemaError(f"{path}.values", "must be a list")
        return Answer.value_list(
            [_cell_from_json(v, f"{path}.values[{i}]") for i, v in enumerate(values)]
        )
    if kind == "records":
        records = raw.get("records")
        if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
            raise SchemaError(f"{path}.records", "must be a list of objects")
        return Answer.of_records(
            [
                {k: _cell_from_json(v, f"{path}.records[{i}].{k}") for k, v in r.items()}
                for i, r in enumerate(records)
            ]
        )
    raise SchemaError(f"{path}.type", f"unknown answer type {kind!r}")


def answer_to_json(answer: Answer) -> dict:
    if answer.kind is AnswerKind.SCALAR:
        return {"type": "scalar", "value": _cell_to_json(answer.value)}
    if answer.kind is AnswerKind.VALUE_LIST:
        return {"type": "list", "values": [_cell_to_json(c) for c in answer.values]}
    return {
        "type": "records",
        "records": [{k: _cell_to_json(c) for k, c in r.items()} for r in answer.records],
    }


def purpose_from_json(raw: Any, path: str = "purpose") -> Purpose:
    if not isinstance(raw, dict):
        raise SchemaError(path, "must be an object")
    for key in ("id", "statement", "category"):
        if not isinstance(raw.get(key), str):
            raise SchemaError(f"{path}.{key}", "must be a string")
    try:
        category = PurposeCategory(raw["category"])
    except ValueError:
        raise SchemaError(f"{path}.category", f"unknown category {raw['category']!r}") from None
    targets = raw.get("target_columns")
    if not isinstance(targets, list) or not all(isinstance(t, str) for t in targets):
        raise SchemaError(f"{path}.target_columns", "must be a list of column names")
    return Purpose(
        id=raw["id"],
        statement=raw["statement"],
        category=category,
        target_columns_gold=tuple(targets),
        query=query_from_json(raw.get("query"), f"{path}.query"),
        gold_answer=answer_from_json(raw.get("gold_answer"), f"{path}.gold_answer"),
    )

