"""Executable analysis purposes: a small declarative query engine.

Each benchmark purpose carries a QuerySpec so that its answer can be
computed deterministically from any table, with no model in the loop.
Semantics, in brief:

- A query projects (``select``, no aggregate) or aggregates, and every
  field has an effect: ``group_by`` needs an aggregate; ``distinct``,
  ``order`` and ``limit`` need a projection; ``select`` combines only with
  ``argmax_by``/``argmin_by``, which take one select column and no
  ``group_by``. ``QuerySpec`` rejects anything else.
- Filters AND together. Missing cells fail every filter. Equality and
  ordering coerce text through the numeric grammar where possible (and
  through the date formats for ``before``/``after``); rows whose cells
  cannot be compared under the comparator are excluded.
- A projection yields a value list (one select column) or records.
  ``distinct`` keeps the first row of each rendering, ``order`` sorts by
  ``order.by`` (a select column) or, when ``by`` is null, by each select
  column in turn, and ``limit`` keeps the first rows.
- Aggregates skip missing cells. ``group_by`` yields records of the form
  ``{<group column>: key, "value": aggregate}``, one per present key.
  ``argmax_by``/``argmin_by`` return the select column's value(s) at the
  extreme of the aggregate column: a scalar when one distinct value
  remains, else a value list.
- Two ordering rules. ``min``/``max`` prefer numbers value by value
  (non-coercible values are ignored), then date instants, then rendered
  text. Every sort (``order``, group records, argmax/argmin and their value
  lists) picks one domain for the whole column: numbers if every present
  value coerces, instants if every present cell is a date, else rendered
  text. Missing cells sort first; ties keep table order either way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from typing import Any, Callable, Mapping, Optional, Sequence

from .cells import MISSING, Cell, CellKind, cell_instant, cell_number, format_number, parse_date
from .errors import SchemaError, TypeMismatchError
from .jsonread import boolean, choice, dict_of, integer, list_of, nullable, obj, string
from .table import Table


class PurposeCategory(Enum):
    DESCRIPTIVE_STATISTICS = "DescriptiveStatistics"
    COUNTING_GROUPING = "CountingGrouping"
    CLASSIFICATION = "Classification"
    TIME_BASED = "TimeBased"
    CORRELATION = "Correlation"
    FILTERING = "Filtering"


COMPARATORS = ("=", "!=", "<", "<=", ">", ">=", "contains", "before", "after")
AGGREGATE_FNS = ("count", "count_distinct", "min", "max", "sum", "mean", "argmax_by", "argmin_by")


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
    by: Optional[str] = None  # None sorts by every select column in turn
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
        """Rejects each field execution would ignore; the table is checked later."""
        agg = self.aggregate
        if agg is None:
            if not self.select:
                raise ValueError("a query needs a select column or an aggregate")
            if self.group_by is not None:
                raise ValueError("group_by requires an aggregate")
            if self.order is not None and self.order.by not in (None, *self.select):
                raise ValueError(f"order.by {self.order.by!r} is not a select column")
        elif self.distinct or self.order is not None or self.limit is not None:
            name = "distinct" if self.distinct else "order" if self.order is not None else "limit"
            raise ValueError(f"{name} does not combine with an aggregate")
        elif agg.fn in ("argmax_by", "argmin_by"):
            if self.group_by is not None:
                raise ValueError(f"{agg.fn} does not combine with group_by")
            if not self.select:
                raise ValueError(f"{agg.fn} requires a select column")
            if len(self.select) > 1:
                raise ValueError(f"{agg.fn} takes one select column, not {len(self.select)}")
        elif self.select:
            raise ValueError(f"select does not combine with {agg.fn}")
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

def _cell_test(f: Filter) -> Callable[[Cell], bool]:
    """The test ``f`` applies to each cell of its column.

    The literal's number, instant and rendering are computed once. A cell
    is coerced only into a domain the literal has, and a text cell's
    verdict is computed once per distinct value.
    """
    op = f.op
    lit_text = f.value.render()
    lit_number = cell_number(f.value)
    lit_instant = cell_instant(f.value)
    lit_is_text = f.value.kind is CellKind.TEXT

    def compare(cell: Cell) -> Optional[int]:
        """``cell`` against the literal in the first domain both coerce to."""
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
        if op in ("before", "after"):  # the literal is an instant (_validate_query)
            got = cell_instant(cell)
            return got is not None and (got < lit_instant if op == "before" else got > lit_instant)
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

    def test(cell: Cell) -> bool:
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
    for name in (q.group_by, q.aggregate and q.aggregate.column):
        if name is not None:
            table.column_index(name)


def _order_keys(cells: Sequence[Cell]) -> list[tuple]:
    """Sort keys in one domain for the whole column, chosen from its present
    cells: numbers if every one coerces, instants if every one is a date,
    rendered text otherwise. Missing cells sort first."""
    numbers = [cell_number(c) for c in cells]
    present = [(c, n) for c, n in zip(cells, numbers) if not c.is_missing]
    if all(n is not None for _, n in present):
        values = numbers
    elif all(c.kind is CellKind.DATE for c, _ in present):
        values = [c.value for c in cells]
    else:
        values = [c.render() for c in cells]
    return [(0,) if c.is_missing else (1, v) for c, v in zip(cells, values)]


def _sorted(items: Sequence, keys: Sequence, descending: bool = False) -> list:
    """``items`` in the order of ``keys``; ties keep their order either way."""
    order = sorted(range(len(items)), key=keys.__getitem__, reverse=descending)
    return [items[i] for i in order]


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


def _aggregate_cell(agg: Aggregate, cells: Sequence[Cell]) -> Cell:
    """``agg`` over the kept cells of its column; for ``count`` with no
    column, one cell per kept row."""
    values = [c for c in cells if not c.is_missing]
    if agg.fn == "count":
        return Cell.number(len(values if agg.column is not None else cells))
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


def _first_of_each(items: Sequence, key: Callable) -> list:
    """The first item of each distinct ``key``, in their order."""
    firsts: dict = {}
    for item in items:
        firsts.setdefault(key(item), item)
    return list(firsts.values())


def _arg_extreme(fn: str, by: Sequence[Cell], picked: Sequence[Cell]) -> Answer:
    """The distinct ``picked`` cells of the rows where ``by`` is extreme."""
    present = [i for i, c in enumerate(by) if not c.is_missing]
    keys = _order_keys([by[i] for i in present])
    extreme = (max if fn == "argmax_by" else min)(keys, default=None)
    cells = _first_of_each([picked[i] for k, i in zip(keys, present) if k == extreme], Cell.render)
    cells = _sorted(cells, _order_keys(cells))
    return Answer.scalar(cells[0]) if len(cells) == 1 else Answer.value_list(cells)


def _project(q: QuerySpec, columns: Sequence[Sequence[Cell]]) -> Answer:
    rows = list(zip(*columns))
    if q.distinct:
        rows = _first_of_each(rows, lambda row: tuple(c.render() for c in row))
    if q.order is not None:
        picked = [q.select.index(q.order.by)] if q.order.by is not None else range(len(q.select))
        keys = list(zip(*(_order_keys([row[j] for row in rows]) for j in picked)))
        rows = _sorted(rows, keys, q.order.descending)
    rows = rows[: q.limit]
    if len(q.select) == 1:
        return Answer.value_list([row[0] for row in rows])
    return Answer.of_records([dict(zip(q.select, row)) for row in rows])


def execute_purpose(query: QuerySpec, table: Table) -> Answer:
    """Compute a purpose's answer from a table. Pure and deterministic."""
    _validate_query(query, table)
    kept: Sequence[int] = range(table.n_rows)
    for f in query.filters:
        test, column = _cell_test(f), table.column_values(f.column)
        kept = [i for i in kept if test(column[i])]

    def cells(name: Optional[str], rows: Sequence[int] = kept) -> list[Cell]:
        if name is None:  # ``count`` of rows: one stand-in cell per row
            return [MISSING] * len(rows)
        column = table.column_values(name)
        return [column[i] for i in rows]

    agg = query.aggregate
    if agg is None:
        return _project(query, [cells(name) for name in query.select])
    if agg.fn in ("argmax_by", "argmin_by"):
        return _arg_extreme(agg.fn, cells(agg.column), cells(query.select[0]))
    if query.group_by is None:
        return Answer.scalar(_aggregate_cell(agg, cells(agg.column)))
    groups: dict[str, list[int]] = {}
    for i, key in zip(kept, cells(query.group_by)):
        if not key.is_missing:
            groups.setdefault(key.render(), []).append(i)
    firsts = [table.column_values(query.group_by)[rows[0]] for rows in groups.values()]
    return Answer.of_records([
        {query.group_by: Cell.text(key), "value": _aggregate_cell(agg, cells(agg.column, rows))}
        for key, rows in _sorted(list(groups.items()), _order_keys(firsts))
    ])


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
    rendered = [{key: cell.render() for key, cell in r.items()} for r in answer.records]
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
    if isinstance(raw, str):
        return Cell.text(raw)
    if type(raw) in (int, float, Decimal):  # a float through its shortest repr
        return _number_cell(Decimal(str(raw) if type(raw) is float else raw), path)
    if isinstance(raw, dict) and "date" in raw:
        text = obj(raw, path, date=string)["date"]
        dt = parse_date(text)
        if dt is None:
            raise SchemaError(path, f"unparseable date {text!r}")
        return Cell.date(dt)
    if isinstance(raw, dict):
        text = obj(raw, path, number=string)["number"]
        try:
            number = Decimal(text)
        except ArithmeticError:
            raise SchemaError(path, f"unparseable number {text!r}") from None
        return _number_cell(number, path)
    raise SchemaError(path, f"not a cell value: {raw!r}")


def _cell_to_json(cell: Cell) -> Any:
    if cell.kind is CellKind.MISSING:
        return None
    if cell.kind is CellKind.NUMBER:
        d = cell.value
        return int(d) if d == d.to_integral_value() else {"number": format_number(d)}
    if cell.kind is CellKind.DATE:
        return {"date": cell.render()}
    return cell.value


def _filter_from_json(raw: Any, path: str) -> Filter:
    return Filter(
        **obj(raw, path, column=string, op=choice(COMPARATORS), value=(_cell_from_json, None))
    )


def _aggregate_from_json(raw: Any, path: str) -> Aggregate:
    fields = obj(raw, path, fn=choice(AGGREGATE_FNS), column=(nullable(string), None))
    try:
        return Aggregate(**fields)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def _order_from_json(raw: Any, path: str) -> Order:
    return Order(**obj(raw, path, by=(nullable(string), None), descending=(boolean, False)))


def query_from_json(raw: Any, path: str = "query") -> QuerySpec:
    fields = obj(
        raw, path,
        select=(list_of(string), []),
        filters=(list_of(_filter_from_json), []),
        group_by=(nullable(string), None),
        aggregate=(nullable(_aggregate_from_json), None),
        distinct=(boolean, False),
        order=(nullable(_order_from_json), None),
        limit=(nullable(integer), None),
    )
    try:
        return QuerySpec(**fields)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def query_to_json(q: QuerySpec) -> dict:
    """The JSON form of ``q``; fields at their default are left out."""
    agg, order = q.aggregate, q.order
    doc = {
        "select": list(q.select),
        "filters": [{"column": f.column, "op": f.op, "value": _cell_to_json(f.value)}
                    for f in q.filters],
        "group_by": q.group_by,
        "aggregate": agg and {"fn": agg.fn, "column": agg.column},
        "distinct": q.distinct,
        "order": order and {"by": order.by, "descending": order.descending},
        "limit": q.limit,
    }
    return {k: v for k, v in doc.items()
            if k == "select" or (v is not None and v is not False and v != [])}


def answer_from_json(raw: Any, path: str = "answer") -> Answer:
    if not isinstance(raw, dict):
        raise SchemaError(path, "must be an object")
    kind = choice(AnswerKind)(raw.get("type"), f"{path}.type")
    if kind is AnswerKind.SCALAR:
        return Answer.scalar(obj(raw, path, type=string, value=(_cell_from_json, None))["value"])
    if kind is AnswerKind.VALUE_LIST:
        values = obj(raw, path, type=string, values=list_of(_cell_from_json))["values"]
        return Answer.value_list(values)
    records = obj(raw, path, type=string, records=list_of(dict_of(string, _cell_from_json)))
    return Answer.of_records(records["records"])


def answer_to_json(answer: Answer) -> dict:
    if answer.kind is AnswerKind.SCALAR:
        return {"type": "scalar", "value": _cell_to_json(answer.value)}
    if answer.kind is AnswerKind.VALUE_LIST:
        return {"type": "list", "values": [_cell_to_json(c) for c in answer.values]}
    records = [{k: _cell_to_json(c) for k, c in r.items()} for r in answer.records]
    return {"type": "records", "records": records}


def purpose_from_json(raw: Any, path: str = "purpose") -> Purpose:
    fields = obj(
        raw, path, id=string, statement=string, category=choice(PurposeCategory),
        target_columns=list_of(string), query=query_from_json, gold_answer=answer_from_json,
    )
    fields["target_columns_gold"] = fields.pop("target_columns")
    return Purpose(**fields)
