"""``execute_purpose`` against SQLite on the queries both can express.

Tables hold two kinds of column: all numbers (integers, stored either as
number cells or as their text) and all non-numeric, non-date text (letters
only). Missing cells are SQL ``NULL``. Each generated query is translated
to SQL and run by the standard library's ``sqlite3``; the answers must
render to the same rows. SQLite's NULL rules match dcflow's: a ``NULL``
fails every comparison, aggregates skip it, and it sorts first ascending
(https://www.sqlite.org/nulls.html). ``group_by`` needs
``WHERE key IS NOT NULL``, because dcflow drops rows without a key.
``mean`` is compared as ``Decimal`` within a tolerance, since SQLite's
``AVG`` is a float.
"""

from __future__ import annotations

import sqlite3
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from dcflow import Cell, CellKind, Table, execute_purpose
from dcflow.query import Aggregate, AnswerKind, Filter, Order, QuerySpec

NUMBER_COLUMNS = ("id", "n", "m")
TEXT_COLUMNS = ("name", "s", "u")
COLUMNS = ("id", "name", "n", "m", "s", "u")
UNIQUE_KEYS = ("id", "name")  # present in every row, never repeated

# Small pools, so that rows repeat values, groups collide and filters keep
# rows; as text, "10" < "9" and "-1" < "-2". Letters never read as numbers
# or dates.
words = st.sampled_from(("a", "b", "A", "B", "ab", "bA"))
small_ints = st.sampled_from((-2, -1, 0, 1, 2, 9, 10))


@st.composite
def tables(draw):
    """Rows of plain values, and the same rows as a dcflow ``Table``."""
    size = draw(st.integers(0, 12))
    ids = draw(st.lists(st.integers(-40, 40), unique=True, min_size=size, max_size=size))
    names = draw(st.lists(st.text("abAB", min_size=1, max_size=3), unique=True,
                          min_size=size, max_size=size))
    maybe_int, maybe_word = st.none() | small_ints | small_ints, st.none() | words | words
    rows = [
        (ids[i], names[i], *draw(st.tuples(maybe_int, maybe_int, maybe_word, maybe_word)))
        for i in range(size)
    ]

    def cell(value) -> Cell:
        if value is None:
            return Cell.missing()
        if isinstance(value, str):
            return Cell.text(value)
        return Cell.number(value) if draw(st.booleans()) else Cell.text(str(value))

    return rows, Table.from_rows(COLUMNS, [[cell(v) for v in row] for row in rows])


filters = st.one_of(
    st.builds(
        Filter, st.sampled_from(NUMBER_COLUMNS), st.sampled_from(("=", "!=", "<", ">")),
        small_ints.map(Cell.number),
    ),
    st.builds(
        Filter, st.sampled_from(TEXT_COLUMNS), st.sampled_from(("=", "!=", "<", ">", "contains")),
        words.map(Cell.text),
    ),
)

aggregates = st.one_of(
    st.just(Aggregate("count")),
    st.builds(Aggregate, st.sampled_from(("count", "count_distinct", "min", "max")),
              st.sampled_from(COLUMNS)),
    st.builds(Aggregate, st.sampled_from(("sum", "mean")), st.sampled_from(NUMBER_COLUMNS)),
)


@st.composite
def queries(draw):
    # One filter at most keeps most answers non-empty; test_query.py checks
    # conjunctions against its per-row oracle.
    where = tuple(draw(st.lists(filters, max_size=1)))
    shape = draw(st.sampled_from(("project", "order", "scalar", "group")))
    if shape == "scalar":
        return QuerySpec(filters=where, aggregate=draw(aggregates))
    if shape == "group":
        return QuerySpec(
            filters=where, group_by=draw(st.sampled_from(COLUMNS)), aggregate=draw(aggregates)
        )
    select = draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True))
    order = limit = None
    if shape == "order":
        # A unique key among the sorted columns fixes SQL's order of ties.
        key = draw(st.sampled_from(UNIQUE_KEYS))
        if key not in select:
            select.append(key)
        order = Order(draw(st.sampled_from((key, None))), draw(st.booleans()))
        limit = draw(st.none() | st.integers(0, 5))
    return QuerySpec(
        select=tuple(select), filters=where, distinct=draw(st.booleans()),
        order=order, limit=limit,
    )


SQL_AGGREGATES = {"count": "COUNT", "min": "MIN", "max": "MAX", "sum": "SUM", "mean": "AVG"}


def to_sql(q: QuerySpec) -> tuple[str, list]:
    """``q`` as one SQLite statement over table ``t``, and its parameters."""
    where, params = ["1"], []
    for f in q.filters:
        text = f.value.kind is CellKind.TEXT
        params.append(f.value.value if text else int(f.value.value))
        if f.op == "contains":
            where.append(f'instr("{f.column}", ?) > 0')
        else:
            where.append(f'"{f.column}" {f.op} ?')
    agg = q.aggregate
    if agg is None:
        columns = ", ".join(f'"{c}"' for c in q.select)
        sql = f"SELECT {'DISTINCT ' * q.distinct}{columns} FROM t WHERE {' AND '.join(where)}"
        if q.order is not None:
            direction = " DESC" if q.order.descending else ""
            by = [q.order.by] if q.order.by is not None else q.select
            sql += " ORDER BY " + ", ".join(f'"{c}"{direction}' for c in by)
        if q.limit is not None:
            sql += f" LIMIT {q.limit}"
        return sql, params
    if agg.column is None:
        value = "COUNT(*)"
    elif agg.fn == "count_distinct":
        value = f'COUNT(DISTINCT "{agg.column}")'
    else:
        value = f'{SQL_AGGREGATES[agg.fn]}("{agg.column}")'
    if q.group_by is None:
        return f"SELECT {value} FROM t WHERE {' AND '.join(where)}", params
    where.append(f'"{q.group_by}" IS NOT NULL')
    sql = f'SELECT "{q.group_by}", {value} FROM t WHERE {" AND ".join(where)}'
    return sql + f' GROUP BY "{q.group_by}"', params


def sql_rows(db: sqlite3.Connection, q: QuerySpec) -> list[tuple[str, ...]]:
    return [tuple("" if v is None else repr(v) if isinstance(v, float) else str(v) for v in row)
            for row in db.execute(*to_sql(q))]


def dcflow_rows(answer, q: QuerySpec) -> list[tuple[str, ...]]:
    if answer.kind is AnswerKind.SCALAR:
        return [(answer.value.render(),)]
    if answer.kind is AnswerKind.VALUE_LIST:
        return [(c.render(),) for c in answer.values]
    keys = q.select if q.aggregate is None else (q.group_by, "value")
    return [tuple(r[k].render() for k in keys) for r in answer.records]


def close(a: str, b: str) -> bool:
    if "" in (a, b):
        return a == b
    x, y = Decimal(a), Decimal(b)
    return abs(x - y) <= Decimal("1e-9") * max(1, abs(y))


@settings(max_examples=150, deadline=None)
@given(table=tables(), qs=st.lists(queries(), min_size=1, max_size=4))
def test_answers_match_sqlite(table, qs):
    rows, t = table
    db = sqlite3.connect(":memory:")
    try:
        db.execute("CREATE TABLE t (id INTEGER, name TEXT, n INTEGER, m INTEGER, s TEXT, u TEXT)")
        db.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", rows)
        for q in qs:
            check(q, dcflow_rows(execute_purpose(q, t), q), sql_rows(db, q))
    finally:
        db.close()


def check(q: QuerySpec, got: list, want: list) -> None:
    if q.order is None:  # only the multiset is defined, as in canonical text
        got, want = sorted(got), sorted(want)
    assert len(got) == len(want), (q, got, want)
    for g, w in zip(got, want):
        if q.aggregate is not None and q.aggregate.fn == "mean":
            assert g[:-1] == w[:-1] and close(g[-1], w[-1]), (q, got, want)
        else:
            assert g == w, (q, got, want)
