import json
import random
from datetime import datetime, timezone
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcflow import Cell, Table, answer_to_canonical_text, answers_equal, execute_purpose
from dcflow.cells import CellKind, parse_date
from dcflow.errors import SchemaError, TypeMismatchError, UnknownColumnError
from dcflow.query import (
    COMPARATORS,
    Aggregate,
    Answer,
    AnswerKind,
    Filter,
    Order,
    QuerySpec,
    answer_from_json,
    answer_to_json,
    query_from_json,
    query_to_json,
)

from oracles import filter_rows_oracle


def fig2_cleaned_table():
    rows = [
        ("RESTAURANT", "Risk 1 (High)"),
        ("SCHOOL", "Risk 1 (High)"),
        ("SCHOOL", "Risk 1 (High)"),
        ("GROCERY STORE", "Risk 1 (High)"),
        ("RESTAURANT", "Risk 2 (Medium)"),
    ]
    return Table.from_rows(
        ["Facility Type", "Risk"],
        [[Cell.text(a), Cell.text(b)] for a, b in rows],
    )


def test_count_distinct_city_excludes_missing(quality_demo_table):
    q = QuerySpec(aggregate=Aggregate("count_distinct", "City"))
    answer = execute_purpose(q, quality_demo_table)
    assert answer.kind is AnswerKind.SCALAR
    assert answer.value.value == Decimal(4)


def test_fig2_distinct_facility_types():
    q = QuerySpec(
        select=("Facility Type",),
        filters=(Filter("Risk", "=", Cell.text("Risk 1 (High)")),),
        distinct=True,
    )
    answer = execute_purpose(q, fig2_cleaned_table())
    assert answer_to_canonical_text(answer) == "GROCERY STORE, RESTAURANT, SCHOOL"


def test_filter_on_empty_table():
    t = Table.from_rows(["a"], [])
    q = QuerySpec(select=("a",), filters=(Filter("a", "=", Cell.text("x")),))
    answer = execute_purpose(q, t)
    assert answer.kind is AnswerKind.VALUE_LIST
    assert answer.values == ()


def test_missing_fails_all_filters(quality_demo_table):
    q = QuerySpec(select=("City",), filters=(Filter("Zip", "!=", Cell.text("96814")),))
    answer = execute_purpose(q, quality_demo_table)
    # rows with missing Zip are excluded even under !=
    assert [c.render() for c in answer.values] == ["Urbana", "Champaign"]


def test_numeric_coercion_in_filters():
    t = Table.from_rows(
        ["n"], [[Cell.text("1,000")], [Cell.text("999")], [Cell.text("abc")]]
    )
    q = QuerySpec(select=("n",), filters=(Filter("n", ">=", Cell.number(1000)),))
    answer = execute_purpose(q, t)
    assert [c.render() for c in answer.values] == ["1,000"]


def test_contains_filter():
    t = Table.from_rows(["a"], [[Cell.text("x1")], [Cell.text("y2")]])
    q = QuerySpec(select=("a",), filters=(Filter("a", "contains", Cell.text("x")),))
    assert [c.render() for c in execute_purpose(q, t).values] == ["x1"]


def test_before_after_date_filters():
    t = Table.from_rows(
        ["d"], [[Cell.text("2023-01-05")], [Cell.text("2023-06-01")], [Cell.text("junk")]]
    )
    after = QuerySpec(select=("d",), filters=(Filter("d", "after", Cell.text("2023-02-01")),))
    assert [c.render() for c in execute_purpose(after, t).values] == ["2023-06-01"]
    before = QuerySpec(select=("d",), filters=(Filter("d", "before", Cell.text("2023-02-01")),))
    assert [c.render() for c in execute_purpose(before, t).values] == ["2023-01-05"]


def test_before_with_bad_literal_raises():
    t = Table.from_rows(["d"], [[Cell.text("2023-01-05")]])
    q = QuerySpec(select=("d",), filters=(Filter("d", "before", Cell.text("not a date")),))
    with pytest.raises(TypeMismatchError):
        execute_purpose(q, t)


def test_unknown_column_raises():
    t = Table.from_rows(["a"], [[Cell.text("x")]])
    with pytest.raises(UnknownColumnError):
        execute_purpose(QuerySpec(select=("nope",)), t)


def test_group_by_aggregate_records():
    t = Table.from_rows(
        ["zip", "amount"],
        [
            [Cell.text("61801"), Cell.text("30,000")],
            [Cell.text("60614"), Cell.text("120")],
            [Cell.text("61801"), Cell.text("26000.")],
        ],
    )
    q = QuerySpec(group_by="zip", aggregate=Aggregate("max", "amount"))
    answer = execute_purpose(q, t)
    assert answer.kind is AnswerKind.RECORDS
    assert [
        (r["zip"].render(), r["value"].render()) for r in answer.records
    ] == [("60614", "120"), ("61801", "30000")]


def test_sum_and_mean_skip_uncoercible():
    t = Table.from_rows(
        ["n"], [[Cell.text("10")], [Cell.text("N/A")], [Cell.text("20")], [Cell.missing()]]
    )
    total = execute_purpose(QuerySpec(aggregate=Aggregate("sum", "n")), t)
    assert total.value.value == Decimal(30)
    mean = execute_purpose(QuerySpec(aggregate=Aggregate("mean", "n")), t)
    assert mean.value.value == Decimal(15)


def test_count_variants():
    t = Table.from_rows(["n"], [[Cell.text("a")], [Cell.missing()], [Cell.text("a")]])
    rows = execute_purpose(QuerySpec(aggregate=Aggregate("count")), t)
    assert rows.value.value == Decimal(3)
    values = execute_purpose(QuerySpec(aggregate=Aggregate("count", "n")), t)
    assert values.value.value == Decimal(2)


def test_argmax_by_scalar_when_unique():
    t = Table.from_rows(
        ["name", "when"],
        [
            [Cell.text("A"), Cell.text("2023-01-01T00:00:00Z")],
            [Cell.text("B"), Cell.text("2023-03-01T00:00:00Z")],
            [Cell.text("B"), Cell.text("2023-03-01T00:00:00Z")],
        ],
    )
    q = QuerySpec(select=("name",), aggregate=Aggregate("argmax_by", "when"))
    answer = execute_purpose(q, t)
    assert answer.kind is AnswerKind.SCALAR
    assert answer.value.render() == "B"


def test_argmin_by_list_on_ties():
    t = Table.from_rows(
        ["name", "n"],
        [
            [Cell.text("A"), Cell.text("1")],
            [Cell.text("B"), Cell.text("1")],
            [Cell.text("C"), Cell.text("5")],
        ],
    )
    q = QuerySpec(select=("name",), aggregate=Aggregate("argmin_by", "n"))
    answer = execute_purpose(q, t)
    assert answer.kind is AnswerKind.VALUE_LIST
    assert [c.render() for c in answer.values] == ["A", "B"]


def test_order_and_limit():
    t = Table.from_rows(["a"], [[Cell.text(v)] for v in ["b", "c", "a"]])
    q = QuerySpec(select=("a",), order=Order(by=None), limit=2)
    answer = execute_purpose(q, t)
    assert [c.render() for c in answer.values] == ["a", "b"]


def test_canonical_text_forms():
    assert answer_to_canonical_text(Answer.scalar(Cell.number(4))) == "4"
    assert (
        answer_to_canonical_text(
            Answer.value_list(
                [Cell.text("SCHOOL"), Cell.text("RESTAURANT"), Cell.text("GROCERY STORE")]
            )
        )
        == "GROCERY STORE, RESTAURANT, SCHOOL"
    )
    assert answer_to_canonical_text(Answer.of_records([])) == "[]"


def test_scalar_text_vs_number_canonical_equality():
    assert answers_equal(
        Answer.scalar(Cell.text("4")), Answer.scalar(Cell.number(4))
    )


def test_query_json_round_trip():
    q = QuerySpec(
        select=("a",),
        filters=(Filter("b", "<", Cell.number(10)),),
        group_by=None,
        aggregate=Aggregate("count_distinct", "a"),
        distinct=True,
        order=Order(by="a", descending=True),
        limit=5,
    )
    assert query_from_json(query_to_json(q)) == q


def test_answer_json_round_trip():
    for answer in (
        Answer.scalar(Cell.number(Decimal("4.5"))),
        Answer.value_list([Cell.text("x"), Cell.missing()]),
        Answer.of_records([{"a": Cell.text("v"), "value": Cell.number(3)}]),
    ):
        assert answer_from_json(answer_to_json(answer)) == answer


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_row_permutation_invariance(seed):
    rng = random.Random(seed)
    values = [rng.choice(["a", "B", "1,000", "N/A", ""]) for _ in range(rng.randrange(1, 8))]
    t = Table.from_rows(["v"], [[Cell.text(v)] for v in values])
    shuffled = list(t.rows)
    rng.shuffle(shuffled)
    t2 = Table.from_rows(t.columns, shuffled)
    queries = [
        QuerySpec(select=("v",), distinct=True),
        QuerySpec(aggregate=Aggregate("count_distinct", "v")),
        QuerySpec(select=("v",), aggregate=Aggregate("argmax_by", "v")),
        QuerySpec(select=("v",), filters=(Filter("v", "contains", Cell.text("a")),)),
    ]
    for q in queries:
        assert answers_equal(execute_purpose(q, t), execute_purpose(q, t2))


# hoisted, memoised filters against the per-row loop they replaced ---------

FILTER_TEXTS = [
    "RESTAURANT", "restaurant", "Risk 1 (High)", "", " ", "42", " 42 ", "1,000",
    "1000.", "-7.5", "+3", "2023-01-05", "2023/01/05", "01/05/2023", "Jan 5, 2023",
    "5 January 2023", "2023-01-05T10:30:00Z", "12:30", "1:05 PM", "N/A", "4 2",
]


def _filter_cells():
    instants = st.datetimes(
        min_value=datetime(2022, 12, 30), max_value=datetime(2023, 1, 10)
    ).map(lambda d: Cell.date(d.replace(microsecond=0, tzinfo=timezone.utc)))
    return st.one_of(
        st.sampled_from(FILTER_TEXTS).map(Cell.text),
        st.text(alphabet="aZ1-/: ,.", max_size=6).map(Cell.text),
        st.decimals(-50, 5000, places=1, allow_nan=False).map(Cell.number),
        instants,
        st.just(Cell.missing()),
    )


def _is_instant(cell):
    if cell.kind is CellKind.DATE:
        return True
    return cell.kind is CellKind.TEXT and parse_date(cell.value) is not None


def _same_filtering(table, filters):
    """The row ids ``execute_purpose`` keeps are the ones the oracle keeps."""
    q = QuerySpec(select=("id",), filters=tuple(filters))
    if any(f.op in ("before", "after") and not _is_instant(f.value) for f in filters):
        with pytest.raises(TypeMismatchError):
            execute_purpose(q, table)
        return
    want = Answer.value_list([row[0] for row in filter_rows_oracle(q, table)])
    got = execute_purpose(q, table)
    assert answer_to_canonical_text(got) == answer_to_canonical_text(want)


@pytest.mark.parametrize("op", COMPARATORS)
@settings(max_examples=60, deadline=None)
@given(cells=st.lists(_filter_cells(), max_size=25), literal=_filter_cells())
def test_filter_matches_per_row_oracle(op, cells, literal):
    table = Table.from_rows(
        ["id", "v"], [[Cell.text(f"r{i}"), c] for i, c in enumerate(cells)]
    )
    _same_filtering(table, [Filter("v", op, literal)])


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(_filter_cells(), _filter_cells()), max_size=20),
    filters=st.lists(
        st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(COMPARATORS), _filter_cells()),
        min_size=1,
        max_size=3,
    ),
)
def test_filter_conjunctions_match_per_row_oracle(rows, filters):
    table = Table.from_rows(
        ["id", "a", "b"], [[Cell.text(f"r{i}"), a, b] for i, (a, b) in enumerate(rows)]
    )
    _same_filtering(table, [Filter(c, op, v) for c, op, v in filters])


def test_equality_filter_parses_each_distinct_text_once(monkeypatch):
    import dcflow.query

    calls = []
    original = dcflow.query.parse_date

    def counting(text, *args):
        calls.append(text)
        return original(text, *args)

    monkeypatch.setattr(dcflow.query, "parse_date", counting)
    texts = [f"2023-01-{d:02d}" for d in range(1, 6)] + [f"shop {k}" for k in range(5)]
    table = Table.from_rows(
        ["v"], [[Cell.text(texts[i % len(texts)])] for i in range(1000)]
    )
    q = QuerySpec(select=("v",), filters=(Filter("v", "=", Cell.text("2023-01-03")),))
    answer = execute_purpose(q, table)
    assert len(answer.values) == 100
    assert len(calls) <= 11


# query shapes rejected at load time ----------------------------------------

BAD_SHAPES = [
    ({"select": [], "aggregate": {"fn": "max"}}, "query.aggregate", "max requires a column"),
    (
        {"select": ["a"], "aggregate": {"fn": "argmax_by", "column": "b"}, "group_by": "a"},
        "query",
        "argmax_by does not combine with group_by",
    ),
    (
        {"select": [], "aggregate": {"fn": "argmin_by", "column": "b"}},
        "query",
        "argmin_by requires a select column",
    ),
    (
        {"select": ["a"], "order": {"by": "b"}},
        "query",
        "order.by 'b' is not a select column",
    ),
]


@pytest.mark.parametrize("raw, path, reason", BAD_SHAPES)
def test_query_from_json_rejects_bad_shapes(raw, path, reason):
    with pytest.raises(SchemaError) as exc:
        query_from_json(raw)
    assert (exc.value.path, exc.value.reason) == (path, reason)


def test_queryspec_rejects_bad_shapes():
    with pytest.raises(ValueError):
        QuerySpec(select=("a",), group_by="a", aggregate=Aggregate("argmax_by", "b"))
    with pytest.raises(ValueError):
        QuerySpec(aggregate=Aggregate("argmax_by", "b"))
    with pytest.raises(ValueError):
        QuerySpec(select=("a",), order=Order(by="b"))
    # An aggregate ignores ``order``, so its ``by`` need not be selected.
    QuerySpec(aggregate=Aggregate("count"), order=Order(by="b"))


@pytest.mark.parametrize(
    "raw",
    [
        {"number": "1e5000000"},
        {"number": "-1e-1001"},
        {"number": "NaN"},
        json.loads('1e5000000', parse_float=Decimal),
        json.loads('{"v": 1E-1001}', parse_float=Decimal)["v"],
    ],
)
def test_cell_json_rejects_unbounded_numbers(raw):
    with pytest.raises(SchemaError) as exc:
        answer_from_json({"type": "scalar", "value": raw})
    assert exc.value.path == "answer.value"


def test_cell_json_accepts_exponents_up_to_the_bound():
    answer = answer_from_json({"type": "list", "values": [{"number": "1e1000"}, {"number": "1e-1000"}]})
    assert [len(c.render()) for c in answer.values] == [1001, 1002]
