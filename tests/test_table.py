import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcflow import Cell, Table, load_table, table_to_csv
from dcflow.errors import (
    DuplicateColumnError,
    EmptyInputError,
    EncodingError,
    RowArityError,
    UnknownColumnError,
)

from genutil import random_text_table


def test_load_preserves_whitespace_and_types_nothing():
    t = load_table(b"a,b\n1, x \n")
    assert t.columns == ("a", "b")
    assert [c.render() for c in t.rows[0]] == ["1", " x "]
    assert all(c.kind.value == "text" for c in t.rows[0])


def test_load_ragged_row():
    with pytest.raises(RowArityError) as exc:
        load_table(b"a,b\n1\n")
    assert exc.value.row == 1


def test_load_empty_payload():
    with pytest.raises(EmptyInputError):
        load_table(b"")


def test_load_duplicate_header():
    with pytest.raises(DuplicateColumnError):
        load_table(b"a,a\n1,2\n")


def test_load_invalid_utf8():
    with pytest.raises(EncodingError):
        load_table(b"a,b\n\xff\xfe,2\n")


def test_load_strips_leading_bom():
    t = load_table(b"\xef\xbb\xbfa,b\n1,2\n")
    assert t.columns == ("a", "b")
    assert t.column_values("a") == (Cell.text("1"),)
    # only a leading mark is dropped; one inside a field is data
    inner = load_table(b"a,b\n\xef\xbb\xbf1,2\n")
    assert inner.column_values("a") == (Cell.text("\ufeff1"),)


def test_load_empty_fields_become_missing():
    t = load_table(b"a,b\n,x\n")
    assert t.rows[0][0].is_missing
    assert not t.rows[0][1].is_missing


def test_column_values_quality_demo(quality_demo_table):
    values = quality_demo_table.column_values("City")
    rendered = [c.render() if not c.is_missing else None for c in values]
    assert rendered == ["Honolulu", "Honolulu", "Honolulu", None, "Urbana", "Chicago", "Champaign"]


def test_column_values_unknown():
    t = load_table(b"a\nx\n")
    with pytest.raises(UnknownColumnError):
        t.column_values("Nope")


def test_column_values_empty_rows():
    t = load_table(b"a\n")
    assert t.column_values("a") == ()


def test_constructor_enforces_rectangularity():
    with pytest.raises(RowArityError):
        Table(("a", "b"), ((Cell.text("1"),),))


def test_replace_column_returns_new_table():
    t = load_table(b"a,b\n1,2\n")
    t2 = t.replace_column("a", [Cell.text("9")])
    assert t.rows[0][0].render() == "1"
    assert t2.rows[0][0].render() == "9"
    assert t2.rows[0][1] is t.rows[0][1]


@given(st.integers(0, 10_000))
def test_csv_round_trip_fixed_point(seed):
    rng = random.Random(seed)
    table = random_text_table(rng)
    # A loaded table has no empty-text cells, so one serialize establishes
    # the canonical bytes and further round trips are exact.
    first = table_to_csv(load_table(table_to_csv(table)))
    second = table_to_csv(load_table(first))
    assert first == second


@given(st.integers(0, 10_000))
def test_cell_count_is_rows_times_cols(seed):
    rng = random.Random(seed)
    table = random_text_table(rng)
    assert sum(len(r) for r in table.rows) == table.n_rows * table.n_cols


def test_quoting_canonicalized():
    t = load_table(b'a,b\n"x,y",z\n')
    assert t.rows[0][0].render() == "x,y"
    out = table_to_csv(t)
    assert out == b'a,b\n"x,y",z\n'
