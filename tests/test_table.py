import csv
import io
import random
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dcflow import Cell, Table, load_table, table_to_csv
from dcflow.errors import (
    DcflowError,
    DuplicateColumnError,
    EmptyInputError,
    EncodingError,
    RowArityError,
    ShapeMismatchError,
    UnknownColumnError,
)

from genutil import random_cell, random_table, random_text_table
from oracles import RowTable, load_table_oracle, table_to_csv_oracle


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


def test_load_reports_an_oversized_field_as_a_dcflow_error():
    # The field size limit is process-global, so load_table reports it
    # rather than raising it.
    with pytest.raises(DcflowError, match=r"^CSV line 3: field larger than field limit"):
        load_table(b"a\nok\n" + b"x" * 200_000 + b"\n")


def test_load_nul_byte_is_data_or_a_dcflow_error():
    payload = b"a\nx\x00y\n"
    if sys.version_info >= (3, 11):
        assert load_table(payload).column_values("a") == (Cell.text("x\x00y"),)
    else:  # csv.reader rejects NUL before 3.11
        with pytest.raises(DcflowError, match=r"^CSV line 2: line contains NUL"):
            load_table(payload)


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
        Table.from_rows(("a", "b"), ((Cell.text("1"),),))


def test_replace_column_returns_new_table():
    t = load_table(b"a,b\n1,2\n")
    t2 = t.replace_column("a", [Cell.text("9")])
    assert t.rows[0][0].render() == "1"
    assert t2.rows[0][0].render() == "9"
    assert t2.rows[0][1] is t.rows[0][1]
    assert t2.column_values("b") is t.column_values("b")


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


def test_zero_column_payload_keeps_its_row_count():
    t = load_table(b"\n\n")
    assert (t.columns, t.n_rows, t.rows) == ((), 1, ((),))
    assert table_to_csv(t) == b"\n\n"


def test_constructor_checks_names_and_column_lengths():
    x = Cell.text("x")
    with pytest.raises(DuplicateColumnError):
        Table(("a", "a"), ((x,), (x,)), 1)
    with pytest.raises(RowArityError):
        Table(("a", "b"), ((x,), (x, x)), 1)
    with pytest.raises(ShapeMismatchError):
        Table(("a", "b"), ((x,),), 1)


# the column-stored table against the row-stored one it replaced ---------

_FIELDS = ["", "a", "B", " x ", "a,b", 'say "hi"', "two\nlines", "\ufeff1", "é"]


def _csv_bytes(records):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(records)
    return buf.getvalue().encode("utf-8")


# Well-formed records (ragged rows and repeated header names included),
# raw text whose quoting may be malformed, and arbitrary bytes; each may
# carry a leading byte order mark.
csv_payloads = st.tuples(
    st.booleans(),
    st.one_of(
        st.lists(st.lists(st.sampled_from(_FIELDS), max_size=4), max_size=6).map(_csv_bytes),
        st.text(alphabet='ab ,"\r\n\ufeff', max_size=40).map(str.encode),
        st.binary(max_size=20),
    ),
).map(lambda t: (b"\xef\xbb\xbf" if t[0] else b"") + t[1])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _loaded(load, dump, payload):
    t = _outcome(load, payload)
    if isinstance(t, tuple):
        return t
    return t.columns, t.rows, t.n_rows, dump(t)


@given(csv_payloads)
@example(b"")
@example(b"\n\n")
@example(b"a,a\n1\n")
@example(b"a,b\n1,2\n3\n")
@example(b"\xef\xbb\xbfa,b\n\"x\ny\",\n")
def test_load_table_matches_the_row_table(payload):
    assert _loaded(load_table, table_to_csv, payload) == _loaded(
        load_table_oracle, table_to_csv_oracle, payload
    )


@given(st.integers(0, 10_000), st.data())
def test_replace_column_matches_the_row_table(seed, data):
    rng = random.Random(seed)
    t = random_table(rng)
    old = RowTable(t.columns, t.rows)
    name = data.draw(st.sampled_from([*t.columns, "nope"]))
    n = data.draw(st.sampled_from([t.n_rows, t.n_rows + 1, max(t.n_rows - 1, 0)]))
    values = [random_cell(rng) for _ in range(n)]
    new = _outcome(t.replace_column, name, values)
    want = _outcome(old.replace_column, name, values)
    if isinstance(want, tuple):
        assert new == want
    else:
        assert (new.columns, new.rows, new.n_rows) == (want.columns, want.rows, want.n_rows)
