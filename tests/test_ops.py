import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcflow import (
    Cell,
    MassEditSpec,
    Table,
    apply_date,
    apply_mass_edit,
    apply_numeric,
    apply_regexr_transform,
    apply_trim,
    apply_upper,
    parse_transform_expr,
)
from dcflow.cells import CellKind
from dcflow.errors import OverlappingEditError, UnknownColumnError

from genutil import random_step, random_table
from oracles import numeric_value, strip_whitespace_oracle
from dcflow.workflow import apply_step


def column_table(values):
    return Table.from_rows(["col"], [[v] for v in values])


def col_renders(table, name="col"):
    return [c.render() for c in table.column_values(name)]


# upper -----------------------------------------------------------------

def test_upper_ohare_demo():
    t = column_table([Cell.text("Ohare"), Cell.text("OHARE"), Cell.text("ohare")])
    assert col_renders(apply_upper(t, "col")) == ["OHARE", "OHARE", "OHARE"]


def test_upper_idempotent_on_fixed_case():
    t = column_table([Cell.text("SCHOOL")])
    assert col_renders(apply_upper(t, "col")) == ["SCHOOL"]


def test_upper_leaves_non_text():
    t = column_table([Cell.missing(), Cell.number(3)])
    out = apply_upper(t, "col")
    assert out.rows[0][0].is_missing
    assert out.rows[1][0].value == Decimal(3)


def test_upper_unknown_column():
    with pytest.raises(UnknownColumnError):
        apply_upper(column_table([]), "nope")


# trim ------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,expected",
    [(" x ", "x"), ("a b", "a b"), (" RESTAURANT ", "RESTAURANT")],
)
def test_trim_examples(text, expected):
    assert strip_whitespace_oracle(text) == expected  # oracle agrees first
    t = column_table([Cell.text(text)])
    assert col_renders(apply_trim(t, "col")) == [expected]


@given(st.text(max_size=30))
def test_trim_matches_codepoint_oracle(text):
    t = column_table([Cell.text(text)])
    assert col_renders(apply_trim(t, "col")) == [strip_whitespace_oracle(text)]


# numeric ---------------------------------------------------------------

def test_numeric_trailing_point():
    t = column_table([Cell.text("1000.")])
    out = apply_numeric(t, "col")
    assert out.rows[0][0].kind is CellKind.NUMBER
    assert out.rows[0][0].value == Decimal(1000)


def test_numeric_leaves_na():
    t = column_table([Cell.text("N/A")])
    out = apply_numeric(t, "col")
    assert out.rows[0][0].kind is CellKind.TEXT
    assert out.rows[0][0].value == "N/A"


def test_numeric_thousands_separator():
    assert numeric_value("1,234.5") == Decimal("1234.5")  # oracle agrees
    t = column_table([Cell.text("1,234.5")])
    assert apply_numeric(t, "col").rows[0][0].value == Decimal("1234.5")


# date ------------------------------------------------------------------

def test_date_iso_slash():
    t = column_table([Cell.text("2023/04/01")])
    assert col_renders(apply_date(t, "col")) == ["2023-04-01T00:00:00Z"]


def test_date_leaves_non_dates():
    t = column_table([Cell.text("not a date")])
    assert col_renders(apply_date(t, "col")) == ["not a date"]


def test_date_month_first_policy():
    t = column_table([Cell.text("04/01/2023")])
    assert col_renders(apply_date(t, "col")) == ["2023-04-01T00:00:00Z"]


# mass_edit -------------------------------------------------------------

def test_mass_edit_merges_variant_groups():
    spec = MassEditSpec.of(
        [
            (["SCHOOOL", "school"], "SCHOOL"),
            (["RESTUARANT"], "RESTAURANT"),
            (["GROCRY STORE"], "GROCERY STORE"),
        ]
    )
    t = column_table(
        [Cell.text(v) for v in ["SCHOOOL", "RESTUARANT", "school", "GROCRY STORE"]]
    )
    assert col_renders(apply_mass_edit(t, "col", spec)) == [
        "SCHOOL",
        "RESTAURANT",
        "SCHOOL",
        "GROCERY STORE",
    ]


def test_mass_edit_empty_spec_is_identity():
    t = column_table([Cell.text("x")])
    assert apply_mass_edit(t, "col", MassEditSpec(())) == t


def test_mass_edit_overlap_rejected():
    with pytest.raises(OverlappingEditError):
        MassEditSpec.of([(["x"], "y"), (["x"], "z")])


def test_mass_edit_is_case_sensitive_whole_cell():
    spec = MassEditSpec.of([(["abc"], "X")])
    t = column_table([Cell.text("ABC"), Cell.text("zabc"), Cell.text("abc")])
    assert col_renders(apply_mass_edit(t, "col", spec)) == ["ABC", "zabc", "X"]


# regexr_transform ------------------------------------------------------

def test_regexr_transform_year_column():
    expr = parse_transform_expr(
        "jython: import re\nmatch = re.search(r'\\b\\d{4}\\b', value)\nif match:\n    return match.group(0)"
    )
    t = column_table(
        [Cell.text(v) for v in ["Feyerabend,1975,", "Collins,1985", "Stanford,2006"]]
    )
    assert col_renders(apply_regexr_transform(t, "col", expr)) == ["1975", "1985", "2006"]


def test_regexr_identity_program():
    expr = parse_transform_expr("jython: return value")
    t = column_table([Cell.text("anything"), Cell.missing()])
    assert apply_regexr_transform(t, "col", expr) == t


# shared invariants -----------------------------------------------------

@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_ops_preserve_shape_and_other_columns(seed):
    rng = random.Random(seed)
    table = random_table(rng)
    step = random_step(rng, list(table.columns))
    out = apply_step(table, step)
    assert out.columns == table.columns
    assert out.n_rows == table.n_rows
    j = table.column_index(step.column)
    for before, after in zip(table.rows, out.rows):
        for k in range(table.n_cols):
            if k != j:
                assert before[k] == after[k]


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_upper_trim_idempotent(seed):
    rng = random.Random(seed)
    table = random_table(rng)
    column = rng.choice(table.columns)
    once = apply_upper(table, column)
    assert apply_upper(once, column) == once
    once = apply_trim(table, column)
    assert apply_trim(once, column) == once


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_numeric_date_never_create_missing(seed):
    rng = random.Random(seed)
    table = random_table(rng)
    column = rng.choice(table.columns)
    for fn in (apply_numeric, apply_date):
        out = fn(table, column)
        for before, after in zip(
            table.column_values(column), out.column_values(column)
        ):
            if not before.is_missing:
                assert not after.is_missing
