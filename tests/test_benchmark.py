import json
import random
import shutil
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcflow import (
    Cell,
    Table,
    delta_equiv,
    deserialize,
    inject_errors,
    load_case,
    load_suite,
    table_to_csv,
    validate_case,
)
from dcflow.benchmark import (
    ErrorFamily,
    ErrorLog,
    ErrorLogEntry,
    ErrorProfile,
    assert_case_valid,
)
from dcflow.errors import NoEligibleCellsError, SchemaError, SelfCheckError
from dcflow.query import query_from_json

from genutil import random_table
from oracles import inject_errors_oracle


def clean_table(n_rows=50):
    rows = []
    for i in range(n_rows):
        rows.append(
            [
                Cell.text(f"Name {i} Value"),
                Cell.text(str(100 + i)),
                Cell.text("keep me"),
            ]
        )
    return Table.from_rows(["name", "amount", "other"], rows)


def profile(rate, seed=1, columns=("name", "amount")):
    return ErrorProfile(rate=rate, columns=tuple(columns), seed=seed)


def test_rate_zero_is_identity():
    t = clean_table()
    dirty, log = inject_errors(t, profile(0.0))
    assert dirty == t
    assert log.entries == ()


def test_same_seed_same_output():
    t = clean_table()
    a = inject_errors(t, profile(0.3, seed=42))
    b = inject_errors(t, profile(0.3, seed=42))
    assert table_to_csv(a[0]) == table_to_csv(b[0])
    assert a[1] == b[1]


def test_different_seed_differs():
    t = clean_table()
    a = inject_errors(t, profile(0.3, seed=1))
    b = inject_errors(t, profile(0.3, seed=2))
    assert table_to_csv(a[0]) != table_to_csv(b[0])


@pytest.mark.parametrize("rate", [0.0636, 0.1480, 0.2584, 0.3451, 0.1463, 0.2307])
def test_realized_rate_within_one_cell(rate):
    t = clean_table(50)
    dirty, log = inject_errors(t, profile(rate, seed=9))
    total = t.n_rows * 2
    assert abs(len(log.entries) - rate * total) <= 1.0


def test_injection_preserves_shape_and_names():
    t = clean_table()
    dirty, _ = inject_errors(t, profile(0.5))
    assert dirty.columns == t.columns
    assert dirty.n_rows == t.n_rows


def test_log_entries_address_real_cells():
    t = clean_table()
    dirty, log = inject_errors(t, profile(0.4, seed=5))
    assert log.entries
    for e in log.entries:
        j = t.column_index(e.column)
        assert dirty.rows[e.row][j] == e.corrupted
        assert t.rows[e.row][j] == e.original
        assert e.corrupted.render() != e.original.render()


def test_untargeted_columns_untouched():
    t = clean_table()
    dirty, _ = inject_errors(t, profile(1.0, columns=("name",)))
    j = t.column_index("other")
    assert all(row[j].render() == "keep me" for row in dirty.rows)


def test_family_type_constraints():
    t = clean_table()
    dirty, log = inject_errors(t, profile(1.0, seed=3))
    for e in log.entries:
        if e.family is ErrorFamily.TYPE_ERROR:
            assert e.corrupted.render() in ("N/A", "missing", "-", "unknown")
            assert e.original.render().lstrip("+-").replace(".", "").replace(",", "").isdigit()
        if e.family is ErrorFamily.CASE_VARIATION:
            assert e.corrupted.render().lower() == e.original.render().lower()
        if e.family is ErrorFamily.FORMATTING:
            assert e.corrupted.render().strip() == e.original.render().strip()


def test_no_eligible_cells_raises():
    t = Table.from_rows(["a"], [[Cell.missing()], [Cell.missing()]])
    with pytest.raises(NoEligibleCellsError):
        inject_errors(t, ErrorProfile(rate=1.0, columns=("a",), seed=0))


def test_profile_validation():
    with pytest.raises(ValueError):
        ErrorProfile(rate=1.5, columns=("a",))
    with pytest.raises(ValueError):
        ErrorProfile(rate=0.5, columns=())
    with pytest.raises(ValueError):
        ErrorProfile(
            rate=0.5,
            columns=("a",),
            mix={ErrorFamily.FORMATTING: 0.7, ErrorFamily.CASE_VARIATION: 0.7},
        )


def test_profile_from_json():
    p = ErrorProfile.from_json(
        {"rate": 0.25, "columns": ["a"], "seed": 7, "mix": {"formatting": 1.0}}
    )
    assert p.rate == 0.25
    assert p.mix == {ErrorFamily.FORMATTING: 1.0}
    with pytest.raises(SchemaError):
        ErrorProfile.from_json({"rate": 0.25, "columns": ["a"], "mix": {"bogus": 1.0}})


def test_error_log_json_round_trip():
    t = clean_table(10)
    _, log = inject_errors(t, profile(0.5, seed=2))
    doc = log.to_json()
    back = ErrorLog.from_json(json.loads(json.dumps(doc)))
    assert [
        (e.row, e.column, e.original.render(), e.corrupted.render(), e.family)
        for e in back.entries
    ] == [
        (e.row, e.column, e.original.render(), e.corrupted.render(), e.family)
        for e in log.entries
    ]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000), st.floats(0.0, 1.0))
def test_injection_rate_property(seed, rate):
    t = clean_table(20)
    dirty, log = inject_errors(t, profile(rate, seed=seed))
    total = 40
    assert abs(len(log.entries) - rate * total) <= 1.0
    # every corrupted cell fails equivalence against its original
    for e in log.entries:
        assert delta_equiv(e.corrupted, e.original) in (0, 1)


# case manifests ---------------------------------------------------------

def test_bundled_suite_all_valid(suite_path):
    entries = load_suite(suite_path)
    assert len(entries) == 8
    for entry in entries:
        case = load_case(entry.path)
        assert validate_case(case) == []


def test_assert_case_valid_raises_on_gold_mismatch(cases_dir, tmp_path):
    case_doc = json.loads((cases_dir / "menu" / "case.json").read_text())
    case_doc["purpose"]["gold_answer"] = {"type": "scalar", "value": 99}
    for name in ("raw.csv", "gold.csv", "silver.json"):
        (tmp_path / name).write_bytes((cases_dir / "menu" / name).read_bytes())
    bad = tmp_path / "case.json"
    bad.write_text(json.dumps(case_doc))
    case = load_case(bad)
    findings = validate_case(case)
    assert any("gold answer mismatch" in f for f in findings)
    with pytest.raises(SelfCheckError):
        assert_case_valid(case)


def test_validate_reports_a_failing_gold_query(cases_dir, tmp_path):
    case_doc = json.loads((cases_dir / "menu" / "case.json").read_text())
    case_doc["purpose"]["query"] = {"select": ["no_such_column"]}
    for name in ("raw.csv", "gold.csv", "silver.json"):
        (tmp_path / name).write_bytes((cases_dir / "menu" / name).read_bytes())
    (tmp_path / "case.json").write_text(json.dumps(case_doc))
    findings = validate_case(load_case(tmp_path / "case.json"))
    assert [f for f in findings if f.startswith("gold ")] == [
        "gold query failed: unknown column: 'no_such_column' "
        "(available: menu_id, event, venue, page_count)"
    ]


def test_validate_reports_missing_targets_and_an_empty_silver(cases_dir, tmp_path):
    case_doc = json.loads((cases_dir / "menu" / "case.json").read_text())
    silver = json.loads((cases_dir / "menu" / "silver.json").read_text())
    silver["steps"] = []  # leaves the padded event names as they are
    for name in ("raw.csv", "gold.csv"):
        (tmp_path / name).write_bytes((cases_dir / "menu" / name).read_bytes())
    (tmp_path / "silver.json").write_text(json.dumps(silver))
    (tmp_path / "case.json").write_text(json.dumps(case_doc))
    findings = validate_case(load_case(tmp_path / "case.json"))
    assert [f.split(" at ratio")[0] for f in findings] == ["silver workflow leaves target columns"]
    case_doc["purpose"]["target_columns"].append("nope")
    (tmp_path / "case.json").write_text(json.dumps(case_doc))
    findings = validate_case(load_case(tmp_path / "case.json"))
    assert findings[:2] == [
        "target column 'nope' missing from raw table",
        "target column 'nope' missing from gold table",
    ]


def test_validate_reports_silver_step_failure(cases_dir, tmp_path):
    case_doc = json.loads((cases_dir / "menu" / "case.json").read_text())
    silver = json.loads((cases_dir / "menu" / "silver.json").read_text())
    silver["steps"][1]["column"] = "no_such_column"
    for name in ("raw.csv", "gold.csv"):
        (tmp_path / name).write_bytes((cases_dir / "menu" / name).read_bytes())
    (tmp_path / "silver.json").write_text(json.dumps(silver))
    (tmp_path / "case.json").write_text(json.dumps(case_doc))
    findings = validate_case(load_case(tmp_path / "case.json"))
    assert any("step 2" in f for f in findings)


def test_load_case_missing_file(tmp_path):
    doc = {
        "purpose": {
            "id": "x",
            "statement": "s",
            "category": "Filtering",
            "target_columns": ["a"],
            "query": {"select": ["a"]},
            "gold_answer": {"type": "list", "values": []},
        },
        "raw_table": "missing.csv",
        "gold_table": "missing.csv",
        "silver_workflow": "missing.json",
    }
    p = tmp_path / "case.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_case(p)


@pytest.mark.parametrize("key", ["raw_table", "gold_table", "silver_workflow"])
def test_load_case_names_a_directory_as_schema_error(cases_dir, tmp_path, key):
    shutil.copytree(cases_dir / "menu", tmp_path / "menu")
    manifest = tmp_path / "menu" / "case.json"
    doc = json.loads(manifest.read_text())
    doc[key] = "."
    manifest.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as exc:
        load_case(manifest)
    assert exc.value.path == key
    assert exc.value.reason.startswith("unreadable file (")


def test_load_case_names_a_path_with_a_nul_byte_as_schema_error(cases_dir, tmp_path):
    doc = json.loads((cases_dir / "menu" / "case.json").read_text())
    doc["raw_table"] = "raw\x00.csv"
    manifest = tmp_path / "case.json"
    manifest.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as exc:
        load_case(manifest)
    assert exc.value.path == "raw_table"
    assert exc.value.reason == "unreadable file (embedded null byte)"


def test_load_case_wraps_a_malformed_silver_workflow(cases_dir, tmp_path):
    shutil.copytree(cases_dir / "menu", tmp_path / "menu")
    (tmp_path / "menu" / "silver.json").write_text('{"version": "nope"}')
    with pytest.raises(SchemaError) as exc:
        load_case(tmp_path / "menu" / "case.json")
    assert exc.value.path == "silver_workflow"
    assert exc.value.reason == "unloadable workflow (version: expected 'dcflow/1', got 'nope')"


def test_error_log_validation_catches_drift(cases_dir, tmp_path):
    for name in ("raw.csv", "gold.csv", "silver_b.json", "case_b.json"):
        shutil.copy(cases_dir / "cfi" / name, tmp_path / name)
    log = json.loads((cases_dir / "cfi" / "error_log_b.json").read_text())
    log[0]["corrupted"] = "NOT WHAT THE TABLE SAYS"
    (tmp_path / "error_log_b.json").write_text(json.dumps(log))
    findings = validate_case(load_case(tmp_path / "case_b.json"))
    assert any("error_log[0]" in f for f in findings)


def _gold_without(case, column=None, last_row=False):
    gold = case.gold_table
    keep = [j for j, name in enumerate(gold.columns) if name != column]
    n_rows = gold.n_rows - last_row
    data = tuple(gold.data[j][:n_rows] for j in keep)
    return Table(tuple(gold.columns[j] for j in keep), data, n_rows)


@pytest.mark.parametrize(
    "drop, finding",
    [
        ({"last_row": True}, "error_log[0]: row {last} out of range in gold table"),
        ({"column": "Results"}, "error_log[0]: unknown column 'Results' in gold table"),
    ],
    ids=["gold-row-missing", "gold-column-missing"],
)
def test_error_log_is_checked_against_the_gold_table_too(cases_dir, drop, finding):
    case = load_case(cases_dir / "cfi" / "case_b.json")
    last = case.raw_table.n_rows - 1
    raw, gold = (t.column_values("Results")[last] for t in (case.raw_table, case.gold_table))
    log = ErrorLog((ErrorLogEntry(last, "Results", gold, raw, ErrorFamily.FORMATTING),))
    assert validate_case(replace(case, error_log=log)) == []
    findings = validate_case(replace(case, gold_table=_gold_without(case, **drop), error_log=log))
    assert finding.format(last=last) in findings


# the pooled injection against the rescanning loop it replaced -------------

FAMILIES = list(ErrorFamily)


def _mixes():
    weights = st.lists(st.integers(0, 3), min_size=len(FAMILIES), max_size=len(FAMILIES))
    weights = weights.filter(any)
    return weights.map(lambda w: {f: x / sum(w) for f, x in zip(FAMILIES, w)})


def _same_injection(table, prof):
    try:
        got = inject_errors(table, prof)
    except NoEligibleCellsError:
        with pytest.raises(NoEligibleCellsError):
            inject_errors_oracle(table, prof)
        return
    want = inject_errors_oracle(table, prof)
    assert got[0] == want[0]
    assert table_to_csv(got[0]) == table_to_csv(want[0])
    assert got[1] == want[1]


@settings(max_examples=150, deadline=None)
@given(
    table_seed=st.integers(0, 10**6),
    seed=st.integers(0, 10**6),
    rate=st.floats(0.0, 1.0),
    mix=_mixes(),
    data=st.data(),
)
def test_injection_matches_rescanning_oracle(table_seed, seed, rate, mix, data):
    table = random_table(random.Random(table_seed), max_rows=12, max_cols=4)
    columns = data.draw(
        st.lists(st.sampled_from(table.columns), min_size=1, max_size=3), label="columns"
    )
    _same_injection(table, ErrorProfile(rate=rate, columns=tuple(columns), seed=seed, mix=mix))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), rate=st.floats(0.05, 1.0), mix=_mixes())
def test_injection_matches_oracle_when_families_have_no_cells(seed, rate, mix):
    # `some` has no numeric cell, so TYPE_ERROR has none; in `numeric_only`
    # only TYPE_ERROR and FORMATTING have cells; in `none` no family has.
    some = Table.from_rows(
        ["a", "b"],
        [[Cell.text("x y"), Cell.missing()], [Cell.missing(), Cell.text(" ")]],
    )
    _same_injection(some, ErrorProfile(rate=rate, columns=("a", "b"), seed=seed, mix=mix))
    numeric_only = Table.from_rows(["n"], [[Cell.text("42")], [Cell.missing()]])
    _same_injection(numeric_only, ErrorProfile(rate=rate, columns=("n",), seed=seed, mix=mix))
    none = Table.from_rows(["a"], [[Cell.missing()], [Cell.text("")]])
    _same_injection(none, ErrorProfile(rate=rate, columns=("a",), seed=seed, mix=mix))


@pytest.mark.parametrize("rate", [0.1, 0.5, 1.0])
def test_injection_judges_each_cell_once_per_family(monkeypatch, rate):
    import dcflow.benchmark

    calls = []
    original = dcflow.benchmark._eligible

    def counting(cell, family):
        calls.append(family)
        return original(cell, family)

    monkeypatch.setattr(dcflow.benchmark, "_eligible", counting)
    t = clean_table(40)
    _, log = inject_errors(t, profile(rate, seed=4))
    assert len(log.entries) == int(rate * 80 + 0.5)
    assert len(calls) <= len(FAMILIES) * t.n_rows * 2


@pytest.mark.parametrize(
    "payload",
    [b"{not json", b"\xff\xfe not utf-8", b'{"purpose": ' + b"9" * 5000 + b"}", b"[1]"],
    ids=["bad-json", "bad-utf8", "5000-digit-int", "not-an-object"],
)
def test_load_case_malformed_json_is_schema_error(tmp_path, payload):
    p = tmp_path / "case.json"
    p.write_bytes(payload)
    with pytest.raises(SchemaError) as exc:
        load_case(p)
    assert exc.value.path == "manifest"


def _one_step_doc(index):
    return json.dumps(
        {
            "version": "dcflow/1",
            "steps": [{"index": index, "op": "trim", "column": "a", "args": None}],
        }
    ).encode()


_LOG_ENTRY = {"row": 0, "column": "a", "original": "x", "corrupted": "y", "family": "formatting"}


@pytest.mark.parametrize(
    "read, raw, path",
    [
        (query_from_json, {"select": ["a"], "filters": 3}, "query.filters"),
        (query_from_json, {"select": ["a"], "limit": True}, "query.limit"),
        (query_from_json, {"select": ["a"], "limit": -1}, "query"),
        (query_from_json, {"select": ["a"], "limit": 1.0}, "query.limit"),
        (deserialize, _one_step_doc(True), "steps[0].index"),
        (ErrorProfile.from_json, {"rate": 0.1, "columns": ["a"], "seed": True}, "profile.seed"),
        (ErrorProfile.from_json, {"rate": True, "columns": ["a"]}, "profile.rate"),
        (
            ErrorProfile.from_json,
            {"rate": 0.1, "columns": ["a"], "mix": {"formatting": True}},
            "profile.mix.formatting",
        ),
        (ErrorLog.from_json, [{**_LOG_ENTRY, "row": True}], "error_log[0].row"),
        (query_from_json, {"select": ["a"], "distinct": "false"}, "query.distinct"),
        (
            query_from_json,
            {"select": ["a"], "order": {"by": "a", "descending": "false"}},
            "query.order.descending",
        ),
        (query_from_json, {"select": ["a"], "order": {"by": 5}}, "query.order.by"),
        (
            query_from_json,
            {"select": [], "aggregate": {"fn": "max", "column": 5}},
            "query.aggregate.column",
        ),
        (
            ErrorProfile.from_json,
            {"rate": 0.1, "columns": ["a"], "mix": {"formatting": float("nan")}},
            "profile",
        ),
    ],
    ids=[
        "filters-int", "limit-bool", "limit-negative", "limit-float", "index-bool",
        "seed-bool", "rate-bool", "mix-weight-bool", "row-bool", "distinct-string",
        "descending-string", "order-by-int", "aggregate-column-int", "mix-weight-nan",
    ],
)
def test_json_readers_reject_bools_and_wrong_containers(read, raw, path):
    with pytest.raises(SchemaError) as exc:
        read(raw)
    assert exc.value.path == path


def test_json_readers_accept_the_well_typed_forms():
    assert query_from_json({"select": ["a"], "filters": [], "limit": 0}).limit == 0
    q = query_from_json({"select": ["a"], "distinct": False, "order": {"by": None, "descending": True}})
    assert (q.distinct, q.order.descending) == (False, True)
    assert query_from_json({"aggregate": {"fn": "count", "column": None}}).aggregate.column is None
    assert len(deserialize(_one_step_doc(1)).steps) == 1
    assert ErrorProfile.from_json({"rate": 1, "columns": ["a"], "seed": 3}).seed == 3
    assert ErrorLog.from_json([_LOG_ENTRY]).entries[0].row == 0
