import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcflow import (
    Cell,
    MassEditSpec,
    OpKind,
    OpSpec,
    Table,
    Workflow,
    apply_step,
    deserialize,
    op_stats,
    record,
    replay,
    serialize,
)
from dcflow.errors import ReplayError, SchemaError, UnknownColumnError

from genutil import random_table, random_workflow


@pytest.fixture
def small_table():
    return Table.from_rows(
        ["Facility Type", "Risk"],
        [
            [Cell.text(" RESTUARANT "), Cell.text("Risk 1 (High)")],
            [Cell.text("SCHOOL"), Cell.text("Risk 3 (Low)")],
        ],
    )


def test_record_appends_with_next_index(small_table):
    wf = Workflow(source_table_id="t")
    wf = record(wf, OpSpec(OpKind.TRIM, "Facility Type"), small_table)
    assert len(wf.steps) == 1
    assert [s["index"] for s in json.loads(serialize(wf))["steps"]] == [1]
    wf = record(wf, OpSpec(OpKind.UPPER, "Facility Type"), small_table)
    assert [s["index"] for s in json.loads(serialize(wf))["steps"]] == [1, 2]


def test_record_then_replay_matches_direct_application(small_table):
    s1 = OpSpec(OpKind.TRIM, "Facility Type")
    s2 = OpSpec(OpKind.UPPER, "Facility Type")
    wf = record(record(Workflow(), s1, small_table), s2, small_table)
    direct = apply_step(apply_step(small_table, s1), s2)
    assert replay(wf, small_table).final == direct


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_record_replay_coherence_property(seed):
    from genutil import random_step

    rng = random.Random(seed)
    table = random_table(rng, max_rows=6)
    s1 = random_step(rng, list(table.columns))
    s2 = random_step(rng, list(table.columns))
    wf = record(record(Workflow(), s1, table), s2, table)
    assert replay(wf, table).final == apply_step(apply_step(table, s1), s2)


def test_record_validates_against_replayed_frontier(small_table):
    wf = Workflow()
    with pytest.raises(UnknownColumnError):
        record(wf, OpSpec(OpKind.TRIM, "Nope"), small_table)


def test_replay_empty_workflow_is_identity(small_table):
    history = replay(Workflow(), small_table)
    assert history.tables == (small_table,)
    assert history.final == small_table


def test_replay_error_carries_step_index(small_table):
    wf = Workflow(steps=(OpSpec(OpKind.TRIM, "Facility Type"), OpSpec(OpKind.TRIM, "Ghost")))
    with pytest.raises(ReplayError) as exc:
        replay(wf, small_table)
    assert exc.value.step_index == 2


def test_history_prefix_property(small_table):
    rng = random.Random(7)
    table = random_table(rng, max_rows=5)
    wf = random_workflow(rng, table, max_steps=6)
    full = replay(wf, table)
    for k in range(len(wf.steps) + 1):
        prefix = Workflow(wf.steps[:k], wf.source_table_id, wf.purpose_id)
        assert replay(prefix, table).tables == full.tables[: k + 1]


def test_serialize_round_trip_identity(small_table):
    wf = Workflow(
        steps=(
            OpSpec(OpKind.TRIM, "Facility Type", rationale="spaces"),
            OpSpec(
                OpKind.MASS_EDIT,
                "Facility Type",
                MassEditSpec.of([(["RESTUARANT"], "RESTAURANT")]),
            ),
        ),
        source_table_id="cfi/raw.csv",
        purpose_id="p1",
    )
    assert deserialize(serialize(wf)) == wf


def test_serialize_is_canonical_utf8_newline_terminated():
    wf = Workflow(steps=(OpSpec(OpKind.TRIM, "a"),), source_table_id="t")
    data = serialize(wf)
    assert data.endswith(b"\n")
    doc = json.loads(data)
    assert doc["version"] == "dcflow/1"
    assert list(doc) == ["version", "source_table_id", "purpose_id", "steps"]


def test_deserialize_unknown_op():
    doc = {
        "version": "dcflow/1",
        "source_table_id": "t",
        "purpose_id": None,
        "steps": [{"index": 1, "op": "delete_rows", "column": "a", "args": None, "rationale": None}],
    }
    with pytest.raises(SchemaError) as exc:
        deserialize(json.dumps(doc).encode())
    assert "steps[0].op" in str(exc.value)


def test_deserialize_mass_edit_requires_edits():
    doc = {
        "version": "dcflow/1",
        "source_table_id": "t",
        "purpose_id": None,
        "steps": [{"index": 1, "op": "mass_edit", "column": "a", "args": {}, "rationale": None}],
    }
    with pytest.raises(SchemaError):
        deserialize(json.dumps(doc).encode())


def test_deserialize_bad_version():
    with pytest.raises(SchemaError):
        deserialize(b'{"version": "nope", "steps": []}')


def test_op_stats_ground_truth_shape():
    steps = (
        OpSpec(OpKind.TRIM, "Facility Type"),
        OpSpec(OpKind.UPPER, "Facility Type"),
        OpSpec(OpKind.MASS_EDIT, "Facility Type", MassEditSpec.of([(["a"], "b")])),
        OpSpec(OpKind.MASS_EDIT, "Facility Type", MassEditSpec.of([(["c"], "d")])),
        OpSpec(OpKind.MASS_EDIT, "Facility Type", MassEditSpec.of([(["e"], "f")])),
        OpSpec(OpKind.REGEXR_TRANSFORM, "Inspection ID", _year_expr()),
        OpSpec(OpKind.NUMERIC, "Inspection ID"),
        OpSpec(OpKind.DATE, "Inspection Date"),
    )
    stats = op_stats(Workflow(steps))
    assert stats.list_length == 8
    assert stats.set_length == 6
    assert stats.counts["mass_edit"] == 3


def _year_expr():
    from dcflow import parse_transform_expr

    return parse_transform_expr(
        "jython: import re\nmatch = re.search(r'\\b\\d{4}\\b', value)\nif match:\n    return match.group(0)"
    )


def test_op_stats_empty():
    stats = op_stats(Workflow())
    assert (stats.list_length, stats.set_length, stats.counts) == (0, 0, {})


def test_op_stats_repeated_single_op():
    wf = Workflow(tuple(OpSpec(OpKind.TRIM, "a") for _ in range(3)))
    stats = op_stats(wf)
    assert (stats.list_length, stats.set_length) == (3, 1)
    assert stats.counts == {"trim": 3}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_serialize_round_trip_property(seed):
    rng = random.Random(seed)
    table = random_table(rng)
    wf = random_workflow(rng, table)
    data = serialize(wf)
    assert deserialize(data) == wf
    assert serialize(deserialize(data)) == data


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_replay_deterministic_in_process(seed):
    rng = random.Random(seed)
    table = random_table(rng, max_rows=6)
    wf = random_workflow(rng, table, max_steps=5)
    a = replay(wf, table)
    b = replay(wf, table)
    assert a == b


def _one_step_doc(op: str, args) -> bytes:
    step = {"index": 1, "op": op, "column": "a", "args": args, "rationale": None}
    return json.dumps({"version": "dcflow/1", "steps": [step]}).encode()


_GRAMMAR = (
    "parse error at offset 8: expected 'import re', 'match = re.search(...)', "
    "'if match: return match.group(k)' or 'return <expr>'"
)


@pytest.mark.parametrize(
    "op, args, path, reason",
    [
        ("upper", {"edits": []}, "steps[0].args", "upper takes no arguments"),
        ("trim", "x", "steps[0].args", "trim takes no arguments"),
        ("mass_edit", {}, "steps[0].args", "mass_edit requires an 'edits' argument object"),
        ("mass_edit", None, "steps[0].args", "mass_edit requires an 'edits' argument object"),
        (
            "regexr_transform",
            {},
            "steps[0].args",
            "regexr_transform requires an 'expression' argument",
        ),
        ("mass_edit", {"edits": "x"}, "steps[0].args.edits", "must be a list"),
        (
            "mass_edit",
            {"edits": [{"from": "a", "to": "b"}]},
            "steps[0].args.edits[0]",
            "must be {'from': [str], 'to': str}",
        ),
        (
            "mass_edit",
            {"edits": [{"from": ["a"], "to": "b"}, {"from": ["a"], "to": "c"}]},
            "steps[0].args.edits",
            "'a' appears in more than one 'from' list",
        ),
        (
            "mass_edit",
            {"edits": [{"from": [], "to": "b"}]},
            "steps[0].args.edits",
            "edit 0 has an empty 'from' list",
        ),
        (
            "regexr_transform",
            {"expr": "jython: return value"},
            "steps[0].args",
            "regexr_transform requires an 'expression' argument",
        ),
        (
            "regexr_transform",
            {"expression": 3},
            "steps[0].args",
            "regexr_transform requires an 'expression' argument",
        ),
        (
            "regexr_transform",
            {"expression": "jython: exec(value)"},
            "steps[0].args.expression",
            _GRAMMAR,
        ),
    ],
)
def test_deserialize_malformed_args_path_and_reason(op, args, path, reason):
    with pytest.raises(SchemaError) as exc:
        deserialize(_one_step_doc(op, args))
    assert (exc.value.path, exc.value.reason) == (path, reason)


def _sample_args():
    from dcflow import parse_transform_expr

    # One entry per operation: a new OpKind member without an entry here
    # fails the loops below.
    return {
        OpKind.UPPER: None,
        OpKind.TRIM: None,
        OpKind.NUMERIC: None,
        OpKind.DATE: None,
        OpKind.MASS_EDIT: MassEditSpec.of([(["a", "b"], "c"), (["d"], "e")]),
        OpKind.REGEXR_TRANSFORM: parse_transform_expr(
            "jython: match = re.search(r'(\\d+)', value)\nif match: return match.group(1)"
        ),
    }


def test_every_op_round_trips_through_serialize():
    samples = _sample_args()
    for op in OpKind:
        wf = Workflow(
            (OpSpec(op, "a", samples[op], rationale="why"),), source_table_id="t", purpose_id="p"
        )
        data = serialize(wf)
        assert deserialize(data) == wf, op
        assert serialize(deserialize(data)) == data, op


def test_every_op_rejects_a_wrong_argument_type():
    samples = _sample_args()
    candidates = [None] + [v for v in samples.values() if v is not None]
    for op in OpKind:
        for wrong in candidates:
            if wrong is samples[op]:
                continue
            with pytest.raises(ValueError):
                OpSpec(op, "a", wrong)


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_history_tables_share_the_columns_their_step_left_alone(seed):
    rng = random.Random(seed)
    table = random_table(rng)
    workflow = random_workflow(rng, table)
    tables = replay(workflow, table).tables
    for step, before, after in zip(workflow.steps, tables, tables[1:]):
        for name in table.columns:
            if name != step.column:
                assert after.column_values(name) is before.column_values(name)
