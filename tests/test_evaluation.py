import random
import string
from datetime import datetime

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
    aggregate,
    delta_equiv,
    eval_answer,
    eval_columns,
    eval_workflow,
    similarity,
)
from dcflow.errors import EmptyInputError, ShapeMismatchError
from dcflow.evaluation import (
    CaseResult,
    ColumnScores,
    op_stats_csv,
    per_case_csv,
    render_report_table,
)
from dcflow.query import Answer
from dcflow.workflow import op_stats

from genutil import random_table
from oracles import (
    column_ratio_oracle,
    max_matching_oracle,
    similarity_oracle,
)


# similarity ------------------------------------------------------------

def test_similarity_fixed_cases():
    assert similarity("abc", "abc") == 1.0
    assert similarity("abcd", "bcde") == 0.75
    assert similarity("", "x") == 0.0
    assert similarity("", "") == 1.0


@given(st.text(alphabet=string.ascii_lowercase + " ", max_size=20),
       st.text(alphabet=string.ascii_lowercase + " ", max_size=20))
def test_similarity_matches_recursive_oracle(a, b):
    assert similarity(a, b) == similarity_oracle(a, b)


@given(st.text(max_size=20), st.text(max_size=20))
def test_similarity_bounded_and_one_exactly_on_equality(a, b):
    s = similarity(a, b)
    assert 0.0 <= s <= 1.0
    assert (s == 1.0) == (a == b)


def test_similarity_is_order_sensitive_on_ties():
    # Greedy longest-block matching recurses differently depending on which
    # side ties are broken from, so the score is not symmetric in general.
    # Callers always pass (predicted, gold) in that order.
    assert similarity("12", "2102") != similarity("2102", "12")
    # the independent oracle agrees in both directions
    assert similarity_oracle("12", "2102") == similarity("12", "2102")
    assert similarity_oracle("2102", "12") == similarity("2102", "12")


# delta_equiv -----------------------------------------------------------

JAN_5 = Cell.date(datetime(2024, 1, 5))


@pytest.mark.parametrize(
    "t,g,expected",
    [
        (Cell.text("Restaurant"), Cell.text("RESTAURANT"), 1),
        (Cell.number(1000), Cell.text("1000."), 1),
        (Cell.text("N/A"), Cell.number(5), 0),
        (Cell.missing(), Cell.missing(), 1),
        (Cell.missing(), Cell.text(""), 0),
        (Cell.text("1,000"), Cell.text("1000"), 1),
        (Cell.text("5"), Cell.text("6"), 0),
        # numbers: by value, whatever the spelling
        (Cell.text(" 42 "), Cell.number("42.0"), 1),
        (Cell.text("2024"), Cell.number("2024"), 1),
        (Cell.text("$42"), Cell.number("42"), 0),
        (Cell.text("0.50"), Cell.text(".5"), 0),  # ".5" is not in the numeric grammar
        # dates: by canonical rendering, case-insensitive, never by instant
        (JAN_5, Cell.date(datetime(2024, 1, 5)), 1),
        (JAN_5, Cell.text("2024-01-05T00:00:00Z"), 1),
        (JAN_5, Cell.text("2024-01-05t00:00:00z"), 1),
        (JAN_5, Cell.text("01/05/2024"), 0),
        (JAN_5, Cell.text("2024-01-05"), 0),
        (JAN_5, Cell.text("January 05, 2024"), 0),
        (Cell.text("2024-01-05"), Cell.text("2024/01/05"), 0),
        # text: case-insensitive, whitespace kept
        (Cell.text("Chicago "), Cell.text("Chicago"), 0),
    ],
)
def test_delta_equiv_cases(t, g, expected):
    assert delta_equiv(t, g) == expected
    assert delta_equiv(g, t) == expected


# eval_columns ----------------------------------------------------------

def test_eval_columns_identity_is_one():
    rng = random.Random(3)
    t = random_table(rng, max_rows=6)
    assert eval_columns(t, t, list(t.columns)).ratio == 1.0


def test_eval_columns_hand_case():
    pred = Table.from_rows(
        ["a", "b"],
        [[Cell.text("x"), Cell.text("y")], [Cell.text("x"), Cell.text("WRONG")]],
    )
    gold = Table.from_rows(
        ["a", "b"],
        [[Cell.text("x"), Cell.text("y")], [Cell.text("x"), Cell.text("y")]],
    )
    scores = eval_columns(pred, gold, ["a", "b"])
    assert scores.ratio == pytest.approx(0.75)
    assert scores.per_column == {"a": 1.0, "b": 0.5}


def test_eval_columns_all_missing_column_scores_one():
    pred = Table.from_rows(["a"], [[Cell.missing()], [Cell.missing()]])
    assert eval_columns(pred, pred, ["a"]).ratio == 1.0


def test_eval_columns_shape_mismatch():
    a = Table.from_rows(["a"], [[Cell.text("x")]])
    b = Table.from_rows(["a"], [])
    with pytest.raises(ShapeMismatchError):
        eval_columns(a, b, ["a"])


def test_eval_columns_monotone_under_extra_corruption():
    rng = random.Random(11)
    gold = random_table(rng, max_rows=8)
    if gold.n_rows == 0:
        return
    pred = gold
    ratio = eval_columns(pred, gold, list(gold.columns)).ratio
    # corrupt cells one at a time; the ratio never goes up
    for i in range(gold.n_rows):
        for name in gold.columns:
            values = list(pred.column_values(name))
            values[i] = Cell.text("corrupted-value-xyz")
            pred = pred.replace_column(name, values)
            new_ratio = eval_columns(pred, gold, list(gold.columns)).ratio
            assert new_ratio <= ratio + 1e-12
            ratio = new_ratio


# eval_answer -----------------------------------------------------------

def fig2_gold():
    return Answer.value_list(
        [Cell.text("SCHOOL"), Cell.text("RESTAURANT"), Cell.text("GROCERY STORE")]
    )


def test_eval_answer_exact_set():
    scores = eval_answer(fig2_gold(), fig2_gold())
    assert scores.exact
    assert (scores.precision, scores.recall, scores.f1) == (1.0, 1.0, 1.0)
    assert scores.similarity == 1.0


def test_eval_answer_dirty_fig2_set():
    pred = Answer.value_list(
        [
            Cell.text("SCHOOOL"),
            Cell.text("RESTUARANT"),
            Cell.text("school"),
            Cell.text("GROCRY STORE"),
        ]
    )
    scores = eval_answer(pred, fig2_gold())
    assert not scores.exact
    assert scores.precision == pytest.approx(0.25)
    assert scores.recall == pytest.approx(1 / 3)


def test_eval_answer_scalar_canonical_text():
    scores = eval_answer(
        Answer.scalar(Cell.text("4")), Answer.scalar(Cell.number(4))
    )
    assert scores.exact
    assert scores.similarity == 1.0


def test_eval_answer_scalar_vs_list_coerced():
    scores = eval_answer(
        Answer.scalar(Cell.text("RESTAURANT")),
        Answer.value_list([Cell.text("RESTAURANT")]),
    )
    assert scores.precision == 1.0 and scores.recall == 1.0


def test_eval_answer_matches_records_whatever_their_key_order():
    pred = Answer.of_records([{"zip": Cell.text("60614"), "value": Cell.number(3)}])
    gold = Answer.of_records([{"value": Cell.number(3), "zip": Cell.text("60614")}])
    scores = eval_answer(pred, gold)
    assert scores.exact
    assert (scores.precision, scores.recall) == (1.0, 1.0)


def test_eval_answer_precision_recall_swap():
    a = Answer.value_list([Cell.text("x"), Cell.text("y")])
    b = Answer.value_list([Cell.text("y")])
    ab = eval_answer(a, b)
    ba = eval_answer(b, a)
    assert ab.precision == ba.recall
    assert ab.recall == ba.precision


@settings(max_examples=80)
@given(st.integers(0, 100_000))
def test_eval_answer_matching_agrees_with_exhaustive(seed):
    rng = random.Random(seed)
    pool = ["SCHOOL", "school", "1000", "1,000", "x", "N/A", ""]
    pred_cells = [Cell.text(rng.choice(pool)) for _ in range(rng.randrange(0, 5))]
    gold_cells = [Cell.text(rng.choice(pool)) for _ in range(rng.randrange(1, 5))]
    scores = eval_answer(Answer.value_list(pred_cells), Answer.value_list(gold_cells))
    from dcflow.evaluation import match_key

    matched = max_matching_oracle(
        [match_key(c) for c in pred_cells], [match_key(c) for c in gold_cells]
    )
    expected_p = matched / len(pred_cells) if pred_cells else 0.0
    expected_r = matched / len(gold_cells)
    assert scores.precision == pytest.approx(expected_p)
    assert scores.recall == pytest.approx(expected_r)


# eval_workflow ---------------------------------------------------------

def _me(*pairs):
    return MassEditSpec.of([(list(f), t) for f, t in pairs])


def silver_cfi_workflow():
    from dcflow import parse_transform_expr

    year = parse_transform_expr(
        "jython: import re\nmatch = re.search(r'\\d+', value)\nif match:\n    return match.group(0)"
    )
    return Workflow(
        (
            OpSpec(OpKind.TRIM, "Facility Type"),
            OpSpec(OpKind.UPPER, "Facility Type"),
            OpSpec(OpKind.MASS_EDIT, "Facility Type", _me((("SCHOOOL",), "SCHOOL"))),
            OpSpec(OpKind.MASS_EDIT, "Facility Type", _me((("RESTUARANT",), "RESTAURANT"))),
            OpSpec(OpKind.MASS_EDIT, "Facility Type", _me((("GROCRY STORE",), "GROCERY STORE"))),
            OpSpec(OpKind.REGEXR_TRANSFORM, "Inspection ID", year),
            OpSpec(OpKind.NUMERIC, "Inspection ID"),
            OpSpec(OpKind.DATE, "Inspection Date"),
        )
    )


def stepwise_cfi_workflow():
    return Workflow(
        (
            OpSpec(OpKind.TRIM, "Facility Type"),
            OpSpec(OpKind.MASS_EDIT, "Facility Type", _me((("SCHOOOL", "school"), "SCHOOL"))),
            OpSpec(OpKind.MASS_EDIT, "Facility Type", _me((("GROCRY STORE",), "GROCERY STORE"))),
            OpSpec(OpKind.MASS_EDIT, "Inspection ID", _me((("#2305",), "2305"))),
            OpSpec(OpKind.DATE, "Inspection Date"),
        )
    )


def test_eval_workflow_exact_on_self():
    wf = silver_cfi_workflow()
    scores = eval_workflow(wf, wf)
    assert scores.exact and scores.f1 == 1.0


def test_eval_workflow_case_study_pair():
    scores = eval_workflow(stepwise_cfi_workflow(), silver_cfi_workflow())
    assert not scores.exact
    assert scores.precision == pytest.approx(0.8)
    assert scores.recall == pytest.approx(0.5)
    assert scores.f1 == pytest.approx(8 / 13, abs=1e-9)
    assert scores.gold_stats.list_length == 8
    assert scores.gold_stats.set_length == 6


def test_eval_workflow_empty_pred():
    scores = eval_workflow(Workflow(), silver_cfi_workflow())
    assert (scores.precision, scores.recall, scores.f1) == (0.0, 0.0, 0.0)
    assert not scores.exact


def test_eval_workflow_both_empty():
    scores = eval_workflow(Workflow(), Workflow())
    assert scores.exact and scores.f1 == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_eval_workflow_matches_exhaustive_on_small_workflows(seed):
    rng = random.Random(seed)
    cols = ["a", "b"]
    ops = [OpKind.TRIM, OpKind.UPPER, OpKind.NUMERIC]
    def mk(n):
        return [(rng.choice(cols), rng.choice(ops)) for _ in range(n)]
    pred_items = mk(rng.randrange(0, 6))
    gold_items = mk(rng.randrange(1, 6))
    pred = Workflow(tuple(OpSpec(op, c) for c, op in pred_items))
    gold = Workflow(tuple(OpSpec(op, c) for c, op in gold_items))
    scores = eval_workflow(pred, gold)
    matched = max_matching_oracle(pred_items, gold_items)
    assert scores.precision == pytest.approx(matched / len(pred_items) if pred_items else 0.0)
    assert scores.recall == pytest.approx(matched / len(gold_items))


# column-ratio oracle sweep ----------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 1_000_000))
def test_eval_columns_matches_per_cell_oracle(seed):
    rng = random.Random(seed)
    gold = random_table(rng, max_rows=10, max_cols=6)
    pred = random_table(rng, max_rows=10, max_cols=6)
    if pred.n_rows != gold.n_rows:
        return
    shared = [c for c in gold.columns if c in pred.columns]
    if not shared:
        return
    scores = eval_columns(pred, gold, shared)
    expected = column_ratio_oracle(pred, gold, shared)
    assert abs(scores.ratio - float(expected)) <= 1e-12


# aggregation -----------------------------------------------------------

def _case(case_id, topic, system, ratio, workflow=None):
    answers = eval_answer(Answer.scalar(Cell.text("x")), Answer.scalar(Cell.text("x")))
    columns = ColumnScores(ratio=ratio, per_column={"a": ratio})
    return CaseResult(case_id, topic, system, answers, columns, workflow)


def test_aggregate_single_case_equals_itself():
    report = aggregate([_case("c1", "t", "cleaned", 0.5)])
    overall = [r for r in report.rows if r.group == "overall"][0]
    assert overall.column_ratio == 0.5
    assert overall.n_cases == 1


def test_aggregate_mean_of_two():
    report = aggregate(
        [_case("c1", "t", "cleaned", 0.5), _case("c2", "t", "cleaned", 1.0)]
    )
    overall = [r for r in report.rows if r.group == "overall"][0]
    assert overall.column_ratio == pytest.approx(0.75)


def test_aggregate_baseline_has_no_workflow_metrics():
    wf_scores = eval_workflow(Workflow(), Workflow())
    report = aggregate(
        [
            _case("c1", "t", "baseline", 0.4, workflow=None),
            _case("c1", "t", "cleaned", 0.9, workflow=wf_scores),
        ]
    )
    by_system = {r.system: r for r in report.rows if r.group == "overall"}
    assert by_system["baseline"].workflow is None
    assert by_system["cleaned"].workflow is not None
    text = render_report_table(report)
    baseline_line = [l for l in text.splitlines() if "baseline" in l][0]
    assert "--" in baseline_line


def test_aggregate_empty_raises():
    with pytest.raises(EmptyInputError):
        aggregate([])


def test_report_renderers_run():
    report = aggregate([_case("c1", "t", "cleaned", 1.0)])
    assert "col_ratio" in render_report_table(report)
    assert "case_id" in per_case_csv(report)
    csv_text = op_stats_csv({"c1/silver": op_stats(silver_cfi_workflow())})
    assert "c1/silver,8,6" in csv_text


def test_report_to_json_matches_field_by_field_oracle(tmp_path):
    import json

    from dcflow import load_case, load_suite, serialize
    from dcflow.cli import _eval_case
    from dcflow.data import bundled_suite_path
    from dcflow.evaluation import report_to_json

    from oracles import report_to_json_oracle

    # Gold tables as the cleaned output; every other case drops its last
    # silver step so the workflow scores and op counts differ.
    results = []
    for k, entry in enumerate(load_suite(bundled_suite_path())):
        case = load_case(entry.path)
        steps = case.silver_workflow.steps
        predicted = Workflow(steps[:-1] if k % 2 else steps, case.silver_workflow.source_table_id)
        d = tmp_path / case.purpose.id
        d.mkdir()
        (d / "cleaned.csv").write_bytes((entry.path.parent / "gold.csv").read_bytes())
        (d / "workflow.json").write_bytes(serialize(predicted))
        scored, findings = _eval_case(case, entry.topic, tmp_path)
        assert not findings
        results.extend(scored)
    assert len(results) == 16
    report = aggregate(results)

    def dump(doc):
        return json.dumps(doc, ensure_ascii=False, indent=2)

    assert dump(report_to_json(report)) == dump(report_to_json_oracle(report))
