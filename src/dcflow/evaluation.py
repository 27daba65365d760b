"""Scoring along three dimensions: answer, column values, and workflow.

The column dimension is the mean fraction of target-column cells that are
equivalent to the ground truth (``match_key``): cells that read as numbers
compare by value, and all others, dates included, by their case-insensitive
rendering. The answer dimension matches collection elements as an
order-insensitive multiset under the same equivalence, plus a
character-level similarity over canonical renderings.
The workflow dimension compares (column, operation) multisets against the
silver reference; arguments are deliberately ignored since different
argument choices can express the same repair.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from difflib import SequenceMatcher
from typing import Mapping, Optional, Sequence

from .cells import Cell, cell_number, format_number
from .errors import EmptyInputError, ShapeMismatchError
from .query import Answer, AnswerKind, answer_to_canonical_text
from .table import Table
from .workflow import OpStats, Workflow, op_stats


def similarity(a: str, b: str) -> float:
    """Gestalt ratio: twice the recursively-matched characters over total.

    Matching finds the longest contiguous common block, then recurses into
    the unmatched regions on either side. Two empty strings score 1.
    """
    if not a and not b:
        return 1.0
    matcher = SequenceMatcher(None, a, b, autojunk=False)
    return matcher.ratio()


def match_key(cell: Cell) -> tuple:
    """Equivalence key: a cell ``cell_number`` reads compares by value; any
    other cell by its lower-cased rendering, so a date matches only text that
    spells its canonical ``YYYY-MM-DDTHH:MM:SSZ`` form, never another
    spelling of the same instant. Missing only matches missing."""
    if cell.is_missing:
        return ("missing",)
    number = cell_number(cell)
    if number is not None:
        return ("number", number)
    return ("text", cell.render().lower())


def delta_equiv(t: Cell, g: Cell) -> int:
    return int(match_key(t) == match_key(g))


@dataclass(frozen=True)
class AnswerScores:
    exact: bool
    precision: float
    recall: float
    f1: float
    similarity: float


@dataclass(frozen=True)
class ColumnScores:
    ratio: float
    per_column: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class WorkflowScores:
    exact: bool
    precision: float
    recall: float
    f1: float
    pred_stats: OpStats
    gold_stats: OpStats


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def _key_text(key: tuple) -> list:
    # Decimal components are rendered canonically so equal numbers collide.
    if key[0] == "number":
        return ["number", format_number(key[1])]
    return list(key)


def _answer_elements(answer: Answer) -> list[tuple]:
    if answer.kind is AnswerKind.SCALAR:
        return [match_key(answer.value)]
    if answer.kind is AnswerKind.VALUE_LIST:
        return [match_key(c) for c in answer.values]
    keys = []
    for record in answer.records:
        normalized = {k: _key_text(match_key(c)) for k, c in record.items()}
        keys.append(("record", json.dumps(normalized, sort_keys=True)))
    return keys


def _multiset_matched(pred: Sequence, gold: Sequence) -> int:
    counts: dict = {}
    for key in gold:
        counts[key] = counts.get(key, 0) + 1
    matched = 0
    for key in pred:
        if counts.get(key, 0) > 0:
            counts[key] -= 1
            matched += 1
    return matched


def eval_answer(pred: Answer, gold: Answer) -> AnswerScores:
    pred_text = answer_to_canonical_text(pred)
    gold_text = answer_to_canonical_text(gold)
    exact = pred_text == gold_text
    pred_elems = _answer_elements(pred)
    gold_elems = _answer_elements(gold)
    matched = _multiset_matched(pred_elems, gold_elems)
    precision = matched / len(pred_elems) if pred_elems else 0.0
    recall = matched / len(gold_elems) if gold_elems else 0.0
    return AnswerScores(
        exact=exact,
        precision=precision,
        recall=recall,
        f1=_f1(precision, recall),
        similarity=similarity(pred_text, gold_text),
    )


def eval_columns(pred: Table, gold: Table, target_columns: Sequence[str]) -> ColumnScores:
    if pred.n_rows != gold.n_rows:
        raise ShapeMismatchError(
            f"row counts differ: {pred.n_rows} vs {gold.n_rows}"
        )
    if not target_columns:
        raise EmptyInputError("no target columns to score")
    per_column: dict[str, float] = {}
    for name in target_columns:
        pred_values = pred.column_values(name)
        gold_values = gold.column_values(name)
        if pred.n_rows == 0:
            per_column[name] = 1.0
            continue
        hits = sum(delta_equiv(p, g) for p, g in zip(pred_values, gold_values))
        per_column[name] = hits / pred.n_rows
    ratio = sum(per_column.values()) / len(per_column)
    return ColumnScores(ratio=ratio, per_column=per_column)


def eval_workflow(pred: Workflow, gold: Workflow) -> WorkflowScores:
    """Overlap between predicted and silver operations, matched on
    (column, operation) pairs."""
    pred_items = [(s.column, s.op) for s in pred.steps]
    gold_items = [(s.column, s.op) for s in gold.steps]
    exact = pred_items == gold_items
    if not pred_items and not gold_items:
        return WorkflowScores(True, 1.0, 1.0, 1.0, op_stats(pred), op_stats(gold))
    matched = _multiset_matched(pred_items, gold_items)
    precision = matched / len(pred_items) if pred_items else 0.0
    recall = matched / len(gold_items) if gold_items else 0.0
    return WorkflowScores(
        exact=exact,
        precision=precision,
        recall=recall,
        f1=_f1(precision, recall),
        pred_stats=op_stats(pred),
        gold_stats=op_stats(gold),
    )


# ---------------------------------------------------------------------------
# per-case results and suite aggregation

@dataclass(frozen=True)
class CaseResult:
    case_id: str
    topic: str
    system: str
    answer: AnswerScores
    column: ColumnScores
    workflow: Optional[WorkflowScores] = None


@dataclass(frozen=True)
class AggregateRow:
    system: str
    group: str  # a topic, or "overall"
    n_cases: int
    answer: dict[str, float]
    column_ratio: float
    workflow: Optional[dict[str, float]]


@dataclass(frozen=True)
class EvalReport:
    cases: tuple[CaseResult, ...]
    rows: tuple[AggregateRow, ...]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _means(scores: Sequence, names: Sequence[str]) -> dict[str, float]:
    return {m: _mean([float(getattr(s, m)) for s in scores]) for m in names}


def _aggregate_group(system: str, group: str, cases: Sequence[CaseResult]) -> AggregateRow:
    with_wf = [c.workflow for c in cases if c.workflow is not None]
    return AggregateRow(
        system,
        group,
        len(cases),
        _means([c.answer for c in cases], ("exact", "precision", "recall", "f1", "similarity")),
        _mean([c.column.ratio for c in cases]),
        _means(with_wf, ("exact", "precision", "recall", "f1")) if with_wf else None,
    )


def aggregate(cases: Sequence[CaseResult]) -> EvalReport:
    """Arithmetic means per system, per topic and overall."""
    if not cases:
        raise EmptyInputError("no case results to aggregate")
    rows: list[AggregateRow] = []
    systems = []
    for c in cases:
        if c.system not in systems:
            systems.append(c.system)
    for system in systems:
        mine = [c for c in cases if c.system == system]
        rows.append(_aggregate_group(system, "overall", mine))
        topics = []
        for c in mine:
            if c.topic not in topics:
                topics.append(c.topic)
        for topic in topics:
            rows.append(
                _aggregate_group(system, topic, [c for c in mine if c.topic == topic])
            )
    return EvalReport(tuple(cases), tuple(rows))


def report_to_json(report: EvalReport) -> dict:
    """The report as JSON-ready dicts; keys follow the dataclass field order."""
    return {
        "cases": [asdict(c) for c in report.cases],
        "aggregates": [asdict(r) for r in report.rows],
    }


def render_report_table(report: EvalReport) -> str:
    """Aligned text table; baseline rows leave workflow cells as "--"."""
    headers = (
        "group",
        "system",
        "n",
        "ans_exact",
        "ans_P",
        "ans_R",
        "ans_F1",
        "ans_sim",
        "col_ratio",
        "wf_exact",
        "wf_P",
        "wf_R",
        "wf_F1",
    )
    lines = [headers]
    for r in report.rows:
        wf = r.workflow
        lines.append(
            (
                r.group,
                r.system,
                str(r.n_cases),
                f"{r.answer['exact']:.4f}",
                f"{r.answer['precision']:.4f}",
                f"{r.answer['recall']:.4f}",
                f"{r.answer['f1']:.4f}",
                f"{r.answer['similarity']:.4f}",
                f"{r.column_ratio:.4f}",
                "--" if wf is None else f"{wf['exact']:.4f}",
                "--" if wf is None else f"{wf['precision']:.4f}",
                "--" if wf is None else f"{wf['recall']:.4f}",
                "--" if wf is None else f"{wf['f1']:.4f}",
            )
        )
    widths = [max(len(row[i]) for row in lines) for i in range(len(headers))]
    out = []
    for row in lines:
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(out) + "\n"


def per_case_csv(report: EvalReport) -> str:
    header = (
        "case_id,topic,system,ans_exact,ans_precision,ans_recall,ans_f1,ans_similarity,"
        "col_ratio,wf_exact,wf_precision,wf_recall,wf_f1"
    )
    rows = [header]
    for c in report.cases:
        wf = c.workflow
        rows.append(
            ",".join(
                [
                    c.case_id,
                    c.topic,
                    c.system,
                    str(int(c.answer.exact)),
                    f"{c.answer.precision:.6f}",
                    f"{c.answer.recall:.6f}",
                    f"{c.answer.f1:.6f}",
                    f"{c.answer.similarity:.6f}",
                    f"{c.column.ratio:.6f}",
                    "" if wf is None else str(int(wf.exact)),
                    "" if wf is None else f"{wf.precision:.6f}",
                    "" if wf is None else f"{wf.recall:.6f}",
                    "" if wf is None else f"{wf.f1:.6f}",
                ]
            )
        )
    return "\n".join(rows) + "\n"


def op_stats_csv(stats: Mapping[str, OpStats]) -> str:
    """CSV of workflow length stats, one row per labeled workflow."""
    from .ops import OpKind

    names = [op.value for op in OpKind]
    rows = ["label,list_length,set_length," + ",".join(names)]
    for label in sorted(stats):
        s = stats[label]
        rows.append(
            ",".join(
                [label, str(s.list_length), str(s.set_length)]
                + [str(s.counts.get(n, 0)) for n in names]
            )
        )
    return "\n".join(rows) + "\n"
