"""Independent reference implementations the tests check against.

These are deliberately written from the definitions, not by calling the
package: brute-force block matching for similarity, a per-cell loop with its
own equivalence test for the column ratio, recursive maximum matching for
multiset overlap, and small independent parsers for numbers/whitespace.

The last section keeps the straightforward versions of code that was since
rewritten for speed or brevity (error injection, query filters, the eval
report's JSON form, the column prompts, the trace records), verbatim, so the
rewrites can be checked against them.
"""

from __future__ import annotations

import json
import re
import unicodedata
from datetime import datetime, timezone
from decimal import Decimal
from fractions import Fraction


def longest_block(a: str, b: str) -> tuple[int, int, int]:
    """Longest common contiguous block as (i, j, size); ties resolved to the
    lowest i, then the lowest j."""
    best_i = best_j = best_size = 0
    for i in range(len(a)):
        for j in range(len(b)):
            size = 0
            while i + size < len(a) and j + size < len(b) and a[i + size] == b[j + size]:
                size += 1
            if size > best_size:
                best_i, best_j, best_size = i, j, size
    return best_i, best_j, best_size


def matched_chars(a: str, b: str) -> int:
    i, j, size = longest_block(a, b)
    if size == 0:
        return 0
    return (
        size
        + matched_chars(a[:i], b[:j])
        + matched_chars(a[i + size :], b[j + size :])
    )


def similarity_oracle(a: str, b: str) -> float:
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 2.0 * matched_chars(a, b) / total


_NUM_RE = re.compile(r"^[+-]?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d*)?$")


def numeric_value(text: str):
    t = text.strip()
    if not _NUM_RE.match(t):
        return None
    return Decimal(t.replace(",", "").rstrip("."))


def delta_oracle(pred, gold) -> int:
    """Independent re-derivation of the cell equivalence test, from the
    package's Cell values but with its own comparison logic."""
    from dcflow import CellKind

    if pred.kind is CellKind.MISSING or gold.kind is CellKind.MISSING:
        return int(pred.kind is CellKind.MISSING and gold.kind is CellKind.MISSING)

    def num(cell):
        if cell.kind is CellKind.NUMBER:
            return cell.value
        if cell.kind is CellKind.TEXT:
            return numeric_value(cell.value)
        return None

    np, ng = num(pred), num(gold)
    if np is not None and ng is not None and np == ng:
        return 1
    if pred.kind is CellKind.DATE and gold.kind is CellKind.DATE:
        return int(pred.value == gold.value)
    if (np is None) != (ng is None):
        return 0
    return int(pred.render().lower() == gold.render().lower())


def column_ratio_oracle(pred, gold, targets) -> Fraction:
    """Eq-by-hand mean of per-cell matches, in exact arithmetic."""
    total = Fraction(0)
    for name in targets:
        pj = pred.columns.index(name)
        gj = gold.columns.index(name)
        if pred.n_rows == 0:
            total += 1
            continue
        hits = sum(
            delta_oracle(prow[pj], grow[gj])
            for prow, grow in zip(pred.rows, gold.rows)
        )
        total += Fraction(hits, pred.n_rows)
    return total / len(targets)


def max_matching_oracle(pred: list, gold: list) -> int:
    """Exhaustive maximum matching between two small multisets."""
    if not pred:
        return 0
    head, rest = pred[0], pred[1:]
    best = max_matching_oracle(rest, gold)
    for k, g in enumerate(gold):
        if g == head:
            best = max(best, 1 + max_matching_oracle(rest, gold[:k] + gold[k + 1 :]))
    return best


def strip_whitespace_oracle(text: str) -> str:
    """Codepoint-class whitespace stripper (Zs category plus controls)."""

    def is_space(ch: str) -> bool:
        return unicodedata.category(ch) == "Zs" or ch in "\t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85"

    start = 0
    end = len(text)
    while start < end and is_space(text[start]):
        start += 1
    while end > start and is_space(text[end - 1]):
        end -= 1
    return text[start:end]


def parse_date_oracle(text: str, fmt: str) -> datetime:
    """Single-format calendar parse used to freeze expected date values."""
    return datetime.strptime(text, fmt).replace(tzinfo=timezone.utc)


# ---------------------------------------------------------------------------
# replaced implementations, kept verbatim as differential references


def inject_errors_oracle(table, profile):
    """``inject_errors`` as it was before its pools were built once: every
    injection rescans every target cell for every family."""
    import random

    from dcflow.benchmark import ErrorLog, ErrorLogEntry, _corrupt, _eligible
    from dcflow.errors import NoEligibleCellsError
    from dcflow.table import Table

    for name in profile.columns:
        table.column_index(name)
    rng = random.Random(profile.seed)
    total = table.n_rows * len(profile.columns)
    target = int(profile.rate * total + 0.5)
    rows = [list(row) for row in table.rows]
    col_indices = {name: table.column_index(name) for name in profile.columns}
    families = [f for f, w in profile.mix.items() if w > 0]
    weights = [profile.mix[f] for f in families]
    corrupted: set[tuple[int, str]] = set()
    entries: list[ErrorLogEntry] = []

    if target > 0:
        any_eligible = any(
            _eligible(rows[i][j], family)
            for family in families
            for name, j in col_indices.items()
            for i in range(table.n_rows)
        )
        if not any_eligible:
            raise NoEligibleCellsError("no target cell is eligible for any family")

    while len(entries) < target:
        open_by_family = {
            family: [
                (i, name)
                for name, j in col_indices.items()
                for i in range(table.n_rows)
                if (i, name) not in corrupted and _eligible(rows[i][j], family)
            ]
            for family in families
        }
        usable = [f for f in families if open_by_family[f]]
        if not usable:
            break
        family = rng.choices(usable, weights=[profile.mix[f] for f in usable], k=1)[0]
        i, name = rng.choice(open_by_family[family])
        j = col_indices[name]
        original = rows[i][j]
        replacement = _corrupt(original, family, rng)
        rows[i][j] = replacement
        corrupted.add((i, name))
        entries.append(ErrorLogEntry(i, name, original, replacement, family))

    dirty = Table(table.columns, tuple(tuple(r) for r in rows), table.provenance)
    return dirty, ErrorLog(tuple(entries))


def _cell_number(cell):
    from dcflow.cells import CellKind, parse_number

    if cell.kind is CellKind.NUMBER:
        return cell.value
    if cell.kind is CellKind.TEXT:
        return parse_number(cell.value)
    return None


def _cell_instant(cell):
    from dcflow.cells import CellKind, parse_date

    if cell.kind is CellKind.DATE:
        return cell.value
    if cell.kind is CellKind.TEXT:
        return parse_date(cell.value)
    return None


def _filter_matches(f, cell) -> bool:
    if cell.is_missing:
        return False
    if f.op in ("=", "!="):
        eq = _values_equal(cell, f.value)
        return eq if f.op == "=" else not eq
    if f.op == "contains":
        return f.value.render() in cell.render()
    if f.op in ("before", "after"):
        lit = _cell_instant(f.value)
        got = _cell_instant(cell)
        if lit is None or got is None:
            return False
        return got < lit if f.op == "before" else got > lit
    cmp = _compare(cell, f.value)
    if cmp is None:
        return False
    return {"<": cmp < 0, "<=": cmp <= 0, ">": cmp > 0, ">=": cmp >= 0}[f.op]


def _values_equal(a, b) -> bool:
    na, nb = _cell_number(a), _cell_number(b)
    if na is not None and nb is not None:
        return na == nb
    da, db = _cell_instant(a), _cell_instant(b)
    if da is not None and db is not None:
        return da == db
    return a.render() == b.render()


def _compare(a, b):
    from dcflow.cells import CellKind

    na, nb = _cell_number(a), _cell_number(b)
    if na is not None and nb is not None:
        return (na > nb) - (na < nb)
    da, db = _cell_instant(a), _cell_instant(b)
    if da is not None and db is not None:
        return (da > db) - (da < db)
    if a.kind is CellKind.TEXT and b.kind is CellKind.TEXT:
        ra, rb = a.render(), b.render()
        return (ra > rb) - (ra < rb)
    return None


def filter_rows_oracle(query, table):
    """``execute_purpose``'s row filter as it was before the literal's
    coercions were hoisted: every filter re-coerces both sides per row."""
    return [
        row
        for row in table.rows
        if all(_filter_matches(f, row[table.column_index(f.column)]) for f in query.filters)
    ]


def report_to_json_oracle(report) -> dict:
    """``evaluation.report_to_json`` as it was written out by hand, field by
    field, before it became ``dataclasses.asdict``."""
    return {
        "cases": [
            {
                "case_id": c.case_id,
                "topic": c.topic,
                "system": c.system,
                "answer": {
                    "exact": c.answer.exact,
                    "precision": c.answer.precision,
                    "recall": c.answer.recall,
                    "f1": c.answer.f1,
                    "similarity": c.answer.similarity,
                },
                "column": {"ratio": c.column.ratio, "per_column": c.column.per_column},
                "workflow": None
                if c.workflow is None
                else {
                    "exact": c.workflow.exact,
                    "precision": c.workflow.precision,
                    "recall": c.workflow.recall,
                    "f1": c.workflow.f1,
                    "pred_stats": {
                        "list_length": c.workflow.pred_stats.list_length,
                        "set_length": c.workflow.pred_stats.set_length,
                        "counts": c.workflow.pred_stats.counts,
                    },
                    "gold_stats": {
                        "list_length": c.workflow.gold_stats.list_length,
                        "set_length": c.workflow.gold_stats.set_length,
                        "counts": c.workflow.gold_stats.counts,
                    },
                },
            }
            for c in report.cases
        ],
        "aggregates": [
            {
                "system": r.system,
                "group": r.group,
                "n_cases": r.n_cases,
                "answer": r.answer,
                "column_ratio": r.column_ratio,
                "workflow": r.workflow,
            }
            for r in report.rows
        ],
    }


def _fill_oracle(template: str, **slots: str) -> str:
    # Plain textual substitution; templates may contain literal braces.
    for key, value in slots.items():
        template = template.replace("{" + key + "}", value)
    return template


def _render_history_oracle(workflow) -> str:
    # The old form printed ``s.step_index``, which ``Workflow`` forced to be
    # the step's 1-based position; that position is what is printed here.
    if not workflow.steps:
        return "(none)"
    return "\n".join(
        f"{i}. {s.op.value} on {s.column}" for i, s in enumerate(workflow.steps, 1)
    )


def build_inspect_prompt_oracle(templates, column, values, purpose, history) -> str:
    """``agent.prompts.build_inspect_prompt`` as it was before the two column
    prompts shared one helper and slots were filled in one pass."""
    from dcflow.agent.prompts import STAGE_INSPECT, render_column_block

    body = _fill_oracle(
        templates.quality_report,
        table_block=render_column_block(column, values),
        purpose=purpose,
        column=column,
        history=_render_history_oracle(history),
    )
    return f"Task stage: {STAGE_INSPECT}\nTarget column: {column}\n\n{body}"


def build_choose_prompt_oracle(templates, column, values, purpose, report, history) -> str:
    """``agent.prompts.build_choose_prompt``, likewise."""
    from dcflow.agent.prompts import STAGE_CHOOSE, render_column_block, render_report

    body = _fill_oracle(
        templates.operations,
        table_block=render_column_block(column, values),
        purpose=purpose,
        column=column,
        report=render_report(report),
        history=_render_history_oracle(history),
    )
    return f"Task stage: {STAGE_CHOOSE}\nTarget column: {column}\n\n{body}"


def params_to_json_oracle(params) -> dict:
    """The removed ``DecodingParams.to_json``."""
    return {
        "temperature": params.temperature,
        "top_k": params.top_k,
        "top_p": params.top_p,
        "mirostat": params.mirostat,
        "max_output_tokens": params.max_output_tokens,
        "stop": list(params.stop),
    }


def call_to_json_oracle(call) -> dict:
    """The removed ``TraceCall.to_json``."""
    return {
        "type": "call",
        "stage": call.stage,
        "column": call.column,
        "attempt": call.attempt,
        "prompt": call.prompt,
        "response": call.response,
        "params": params_to_json_oracle(call.params),
        "outcome": call.outcome,
    }


def event_to_json_oracle(event) -> dict:
    """The removed ``TraceEvent.to_json``."""
    return {
        "type": "event",
        "kind": event.kind,
        "column": event.column,
        "message": event.message,
    }


def trace_to_jsonl_oracle(trace) -> str:
    """``Trace.to_jsonl`` as it was, built from the three methods above."""
    records = [call_to_json_oracle(c) for c in trace.calls] + [
        event_to_json_oracle(e) for e in trace.events
    ]
    return "\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n"
