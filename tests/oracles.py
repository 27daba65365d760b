"""Independent reference implementations the tests check against.

These are deliberately written from the definitions, not by calling the
package: brute-force block matching for similarity, a per-cell loop with its
own equivalence test for the column ratio, recursive maximum matching for
multiset overlap, and small independent parsers for numbers/whitespace.

The last section keeps the straightforward versions of code that was since
rewritten for speed or brevity (error injection, query filters, the eval
report's JSON form, the column prompts, the trace records, the row-stored
table, the regex-based transform parser), verbatim, so the rewrites can be
checked against them.
"""

from __future__ import annotations

import csv
import io
import json
import re
import unicodedata
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Sequence


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

    dirty = Table.from_rows(table.columns, rows, table.provenance)
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


# The row-stored table and its CSV reader and writer, as they were before
# the table stored its columns. Only the name ``RowTable`` and the imports
# differ.


@dataclass(frozen=True)
class RowTable:
    columns: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]
    provenance: str | None = None

    def __post_init__(self):
        from dcflow.errors import DuplicateColumnError, RowArityError

        seen = set()
        for name in self.columns:
            if name in seen:
                raise DuplicateColumnError(name)
            seen.add(name)
        width = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise RowArityError(i + 1, width, len(row))

    @classmethod
    def from_rows(
        cls,
        columns: Sequence[str],
        rows: Iterable[Sequence[Cell]],
        provenance: str | None = None,
    ) -> "RowTable":
        return cls(tuple(columns), tuple(tuple(r) for r in rows), provenance)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    def column_index(self, name: str) -> int:
        from dcflow.errors import UnknownColumnError

        try:
            return self.columns.index(name)
        except ValueError:
            raise UnknownColumnError(name, self.columns) from None

    def column_values(self, name: str) -> tuple[Cell, ...]:
        j = self.column_index(name)
        return tuple(row[j] for row in self.rows)

    def replace_column(self, name: str, values: Sequence[Cell]) -> "RowTable":
        from dcflow.errors import RowArityError

        j = self.column_index(name)
        if len(values) != self.n_rows:
            raise RowArityError(0, self.n_rows, len(values))
        new_rows = tuple(
            row[:j] + (values[i],) + row[j + 1 :] for i, row in enumerate(self.rows)
        )
        return replace(self, rows=new_rows)


def load_table_oracle(data: bytes, *, provenance: str | None = None) -> RowTable:
    from dcflow.cells import MISSING, Cell
    from dcflow.errors import EmptyInputError, EncodingError

    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"payload is not valid UTF-8: {exc}") from exc
    records = list(csv.reader(io.StringIO(text, newline="")))
    if not records:
        raise EmptyInputError("empty CSV payload")
    # Table checks the column names and each row's width.
    rows = tuple(
        tuple(MISSING if f == "" else Cell.text(f) for f in record) for record in records[1:]
    )
    return RowTable(tuple(records[0]), rows, provenance)


def table_to_csv_oracle(table) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([cell.render() for cell in row])
    return buf.getvalue().encode("utf-8")


# transform snippets ----------------------------------------------------------

_EXPECTED_STMT = (
    "'import re', 'match = re.search(...)', 'if match: return match.group(k)' "
    "or 'return <expr>'"
)

# A quoted string with optional r prefix, single or double quotes.
_QS = r"r?(?:'(?:\\.|[^'\\])*'|\"(?:\\.|[^\"\\])*\")"

_IMPORT_RE = re.compile(r"import\s+re")
_SEARCH_RE = re.compile(rf"match\s*=\s*re\.search\(\s*({_QS})\s*,\s*value\s*\)")
_IF_RE = re.compile(r"if\s+match\s*:(.*)", re.DOTALL)
_RET_GROUP_RE = re.compile(r"return\s+match\.group\(\s*(\d+)\s*\)")
_RET_VALUE_RE = re.compile(r"return\s+value")
_RET_LITERAL_RE = re.compile(rf"return\s+({_QS})")
_RET_SUB_RE = re.compile(
    rf"return\s+re\.sub\(\s*({_QS})\s*,\s*({_QS})\s*,\s*value\s*\)"
)
_RET_METHOD_RE = re.compile(r"return\s+value\.(strip|upper|lower)\(\s*\)")


def _unquote(qs: str) -> str:
    if qs.startswith("r"):
        qs = qs[1:]
    return qs[1:-1]


def _split_statements(body: str, base: int) -> list[tuple[int, str]]:
    """Split on newlines and semicolons outside quoted strings."""
    stmts: list[tuple[int, str]] = []
    start = 0
    quote: str | None = None
    escaped = False
    for i, ch in enumerate(body):
        if quote is not None:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch in ";\n":
            stmts.append((base + start, body[start:i]))
            start = i + 1
    stmts.append((base + start, body[start:]))
    out = []
    for pos, raw in stmts:
        stripped = raw.strip()
        if stripped:
            out.append((pos + raw.index(stripped[0]), stripped))
    return out


def _compile_pattern(pattern: str, pos: int) -> re.Pattern:
    from dcflow.errors import ParseError

    try:
        return re.compile(pattern)
    except re.error as exc:
        raise ParseError(pos, f"a valid regular expression ({exc})") from None


def _parse_return(stmt: str, pos: int, compiled: re.Pattern | None):
    from dcflow.errors import ParseError
    from dcflow.transform import ReturnExpr, ReturnKind

    m = _RET_VALUE_RE.fullmatch(stmt)
    if m:
        return ReturnExpr(ReturnKind.VALUE)
    m = _RET_GROUP_RE.fullmatch(stmt)
    if m:
        k = int(m.group(1))
        _check_group(k, compiled, pos)
        return ReturnExpr(ReturnKind.GROUP, group=k)
    m = _RET_SUB_RE.fullmatch(stmt)
    if m:
        pattern = _unquote(m.group(1))
        replacement = _unquote(m.group(2))
        sub_compiled = _compile_pattern(pattern, pos)
        try:
            re.sub(sub_compiled, replacement, "")
        except re.error as exc:
            raise ParseError(pos, f"a valid substitution template ({exc})") from None
        return ReturnExpr(ReturnKind.SUB, pattern=pattern, replacement=replacement)
    m = _RET_METHOD_RE.fullmatch(stmt)
    if m:
        return ReturnExpr(ReturnKind(m.group(1)))
    m = _RET_LITERAL_RE.fullmatch(stmt)
    if m:
        return ReturnExpr(ReturnKind.LITERAL, literal=_unquote(m.group(1)))
    raise ParseError(
        pos,
        "'return value', a string literal, 'match.group(k)', "
        "'re.sub(...)' or a strip/upper/lower call",
    )


def _check_group(k: int, compiled: re.Pattern | None, pos: int) -> None:
    from dcflow.errors import ParseError

    if compiled is None:
        raise ParseError(pos, "'match = re.search(...)' before match.group is used")
    if k > compiled.groups:
        raise ParseError(pos, f"a capture group that exists (pattern has {compiled.groups})")


def parse_transform_expr_oracle(source: str):
    """``transform.parse_transform_expr`` as it was before it parsed with
    ``ast``: a hand-written statement splitter and one regex per statement.
    Quoted content is taken verbatim, so it agrees with the ``ast`` parser
    on raw literals only."""
    from dcflow.errors import ParseError
    from dcflow.transform import PREFIX, TransformExpr

    stripped = source.lstrip()
    if not stripped.startswith(PREFIX):
        raise ParseError(0, f"the literal prefix '{PREFIX}'")
    offset = len(source) - len(stripped) + len(PREFIX)
    stmts = _split_statements(source[offset:], offset)

    search_pattern: str | None = None
    compiled: re.Pattern | None = None
    conditional_group: int | None = None
    fallback: ReturnExpr | None = None
    imported = False
    state = 0  # 0: start, 1: after search, 2: after conditional, 3: after fallback

    i = 0
    while i < len(stmts):
        pos, stmt = stmts[i]
        if state >= 3:
            raise ParseError(pos, "no statements after the trailing return")
        if _IMPORT_RE.fullmatch(stmt):
            if state > 0 or imported:
                raise ParseError(pos, "a single 'import re' at the start")
            imported = True
            i += 1
            continue
        m = _SEARCH_RE.fullmatch(stmt)
        if m:
            if state > 0:
                raise ParseError(pos, "a single 'match = re.search(...)' binding")
            search_pattern = _unquote(m.group(1))
            compiled = _compile_pattern(search_pattern, pos)
            state = 1
            i += 1
            continue
        m = _IF_RE.fullmatch(stmt)
        if m:
            if state > 1:
                raise ParseError(pos, "at most one 'if match:' block")
            if compiled is None:
                raise ParseError(pos, "'match = re.search(...)' before 'if match:'")
            tail = m.group(1).strip()
            if not tail:
                i += 1
                if i >= len(stmts):
                    raise ParseError(pos, "'return match.group(k)' after 'if match:'")
                pos, tail = stmts[i]
            gm = _RET_GROUP_RE.fullmatch(tail)
            if not gm:
                raise ParseError(pos, "'return match.group(k)' as the if-match body")
            conditional_group = int(gm.group(1))
            _check_group(conditional_group, compiled, pos)
            state = 2
            i += 1
            continue
        if stmt.startswith("return"):
            fallback = _parse_return(stmt, pos, compiled)
            state = 3
            i += 1
            continue
        raise ParseError(pos, _EXPECTED_STMT)

    if conditional_group is None and fallback is None:
        raise ParseError(len(source), "at least one return statement")
    return TransformExpr(source, search_pattern, conditional_group, fallback)
