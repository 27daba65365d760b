"""Parsers for model responses, tolerant of surrounding chatter.

Each parser returns None when the response cannot be used; the pipeline
turns that into one retry at a higher temperature and then a stage error.
"""

from __future__ import annotations

import ast
import json
import logging
import re
from dataclasses import dataclass

from ..errors import ParseError, SchemaError
from ..ops import MassEditSpec, OpKind
from ..transform import TransformExpr, parse_transform_expr

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class QualityReport:
    """Per-column verdicts; None means the dimension was rated NA.

    The flag is true exactly when no dimension is False, and cleaning
    objectives are present exactly when the flag is false.
    """

    accuracy: bool | None
    relevance: bool | None
    completeness: bool | None
    conciseness: bool | None
    flag: bool
    explanation: str
    objectives: tuple[str, ...] = ()

    def __post_init__(self):
        dims = (self.accuracy, self.relevance, self.completeness, self.conciseness)
        expected = all(d in (True, None) for d in dims)
        if self.flag != expected:
            raise ValueError("flag must be true exactly when no dimension is False")
        if self.flag and self.objectives:
            raise ValueError("a passing report carries no objectives")
        if not self.flag and not self.objectives:
            raise ValueError("a failing report must name objectives")


@dataclass(frozen=True)
class OpChoice:
    op: OpKind
    explanation: str


def _find_balanced(text: str, open_ch: str, close_ch: str) -> str | None:
    """Return the first balanced [...] / {...} slice, quote-aware."""
    start = None
    depth = 0
    quote = None
    escaped = False
    for i, ch in enumerate(text):
        if quote is not None:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == quote:
                quote = None
            continue
        if ch in "'\"":
            if start is not None:
                quote = ch
            continue
        if ch == open_ch:
            if start is None:
                start = i
            depth += 1
        elif ch == close_ch and start is not None:
            depth -= 1
            if depth == 0:
                return text[start : i + 1]
    return None


def parse_column_list(response: str) -> list[str] | None:
    """Extract the bracketed column list, e.g. ``['country']``."""
    snippet = _find_balanced(response, "[", "]")
    if snippet is None:
        return None
    try:
        value = ast.literal_eval(snippet)
    except (ValueError, SyntaxError):
        return None
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        return None
    return value


_DIM_RE = re.compile(
    r"^\s*(accuracy|relevance|completeness|conciseness)\s*:\s*(true|false|na|n/a)\b(.*)$",
    re.IGNORECASE,
)
_OBJECTIVE_RE = re.compile(r"^\s*(?:[-*]|\d+[.)])\s*(.+)$")


def parse_quality_report(response: str) -> QualityReport | None:
    dims: dict[str, bool | None] = {}
    notes: list[str] = []
    objectives: list[str] = []
    in_objectives = False
    for line in response.splitlines():
        m = _DIM_RE.match(line)
        if m:
            verdict = m.group(2).lower()
            dims[m.group(1).lower()] = None if verdict.startswith("n") else verdict == "true"
            note = m.group(3).strip()
            if note:
                notes.append(f"{m.group(1).lower()}: {note}")
            in_objectives = False
            continue
        if re.match(r"^\s*objectives?\s*:", line, re.IGNORECASE):
            in_objectives = True
            continue
        if in_objectives:
            m = _OBJECTIVE_RE.match(line)
            if m:
                objectives.append(m.group(1).strip())
            elif line.strip():
                in_objectives = False
    if not dims:
        return None
    flag = all(dims.get(d) in (True, None) for d in dims)
    explanation = " ".join(notes) if notes else response.strip()
    if flag:
        objectives = []
    elif not objectives:
        objectives = [explanation]
    return QualityReport(
        accuracy=dims.get("accuracy"),
        relevance=dims.get("relevance"),
        completeness=dims.get("completeness"),
        conciseness=dims.get("conciseness"),
        flag=flag,
        explanation=explanation,
        objectives=tuple(objectives),
    )


_SELECTED_OP_RE = re.compile(r"selected\s+operation\s*:\s*`*\s*(\w+)", re.IGNORECASE)


def parse_op_choice(response: str) -> OpChoice | None:
    """Exact-name match against the six operations.

    A "Selected Operation:" line wins; otherwise the response must mention
    exactly one operation name.
    """
    explanation = ""
    m = re.search(r"explanation\s*:\s*(.+)", response, re.IGNORECASE | re.DOTALL)
    if m:
        explanation = m.group(1).strip()
    m = _SELECTED_OP_RE.search(response)
    if m:
        try:
            return OpChoice(OpKind(m.group(1).lower()), explanation)
        except ValueError:
            return None
    found = {
        op for op in OpKind if re.search(rf"\b{re.escape(op.value)}\b", response)
    }
    if len(found) == 1:
        return OpChoice(found.pop(), explanation)
    return None


def parse_mass_edit_args(response: str) -> MassEditSpec | None:
    snippet = _find_balanced(response, "[", "]")
    if snippet is None:
        return None
    try:
        # ValueError covers malformed JSON and integers past Python's digit limit.
        return MassEditSpec.from_json({"edits": json.loads(snippet)}, "args")
    except (ValueError, SchemaError) as exc:
        logger.warning("rejected mass_edit arguments: %s", exc)
        return None


def parse_transform_args(response: str) -> TransformExpr | None:
    start = response.find("jython:")
    if start == -1:
        return None
    snippet = response[start:]
    # Trim a closing code fence and trailing backticks, if any.
    fence = snippet.find("```")
    if fence != -1:
        snippet = snippet[:fence]
    snippet = snippet.strip().strip("`").strip()
    try:
        return parse_transform_expr(snippet)
    except ParseError as exc:
        logger.warning("rejected transform snippet: %s", exc)
        return None
