"""Restricted cell-transform snippets: parser and evaluator.

Snippets look like tiny Python programs prefixed with ``jython:`` but they
are parsed by a closed grammar, never executed by a real interpreter. The
accepted statements, in order, are::

    jython:
    import re                                   (optional)
    match = re.search(r'<pattern>', value)      (optional)
    if match: return match.group(<k>)           (optional, needs the search)
    return <expr>                               (optional fallback)

where ``<expr>`` is one of ``value``, a string literal,
``match.group(<k>)``, ``re.sub(r'<p>', '<r>', value)``, ``value.strip()``,
``value.upper()`` or ``value.lower()``. At least one return must be
present. Anything outside the grammar raises ParseError: this is a safety
boundary for model-generated code, not best-effort scripting.

Quoted pattern/literal content is taken verbatim (the optional ``r`` prefix
and either quote style are accepted); escape handling is left to the regex
engine. Statements may be separated by newlines or semicolons.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .cells import Cell, CellKind
from .errors import ParseError, SchemaError
from .jsonread import obj, string

PREFIX = "jython:"

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


class ReturnKind(Enum):
    VALUE = "value"
    LITERAL = "literal"
    GROUP = "group"
    SUB = "sub"
    STRIP = "strip"
    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class ReturnExpr:
    kind: ReturnKind
    literal: str | None = None
    group: int | None = None
    pattern: str | None = None
    replacement: str | None = None


@dataclass(frozen=True)
class TransformExpr:
    """Parsed form of a snippet; ``source`` keeps the original text."""

    source: str
    search_pattern: str | None
    conditional_group: int | None
    fallback: ReturnExpr | None

    @classmethod
    def from_json(cls, raw: Any, path: str) -> "TransformExpr":
        """Parse ``{"expression": "<snippet>"}``."""
        expression = obj(raw, path, expression=string)["expression"]
        try:
            return parse_transform_expr(expression)
        except ParseError as exc:
            raise SchemaError(f"{path}.expression", str(exc)) from exc

    def to_json(self) -> dict:
        return {"expression": self.source}


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
    try:
        return re.compile(pattern)
    except re.error as exc:
        raise ParseError(pos, f"a valid regular expression ({exc})") from None


def _parse_return(stmt: str, pos: int, compiled: re.Pattern | None) -> ReturnExpr:
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
    if compiled is None:
        raise ParseError(pos, "'match = re.search(...)' before match.group is used")
    if k > compiled.groups:
        raise ParseError(pos, f"a capture group that exists (pattern has {compiled.groups})")


def parse_transform_expr(source: str) -> TransformExpr:
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


def eval_transform_expr(expr: TransformExpr, cell: Cell) -> Cell:
    """Apply a parsed snippet to one cell.

    Non-text cells pass through untouched, and a failed match with no
    fallback leaves the cell unchanged; evaluation never raises.
    """
    if cell.kind is not CellKind.TEXT:
        return cell
    value = cell.value
    match = re.search(expr.search_pattern, value) if expr.search_pattern else None
    if expr.conditional_group is not None and match is not None:
        group = match.group(expr.conditional_group)
        if group is not None:
            return Cell.text(group)
    fb = expr.fallback
    if fb is None:
        return cell
    if fb.kind is ReturnKind.VALUE:
        return cell
    if fb.kind is ReturnKind.LITERAL:
        return Cell.text(fb.literal)
    if fb.kind is ReturnKind.GROUP:
        if match is None:
            return cell
        group = match.group(fb.group)
        return Cell.text(group) if group is not None else cell
    if fb.kind is ReturnKind.SUB:
        return Cell.text(re.sub(fb.pattern, fb.replacement, value))
    if fb.kind is ReturnKind.STRIP:
        return Cell.text(value.strip())
    if fb.kind is ReturnKind.UPPER:
        return Cell.text(value.upper())
    return Cell.text(value.lower())
