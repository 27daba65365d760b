"""Restricted cell-transform snippets: parser and evaluator.

Snippets are tiny Python programs prefixed with ``jython:``, as in
OpenRefine. CPython's own parser (``ast``) reads them, so string literals,
escapes, line breaks, semicolons and indentation mean what they mean in
Python. The body may follow the prefix on its line or start on the next
as an indented block. The syntax tree must then fit a closed grammar;
nothing is ever executed. The accepted statements, in order, are::

    jython:
    import re                                   (optional)
    match = re.search(<str>, value)             (optional)
    if match:                                   (optional, needs the search)
        return match.group(<k>)
    return <expr>                               (optional fallback)

where ``<expr>`` is one of ``value``, a string literal,
``match.group(<k>)``, ``re.sub(<str>, <str>, value)``, ``value.strip()``,
``value.upper()`` or ``value.lower()``. At least one return must be
present. Anything outside the grammar raises ParseError: this is a safety
boundary for model-generated code, not best-effort scripting.
"""

from __future__ import annotations

import ast
import re
import textwrap
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
_ORDER = "'import re', 'match = re.search(...)', 'if match:', 'return': in that order, once each"
_IMPORT, _SEARCH, _IF, _RETURN = range(4)  # statement ranks in grammar order


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


def _compile_pattern(pattern: str, pos: int) -> re.Pattern:
    try:
        return re.compile(pattern)
    except re.error as exc:
        raise ParseError(pos, f"a valid regular expression ({exc})") from None


def _parse_return(node: ast.expr | None, pos: int, compiled: re.Pattern | None) -> ReturnExpr:
    match node:
        case ast.Name("value"):
            return ReturnExpr(ReturnKind.VALUE)
        case ast.Constant(str() as literal):
            return ReturnExpr(ReturnKind.LITERAL, literal=literal)
        case ast.Call(ast.Attribute(ast.Name("match"), "group"), [ast.Constant(k)], []):
            _check_group(k, compiled, pos)
            return ReturnExpr(ReturnKind.GROUP, group=k)
        case ast.Call(
            ast.Attribute(ast.Name("re"), "sub"),
            [ast.Constant(str() as pattern), ast.Constant(str() as replacement), ast.Name("value")],
            [],
        ):
            sub_compiled = _compile_pattern(pattern, pos)
            try:
                re.sub(sub_compiled, replacement, "")
            except re.error as exc:
                raise ParseError(pos, f"a valid substitution template ({exc})") from None
            return ReturnExpr(ReturnKind.SUB, pattern=pattern, replacement=replacement)
        case ast.Call(
            ast.Attribute(ast.Name("value"), "strip" | "upper" | "lower" as method), [], []
        ):
            return ReturnExpr(ReturnKind(method))
    raise ParseError(
        pos,
        "'return value', a string literal, 'match.group(k)', "
        "'re.sub(...)' or a strip/upper/lower call",
    )


def _check_group(k: Any, compiled: re.Pattern | None, pos: int) -> None:
    if compiled is None:
        raise ParseError(pos, "'match = re.search(...)' before match.group is used")
    if type(k) is not int:  # a bool would pass isinstance(k, int)
        raise ParseError(pos, "an integer group number")
    if k > compiled.groups:
        raise ParseError(pos, f"a capture group that exists (pattern has {compiled.groups})")


def _offset(source: str, text: str, node: ast.AST) -> int:
    """The offset in ``source`` of a node that ``ast`` parsed from ``text``.

    ``text`` is a tail of ``source`` with CR and CRLF read as LF, as Python
    reads them, and then dedented. Dedent removes only line prefixes, so a
    node lies as far from the end of its line in both. ``ast`` counts
    columns in UTF-8 bytes.
    """
    line = [0, *(m.end() for m in re.finditer("\n", text))][node.lineno - 1]
    rest = text[line + len(text[line:].encode()[: node.col_offset].decode()) :]
    line_ends = [m.start() for m in re.finditer(r"\r\n?|\n", source)] + [len(source)]
    return line_ends[-1 - rest.count("\n")] - len(rest.partition("\n")[0])


def parse_transform_expr(source: str) -> TransformExpr:
    stripped = source.lstrip()
    if not stripped.startswith(PREFIX):
        raise ParseError(0, f"the literal prefix '{PREFIX}'")
    body = stripped[len(PREFIX) :].lstrip(" \t")
    text = textwrap.dedent(re.sub(r"\r\n?", "\n", body))
    try:
        tree = ast.parse(text)
    except (SyntaxError, ValueError, MemoryError, RecursionError) as exc:
        position = len(source) - len(body)
        raise ParseError(position, f"Python syntax ({type(exc).__name__}: {exc})") from None

    search_pattern: str | None = None
    compiled: re.Pattern | None = None
    conditional_group: int | None = None
    fallback: ReturnExpr | None = None
    last = -1
    for stmt in tree.body:
        pos = _offset(source, text, stmt)
        match stmt:
            case ast.Import([ast.alias("re", None)]):
                rank = _IMPORT
            case ast.Assign(
                [ast.Name("match")],
                ast.Call(
                    ast.Attribute(ast.Name("re"), "search"),
                    [ast.Constant(str() as search_pattern), ast.Name("value")],
                    [],
                ),
            ):
                rank, compiled = _SEARCH, _compile_pattern(search_pattern, pos)
            case ast.If(
                ast.Name("match"),
                [ast.Return(ast.Call(ast.Attribute(ast.Name("match"), "group")) as call)],
                [],
            ):
                rank, conditional_group = _IF, _parse_return(call, pos, compiled).group
            case ast.Return(returned):
                rank, fallback = _RETURN, _parse_return(returned, pos, compiled)
            case _:
                raise ParseError(pos, _EXPECTED_STMT)
        if rank <= last:
            raise ParseError(pos, _ORDER)
        last = rank

    if conditional_group is None and fallback is None:
        raise ParseError(len(source), "at least one return statement")
    return TransformExpr(source, search_pattern, conditional_group, fallback)


def eval_transform_expr(expr: TransformExpr, cell: Cell) -> Cell:
    """Apply a parsed snippet to one cell.

    Non-text cells pass through untouched. Where the snippet run as Python
    would return None (a group that took no part in the match) or fail
    (``match.group`` after a failed search), or a failed match has no
    fallback, the cell is unchanged. Evaluation never raises.
    """
    if cell.kind is not CellKind.TEXT:
        return cell
    value = cell.value
    match = re.search(expr.search_pattern, value) if expr.search_pattern is not None else None
    if expr.conditional_group is not None and match is not None:
        group = match.group(expr.conditional_group)
        return Cell.text(group) if group is not None else cell
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
