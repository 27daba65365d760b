import pytest

from dcflow import Cell
from dcflow.errors import ParseError
from dcflow.transform import (
    ReturnKind,
    eval_transform_expr,
    parse_transform_expr,
)

YEAR_SNIPPET = (
    "jython: import re\n"
    "match = re.search(r'\\b\\d{4}\\b', value)\n"
    "if match:\n"
    "    return match.group(0)"
)

# Snippets the closed grammar must reject: loops, foreign assignments,
# arbitrary calls, attribute tricks, and malformed quoting.
OUT_OF_GRAMMAR = [
    "jython: while True: pass",
    "jython: for c in value: return c",
    "jython: import os\nreturn value",
    "jython: x = 1\nreturn value",
    "jython: match = re.match(r'a', value)\nreturn value",
    "jython: return open('/etc/passwd').read()",
    "jython: return value + value",
    "jython: return value.title()",
    "jython: return value.upper().lower()",
    "jython: return match.group(0)",  # no search bound
    "jython: import re\nmatch = re.search(r'(a)', value)\nif match: return match.group(2)",
    "jython: import re\nmatch = re.search(r'[', value)\nif match: return match.group(0)",
    "jython: import re\nreturn re.sub(r'(a)', r'\\2', value)",
    "jython: if match: return match.group(0)",
    "jython: return",
    "jython: print(value)",
    "jython:",
    "return value",  # missing prefix
    "jython: import re; import re; return value",
    "jython: return value; return value",
    "jython: def f():\n    return value",
    "jython: __import__('os')\nreturn value",
    "jython: return eval('1+1')",
    "jython: match = re.search(r'a', value)\nmatch = re.search(r'b', value)\nreturn value",
    "jython: lambda: value",
]


def test_year_snippet_parses():
    expr = parse_transform_expr(YEAR_SNIPPET)
    assert expr.search_pattern == r"\b\d{4}\b"
    assert expr.conditional_group == 0
    assert expr.fallback is None


def test_year_snippet_single_line_form():
    one_line = (
        "jython: import re; match = re.search(r'\\b\\d{4}\\b', value); "
        "if match: return match.group(0)"
    )
    expr = parse_transform_expr(one_line)
    assert expr.search_pattern == r"\b\d{4}\b"
    assert expr.conditional_group == 0


@pytest.mark.parametrize(
    "text,expected",
    [
        ("Feyerabend,1975,", "1975"),
        ("Collins,1985", "1985"),
        ("Stanford,2006", "2006"),
    ],
)
def test_year_snippet_extracts(text, expected):
    expr = parse_transform_expr(YEAR_SNIPPET)
    assert eval_transform_expr(expr, Cell.text(text)).render() == expected


def test_no_match_no_fallback_leaves_cell():
    expr = parse_transform_expr(YEAR_SNIPPET)
    cell = Cell.text("no year here")
    assert eval_transform_expr(expr, cell) is cell


def test_identity_program():
    expr = parse_transform_expr("jython: return value")
    cell = Cell.text("abc")
    assert eval_transform_expr(expr, cell) is cell


def test_upper_return():
    expr = parse_transform_expr("jython: return value.upper()")
    assert eval_transform_expr(expr, Cell.text("abc")).render() == "ABC"


def test_literal_return():
    expr = parse_transform_expr("jython: return 'fixed'")
    assert eval_transform_expr(expr, Cell.text("anything")).render() == "fixed"


def test_sub_return():
    expr = parse_transform_expr("jython: return re.sub(r'\\s+', ' ', value)")
    assert eval_transform_expr(expr, Cell.text("a   b")).render() == "a b"


def test_conditional_with_fallback():
    expr = parse_transform_expr(
        "jython: import re\n"
        "match = re.search(r'(\\d+)', value)\n"
        "if match:\n"
        "    return match.group(1)\n"
        "return 'none'"
    )
    assert expr.fallback.kind is ReturnKind.LITERAL
    assert eval_transform_expr(expr, Cell.text("id-42")).render() == "42"
    assert eval_transform_expr(expr, Cell.text("nope")).render() == "none"


def test_non_text_cells_untouched():
    expr = parse_transform_expr("jython: return value.upper()")
    cell = Cell.missing()
    assert eval_transform_expr(expr, cell) is cell


@pytest.mark.parametrize("source", OUT_OF_GRAMMAR)
def test_out_of_grammar_rejected(source):
    with pytest.raises(ParseError):
        parse_transform_expr(source)


def test_parse_error_carries_position_and_expected():
    with pytest.raises(ParseError) as exc:
        parse_transform_expr("jython: while True: pass")
    assert exc.value.position > 0
    assert "return" in exc.value.expected or "import" in exc.value.expected


def test_double_quoted_patterns_accepted():
    expr = parse_transform_expr('jython: import re\nmatch = re.search(r"\\d+", value)\nif match: return match.group(0)')
    assert expr.search_pattern == r"\d+"


def test_return_value_snippet_is_identity():
    cell = Cell.text("x")
    assert eval_transform_expr(parse_transform_expr("jython: return value"), cell) is cell
