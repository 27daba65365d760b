import re
import textwrap

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dcflow import Cell, CellKind
from dcflow.errors import ParseError, SchemaError
from dcflow.transform import (
    ReturnKind,
    TransformExpr,
    eval_transform_expr,
    parse_transform_expr,
)

from oracles import parse_transform_expr_oracle

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
    # A compound statement cannot follow ';' in Python, so the one-line form
    # of the year snippet is a syntax error.
    "jython: import re; match = re.search(r'\\b\\d{4}\\b', value); if match: return match.group(0)",
]


def test_year_snippet_parses():
    expr = parse_transform_expr(YEAR_SNIPPET)
    assert expr.search_pattern == r"\b\d{4}\b"
    assert expr.conditional_group == 0
    assert expr.fallback is None


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


# Python's meaning ------------------------------------------------------------


@pytest.mark.parametrize(
    "source,value,expected",
    [
        ("jython: return 'a\\tb'", "x", "a\tb"),
        (
            "jython: import re\nmatch = re.search('\\\\d+', value)\nif match:\n"
            "    return match.group(0)",
            "ab12",
            "12",
        ),
        ("jython: return re.sub(r'(\\d)', '<\\\\1>', value)", "ab12", "ab<1><2>"),
        ('jython: return u"a" \'b\'', "x", "ab"),
    ],
)
def test_literals_decode_as_python_does(source, value, expected):
    expr = parse_transform_expr(source)
    assert eval_transform_expr(expr, Cell.text(value)).render() == expected


def test_statement_after_inline_if_body_is_rejected():
    # Python puts both returns in the if body; the grammar allows only one.
    with pytest.raises(ParseError):
        parse_transform_expr(
            "jython: import re\nmatch = re.search(r'\\d', value)\n"
            "if match: return match.group(0); return 'none'"
        )


def test_unindented_if_body_is_rejected():
    with pytest.raises(ParseError):
        parse_transform_expr(
            "jython: match = re.search(r'\\d', value)\nif match:\nreturn match.group(0)"
        )


def test_indented_block_after_bare_prefix_parses():
    expr = parse_transform_expr(
        "jython:\n    import re\n    match = re.search(r'(\\d+)', value)\n"
        "    if match:\n        return match.group(1)\r\n    return 'none'"
    )
    assert (expr.search_pattern, expr.conditional_group) == (r"(\d+)", 1)
    assert expr.fallback.literal == "none"


# every return form, and the group fallbacks -----------------------------------

_SEARCH = "jython: match = re.search(r'(a)?(\\d+)', value)\n"


@pytest.mark.parametrize(
    "ret,kind,value,expected",
    [
        ("return value", ReturnKind.VALUE, "x1", "x1"),
        ("return 'lit'", ReturnKind.LITERAL, "x1", "lit"),
        ("return match.group(2)", ReturnKind.GROUP, "x12", "12"),
        ("return re.sub(r'\\d', '#', value)", ReturnKind.SUB, "x12", "x##"),
        ("return value.strip()", ReturnKind.STRIP, " x1 ", "x1"),
        ("return value.upper()", ReturnKind.UPPER, "x1", "X1"),
        ("return value.lower()", ReturnKind.LOWER, "X1", "x1"),
    ],
)
def test_each_return_form(ret, kind, value, expected):
    expr = parse_transform_expr(_SEARCH + ret)
    assert expr.fallback.kind is kind
    assert eval_transform_expr(expr, Cell.text(value)).render() == expected


@pytest.mark.parametrize("value", ["no digits", "12"])
def test_group_fallback_without_a_group_leaves_cell(value):
    # No match at all, and a match whose group 1 did not take part.
    expr = parse_transform_expr(_SEARCH + "return match.group(1)")
    cell = Cell.text(value)
    assert eval_transform_expr(expr, cell) is cell


def test_conditional_group_that_did_not_take_part_leaves_cell():
    # Python's ``if match: return match.group(1)`` returns None here and
    # never reaches the fallback.
    expr = parse_transform_expr(_SEARCH + "if match:\n    return match.group(1)\nreturn 'none'")
    cell = Cell.text("12")
    assert eval_transform_expr(expr, cell) is cell
    assert eval_transform_expr(expr, Cell.text("xyz")).render() == "none"


def test_empty_search_pattern_always_matches():
    expr = parse_transform_expr("jython: match = re.search('', value)\nif match: return match.group(0)")
    assert eval_transform_expr(expr, Cell.text("abc")).render() == ""


# every ParseError, at the offset of the statement at fault ---------------------


@pytest.mark.parametrize(
    "source,at,expected",
    [
        ("return value", "return value", "the literal prefix"),
        ("jython: return value\n  return value", "return value\n", "Python syntax"),
        ("jython: return value\0", "return value\0", "Python syntax"),
        ("jython: import re\nx = 1", "x = 1", "'import re', "),
        ("jython: return value\nimport re", "import re", "in that order"),
        ("jython: import re\nimport re\nreturn value", "import re\nreturn", "in that order"),
        ("jython: import re", "", "at least one return"),
        ("jython: match = re.search('(', value)\nreturn value", "match", "regular expression"),
        ("jython: return re.sub('a', '\\\\1', value)", "return", "substitution template"),
        ("jython: return value.title()", "return", "'return value', "),
        ("jython:\n  return  match.group(0)", "return  match", "before match.group"),
        ("jython: match = re.search('a', value)\nreturn match.group(True)", "return", "integer"),
        ("jython: match = re.search('a', value)\nreturn match.group(1.0)", "return", "integer"),
        ("jython: match = re.search('(a)', value)\nif match: return match.group(2)", "if", "exists"),
        ("jython: return 'é'; return 'ü'\r\nreturn value", "return 'ü'", "in that order"),
    ],
)
def test_each_parse_error(source, at, expected):
    with pytest.raises(ParseError) as exc:
        parse_transform_expr(source)
    assert expected in exc.value.expected
    assert source[exc.value.position :].startswith(at)


def test_from_json_turns_parse_errors_into_schema_errors():
    with pytest.raises(SchemaError, match=r"args\.expression: parse error"):
        TransformExpr.from_json({"expression": "jython: x = 1"}, "args")


# snippets built from the grammar ----------------------------------------------

_ATOMS = ["a", "b", "1", "\\d", "\\s", "\\w", ".", "[ab]", "[^a]", "\\\\", "'", '"', "\t", " ", "é"]
_GROUPS = ["(a)", "(\\d)", "(?:ab)", "()", "(a|1)"]
_QUANTIFIERS = ["", "+", "*", "?", "{2}"]
# Pieces that take no quantifier; "(x)?" is a group that never takes part.
_UNQUANTIFIED = ["^", "$", "\\b", "(a)?", "(x)?"]
_TEXT = "ab1 2\t'\"\\é\n"


@st.composite
def _patterns(draw) -> str:
    """A valid regex without nested repeats, so no search backtracks for long."""
    pieces = st.tuples(st.sampled_from(_ATOMS + _GROUPS), st.sampled_from(_QUANTIFIERS))
    parts = ["".join(p) for p in draw(st.lists(pieces, max_size=4))]
    for _ in range(draw(st.integers(0, 2))):
        parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(_UNQUANTIFIED)))
    return "".join(parts)


@st.composite
def _literal(draw, value: str, raw_only: bool) -> str:
    """``value`` spelled as a Python string literal, in one of its forms."""
    raw_quotes = [q for q in "'\"" if q not in value]
    if "\n" in value or (len(value) - len(value.rstrip("\\"))) % 2:
        raw_quotes = []
    if raw_only:
        assume(raw_quotes)
    if raw_quotes and (raw_only or draw(st.booleans())):
        quote = draw(st.sampled_from(raw_quotes))
        return draw(st.sampled_from(["r"] if raw_only else ["r", "R"])) + quote + value + quote
    quote = draw(st.sampled_from("'\""))
    out = []
    for ch in value:
        if ch in (quote, "\\"):
            out.append("\\" + ch)
        elif ch == "\n":
            out.append("\\n")
        else:
            code = f"\\x{ord(ch):02x}" if ord(ch) < 256 else f"\\u{ord(ch):04x}"
            out.append(draw(st.sampled_from([ch, code])))
    return draw(st.sampled_from(["", "u"])) + quote + "".join(out) + quote


@st.composite
def _sub_call(draw, raw_only: bool) -> str:
    pattern = draw(_patterns())
    refs = ["\\g<0>"] + [f"\\{k}" for k in range(1, re.compile(pattern).groups + 1)]
    pieces = st.sampled_from(["x", "-", "\\\\", "'", "é"] + refs)
    replacement = "".join(draw(st.lists(pieces, max_size=3)))
    pattern, replacement = draw(_literal(pattern, raw_only)), draw(_literal(replacement, raw_only))
    return f"re.sub({pattern}, {replacement}, value)"


@st.composite
def _statements(draw, raw_only: bool = False) -> list[str]:
    """The statements of one in-grammar snippet, each as Python source."""
    stmts = ["import re"] if draw(st.booleans()) else []
    pattern = draw(_patterns()) if draw(st.integers(0, 2)) else None
    groups = None if pattern is None else re.compile(pattern).groups
    has_if = False
    if pattern is not None:
        stmts.append(f"match = re.search({draw(_literal(pattern, raw_only))}, value)")
        has_if = draw(st.integers(0, 2)) > 0
        if has_if:
            layout = draw(st.sampled_from([" ", "\n    "]))
            stmts.append(f"if match:{layout}return match.group({draw(st.integers(0, groups))})")
    if not has_if or draw(st.booleans()):
        text = _TEXT.replace("\n", "") if raw_only else _TEXT
        forms = [
            st.sampled_from(["value", "value.strip()", "value.upper()", "value.lower()"]),
            st.text(text, max_size=5).flatmap(lambda v: _literal(v, raw_only)),
            _sub_call(raw_only),
        ]
        if groups is not None:
            forms.append(st.integers(0, groups).map(lambda k: f"match.group({k})"))
        stmts.append("return " + draw(st.one_of(forms)))
    return stmts


@st.composite
def _snippets(draw) -> tuple[str, str, bool]:
    """(snippet, the same body as ``def f(value)``, whether it is in the
    grammar). Statements are joined by newlines or by ``;``; in Python a
    ``;`` cannot precede an ``if`` and after one it extends the if body,
    so either puts the snippet out of the grammar."""
    stmts = draw(_statements())
    body, in_grammar = stmts[0], True
    for before, stmt in zip(stmts, stmts[1:]):
        sep = draw(st.sampled_from(["\n", "\n", "; "]))
        body += sep + stmt
        in_grammar &= sep == "\n" or not (before.startswith("if") or stmt.startswith("if"))
    if draw(st.booleans()):
        source = "jython: " + body
    else:
        source = "jython:\n" + textwrap.indent(body, draw(st.sampled_from(["  ", "\t"])))
    if draw(st.booleans()):
        source = source.replace("\n", "\r\n")
    return source, "def f(value):\n" + textwrap.indent(body, "    "), in_grammar


@settings(max_examples=500, deadline=None)
@given(_snippets(), st.text(_TEXT, max_size=8))
def test_snippets_mean_what_python_means(snippet, value):
    """Differential test against CPython: a snippet run as a Python function
    gives what ``eval_transform_expr`` gives, where None, or an
    AttributeError from ``match.group`` after a failed search, means the cell
    is unchanged."""
    source, function, in_grammar = snippet
    if not in_grammar:
        with pytest.raises(ParseError):
            parse_transform_expr(source)
        return
    expr = parse_transform_expr(source)
    namespace = {"re": re}
    exec(function, namespace)
    try:
        want = namespace["f"](value)
    except AttributeError:
        want = None
    cell = Cell.text(value)
    assert eval_transform_expr(expr, cell) == (cell if want is None else Cell.text(want))


_FOREIGN = ["x = 1", "import os", "import re", "return value.title()", "if match:\n    return value"]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_agrees_with_the_regex_parser_on_raw_literals(data):
    """Differential test against the hand-written parser this module
    replaced: on raw literals and one statement a line, with foreign or
    repeated statements and in any order, both accept the same snippets
    with the same meaning."""
    stmts = data.draw(_statements(raw_only=True))
    for extra in data.draw(st.lists(st.sampled_from(_FOREIGN + stmts), max_size=2)):
        stmts.insert(data.draw(st.integers(0, len(stmts))), extra)
    if data.draw(st.booleans()):
        stmts = data.draw(st.permutations(stmts))
    source = "jython: " + "\n".join(stmts)

    def outcome(parse):
        try:
            return parse(source)
        except ParseError:
            return None

    assert outcome(parse_transform_expr) == outcome(parse_transform_expr_oracle)


@settings(max_examples=100, deadline=None)
@given(_statements(), st.text())
def test_eval_never_raises_on_accepted_snippets(stmts, value):
    expr = parse_transform_expr("jython: " + "\n".join(stmts))
    assert eval_transform_expr(expr, Cell.text(value)).kind is CellKind.TEXT


# hostile input -------------------------------------------------------------------

_SNIPPET_CHARS = st.sampled_from(list("jython:rematchgroupsv(value).[0]='\";\n\r\t \0é"))


@settings(max_examples=200, deadline=None)
@given(st.text() | st.text(_SNIPPET_CHARS))
@example("\0")
@example("(" * 300 + ")" * 300)
@example("-" * 200_000)
@example("-" * 200_000 + "1")
@example("return value" + "[0]" * 100_000)
def test_parser_raises_only_parse_error(text):
    for source in (text, "jython: " + text):
        try:
            parse_transform_expr(source)
        except ParseError:
            pass


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None)
@given(_JSON | st.fixed_dictionaries({"expression": st.text() | _JSON}))
def test_from_json_raises_only_schema_error(raw):
    try:
        TransformExpr.from_json(raw, "args")
    except SchemaError:
        pass
