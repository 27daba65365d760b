import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcflow import (
    Cell,
    OpKind,
    OpSpec,
    Table,
    Workflow,
    load_case,
    load_suite,
    replay,
    serialize,
)
from dcflow.agent import (
    DEFAULT_PARAMS,
    DecodingParams,
    HttpBackend,
    OpChoice,
    PipelineConfig,
    ScriptedBackend,
    ScriptEntry,
    Trace,
    choose_operation,
    generate_arguments,
    inspect_column_quality,
    run_pipeline,
    select_target_columns,
)
from dcflow.agent.parsing import (
    QualityReport,
    parse_column_list,
    parse_mass_edit_args,
    parse_op_choice,
    parse_quality_report,
    parse_transform_args,
)
from dcflow.agent.prompts import (
    ColumnSampler,
    PromptTemplates,
    build_choose_prompt,
    build_inspect_prompt,
    build_select_prompt,
    load_default_templates,
)
from dcflow.errors import (
    ArgGenError,
    BackendError,
    InspectionError,
    OpChoiceError,
    ReplayError,
    SchemaError,
    SelectionError,
    TypeMismatchError,
)

from oracles import (
    build_choose_prompt_oracle,
    build_inspect_prompt_oracle,
    trace_to_jsonl_oracle,
)


def demo_table():
    return Table.from_rows(
        ["country", "fleet size"],
        [
            [Cell.text("Trinidad and Tobago"), Cell.text("22")],
            [Cell.text("Antigua and Barbuda"), Cell.text("17")],
            [Cell.text("Cuba"), Cell.text("14")],
        ],
    )


def scripted(*entries):
    return ScriptedBackend([ScriptEntry(**e) for e in entries])


# parsers ----------------------------------------------------------------

def test_parse_column_list_airlines_form():
    assert parse_column_list("Selected columns: ```['country']```") == ["country"]


def test_parse_column_list_rejects_garbage():
    assert parse_column_list("no list here") is None
    assert parse_column_list("[1, 2]") is None


def test_parse_quality_report_city_example():
    response = (
        "Accuracy: True (consistent spellings and format in column City)\n"
        "Relevance: True (column City is relevant to the purpose)\n"
        "Completeness: NA (a minor number of missing values, 1/7, can be ignored)\n"
        "Conciseness: True (no incorrect variations)\n"
        "Flag: True"
    )
    report = parse_quality_report(response)
    assert report == QualityReport(
        accuracy=True,
        relevance=True,
        completeness=None,
        conciseness=True,
        flag=True,
        explanation=report.explanation,
        objectives=(),
    )
    assert report.flag is True


def test_parse_quality_report_failing_has_objectives():
    response = (
        "Accuracy: True (fine)\n"
        "Relevance: True (fine)\n"
        "Completeness: True (fine)\n"
        "Conciseness: False (variants exist)\n"
        "Flag: False\n"
        "Objectives:\n- merge the variants\n- standardize casing"
    )
    report = parse_quality_report(response)
    assert report.flag is False
    assert report.objectives == ("merge the variants", "standardize casing")


def test_parse_quality_report_unparseable():
    assert parse_quality_report("nothing useful") is None


def test_quality_report_invariants_enforced():
    with pytest.raises(ValueError):
        QualityReport(True, True, True, True, flag=False, explanation="x", objectives=("o",))
    with pytest.raises(ValueError):
        QualityReport(True, True, True, False, flag=False, explanation="x", objectives=())


def test_parse_op_choice_selected_line():
    got = parse_op_choice("Selected Operation: upper\nExplanation: casing.")
    assert got == OpChoice(OpKind.UPPER, "casing.")


def test_parse_op_choice_unique_mention():
    assert parse_op_choice("I would use trim here.").op is OpKind.TRIM


def test_parse_op_choice_rejects_unknown_or_ambiguous():
    assert parse_op_choice("delete_rows") is None
    assert parse_op_choice("either trim or upper") is None


def test_parse_mass_edit_args():
    spec = parse_mass_edit_args(
        'Here you go: [{"from": ["a", "b"], "to": "C"}] as requested'
    )
    assert spec.mapping() == {"a": "C", "b": "C"}


def test_parse_mass_edit_args_rejects_overlap():
    assert (
        parse_mass_edit_args('[{"from": ["x"], "to": "y"}, {"from": ["x"], "to": "z"}]')
        is None
    )


def test_parse_mass_edit_args_rejects_malformed_json():
    assert parse_mass_edit_args('[{"from": ["x"], "to": "y"}') is None
    assert parse_mass_edit_args('[{"from": ["x"], "to": "y"}, ' + "9" * 5000 + "]") is None
    assert parse_mass_edit_args('[{"from": "x", "to": "y"}]') is None


def test_parse_transform_args_strips_fences():
    out = parse_transform_args("```\njython: return value.upper()\n```")
    assert out is not None
    assert parse_transform_args("no snippet") is None
    assert parse_transform_args("jython: while True: pass") is None


# stage functions ---------------------------------------------------------

def test_select_airlines_example():
    backend = scripted(
        {
            "stage": "select-columns",
            "response": "Selected columns: ```['country']```\nExplanation: countries -> country.",
        }
    )
    assert select_target_columns(backend, demo_table(), "How many countries are involved?") == [
        "country"
    ]


def test_select_drops_unknown_names_and_fails_when_empty():
    backend = scripted(
        {"stage": "select-columns", "response": "```['bogus']```"},
        {"stage": "select-columns", "response": "```['also bogus']```"},
    )
    with pytest.raises(SelectionError):
        select_target_columns(backend, demo_table(), "purpose")


def test_inspect_error_after_retry():
    backend = scripted(
        {"stage": "inspect-quality", "column": "country", "response": ""},
        {"stage": "inspect-quality", "column": "country", "response": "still nothing"},
    )
    with pytest.raises(InspectionError):
        inspect_column_quality(backend, demo_table(), "country", "purpose")


def test_choose_operation_retry_path():
    failing = QualityReport(
        accuracy=False,
        relevance=True,
        completeness=True,
        conciseness=True,
        flag=False,
        explanation="bad",
        objectives=("fix",),
    )
    backend = scripted(
        {"stage": "choose-operation", "column": "country", "response": "delete_rows"},
        {"stage": "choose-operation", "column": "country", "response": "Selected Operation: trim"},
    )
    trace = Trace("t")
    choice = choose_operation(
        backend, demo_table(), "country", "purpose", failing, trace=trace
    )
    assert choice.op is OpKind.TRIM
    assert [c.attempt for c in trace.calls] == [0, 1]
    # retry happened at the escalated temperature
    assert [c.params.temperature for c in trace.calls] == [0.1, 0.3]


def test_choose_operation_two_failures():
    failing = QualityReport(
        accuracy=False, relevance=True, completeness=True, conciseness=True,
        flag=False, explanation="bad", objectives=("fix",),
    )
    backend = scripted(
        {"stage": "choose-operation", "column": "country", "response": "nope"},
        {"stage": "choose-operation", "column": "country", "response": "still nope"},
    )
    with pytest.raises(OpChoiceError):
        choose_operation(backend, demo_table(), "country", "purpose", failing)


def test_generate_arguments_mass_edit_temperature():
    backend = scripted(
        {
            "stage": "generate-arguments",
            "column": "country",
            "response": '[{"from": ["Cuba"], "to": "CUBA"}]',
        }
    )
    trace = Trace("t")
    args = generate_arguments(
        backend, demo_table(), "country", OpKind.MASS_EDIT, trace=trace
    )
    assert args.mapping() == {"Cuba": "CUBA"}
    assert trace.calls[0].params.temperature == 0.2


def test_generate_arguments_transform_snippet():
    year_snippet = (
        "jython: import re\n"
        "match = re.search(r'\\b\\d{4}\\b', value)\n"
        "if match:\n"
        "    return match.group(0)"
    )
    backend = scripted(
        {"stage": "generate-arguments", "column": "country", "response": year_snippet}
    )
    expr = generate_arguments(backend, demo_table(), "country", OpKind.REGEXR_TRANSFORM)
    from dcflow.transform import eval_transform_expr

    assert eval_transform_expr(expr, Cell.text("Collins,1985")).render() == "1985"


def test_generate_arguments_transform_retry_escalates_temperature():
    backend = scripted(
        {"stage": "generate-arguments", "column": "country", "response": "jython: while True: pass"},
        {"stage": "generate-arguments", "column": "country", "response": "jython: return value.strip()"},
    )
    trace = Trace("t")
    expr = generate_arguments(
        backend, demo_table(), "country", OpKind.REGEXR_TRANSFORM, trace=trace
    )
    assert expr.fallback is not None
    assert [c.params.temperature for c in trace.calls] == [0.1, 0.3]
    assert [c.outcome for c in trace.calls] == ["parse_error", "ok"]


def test_generate_arguments_bad_then_error():
    backend = scripted(
        {"stage": "generate-arguments", "column": "country", "response": "not json"},
        {"stage": "generate-arguments", "column": "country", "response": "[]"},
    )
    # empty edits list parses fine; overlapping lists do not
    args = generate_arguments(backend, demo_table(), "country", OpKind.MASS_EDIT)
    assert args.edits == ()

    backend = scripted(
        {
            "stage": "generate-arguments",
            "column": "country",
            "response": '[{"from": ["x"], "to": "y"}, {"from": ["x"], "to": "z"}]',
        },
        {"stage": "generate-arguments", "column": "country", "response": "garbage"},
    )
    with pytest.raises(ArgGenError):
        generate_arguments(backend, demo_table(), "country", OpKind.MASS_EDIT)


# sampler and prompts ------------------------------------------------------

def test_sampler_serves_unseen_batches_then_wraps():
    t = Table.from_rows(
        ["c"], [[Cell.text(str(i % 5))] for i in range(10)]
    )  # 5 distinct values
    sampler = ColumnSampler("c", batch_size=2)
    assert sampler.next_batch(t) == ["0", "1"]
    assert sampler.next_batch(t) == ["2", "3"]
    assert sampler.next_batch(t) == ["4"]
    assert sampler.next_batch(t) == ["0", "1"]  # wrapped


def test_sampler_reads_current_table_state():
    before = Table.from_rows(["c"], [[Cell.text("DIRTY")], [Cell.text("ok")]])
    after = Table.from_rows(["c"], [[Cell.text("CLEAN")], [Cell.text("ok")]])
    sampler = ColumnSampler("c", batch_size=10)
    assert sampler.next_batch(before) == ["DIRTY", "ok"]
    # the repaired value is new, so the next iteration shows it
    assert sampler.next_batch(after) == ["CLEAN"]


def test_prompt_assembly_deterministic():
    templates = load_default_templates()
    a = build_select_prompt(templates, demo_table(), "purpose?")
    b = build_select_prompt(templates, demo_table(), "purpose?")
    assert a == b
    assert a.startswith("Task stage: select-columns\n")


def test_prompt_slots_are_filled_in_one_pass():
    templates = load_default_templates()
    inspect = build_inspect_prompt(
        templates, "c", ["{purpose}", "{history}", "ok"], "PURPOSE-TEXT", Workflow()
    )
    assert '"{purpose}",\n    "{history}",\n    "ok"' in inspect
    assert "Purpose: PURPOSE-TEXT\n" in inspect
    report = QualityReport(
        False, True, True, True, flag=False, explanation="x", objectives=("see {history}",)
    )
    choose = build_choose_prompt(templates, "c", ["ok"], "{column} {report}", report, Workflow())
    assert "Purpose: {column} {report}\n" in choose
    assert "- see {history}\n" in choose
    assert "Target column: c\n" in choose


_NO_BRACE = st.text(st.characters(exclude_characters="{"), max_size=12)
_ARGLESS_OPS = [OpKind.UPPER, OpKind.TRIM, OpKind.NUMERIC, OpKind.DATE]


@settings(max_examples=100, deadline=None)
@given(
    column=_NO_BRACE,
    values=st.lists(_NO_BRACE, max_size=5),
    purpose=_NO_BRACE,
    ops=st.lists(st.sampled_from(_ARGLESS_OPS), max_size=4),
    objectives=st.lists(_NO_BRACE, max_size=3),
)
def test_column_prompts_match_the_old_builders(column, values, purpose, ops, objectives):
    templates = load_default_templates()
    history = Workflow(tuple(OpSpec(op, column) for op in ops))
    report = (
        QualityReport(False, True, None, True, flag=False, explanation="x",
                      objectives=tuple(objectives))
        if objectives
        else QualityReport(True, True, None, True, flag=True, explanation="x")
    )
    assert build_inspect_prompt(
        templates, column, values, purpose, history
    ) == build_inspect_prompt_oracle(templates, column, values, purpose, history)
    assert build_choose_prompt(
        templates, column, values, purpose, report, history
    ) == build_choose_prompt_oracle(templates, column, values, purpose, report, history)


# scripted backend --------------------------------------------------------

def test_scripted_backend_keys_on_stage_and_column():
    backend = scripted(
        {"stage": "inspect-quality", "column": "a", "response": "first"},
        {"stage": "inspect-quality", "column": "b", "response": "second"},
    )
    p_b = "Task stage: inspect-quality\nTarget column: b\nbody"
    p_a = "Task stage: inspect-quality\nTarget column: a\nbody"
    assert backend.complete(p_b, DEFAULT_PARAMS) == "second"
    assert backend.complete(p_a, DEFAULT_PARAMS) == "first"


def test_scripted_backend_truncates_at_stop():
    backend = scripted({"stage": "select-columns", "response": "keep\n\n\ndrop"})
    out = backend.complete("Task stage: select-columns\n", DEFAULT_PARAMS)
    assert out == "keep"


def test_scripted_backend_exhaustion_becomes_stage_error():
    backend = scripted()
    with pytest.raises(SelectionError):
        select_target_columns(backend, demo_table(), "p")



@pytest.mark.parametrize(
    "payload", [b"{not json", b"\xff\xfe", None], ids=["bad-json", "bad-utf8", "missing"]
)
def test_scripted_backend_from_unreadable_file_is_schema_error(tmp_path, payload):
    path = tmp_path / "script.json"
    if payload is not None:
        path.write_bytes(payload)
    with pytest.raises(SchemaError) as exc:
        ScriptedBackend.from_file(path)
    assert exc.value.path == "script"


# full pipeline -----------------------------------------------------------

def clean_report(column="country"):
    return (
        "Accuracy: True (fine)\nRelevance: True (fine)\n"
        "Completeness: True (fine)\nConciseness: True (fine)\nFlag: True"
    )


def test_pipeline_noop_when_all_clean():
    backend = scripted(
        {"stage": "select-columns", "response": "```['country']```"},
        {"stage": "inspect-quality", "column": "country", "response": clean_report()},
    )
    case = _purpose_stub()
    result = run_pipeline(backend, demo_table(), case)
    assert result.workflow.steps == ()
    assert result.final_table == demo_table()
    assert not result.degraded and not result.aborted


def _purpose_stub():
    from dcflow.query import Answer, Purpose, PurposeCategory, QuerySpec

    return Purpose(
        id="p",
        statement="How many countries are involved?",
        category=PurposeCategory.COUNTING_GROUPING,
        target_columns_gold=("country",),
        query=QuerySpec(select=("country",)),
        gold_answer=Answer.value_list([]),
    )


def test_pipeline_selection_failure_aborts_with_empty_workflow():
    backend = scripted()
    result = run_pipeline(backend, demo_table(), _purpose_stub())
    assert result.aborted
    assert result.workflow.steps == ()
    assert result.final_table == demo_table()


def test_pipeline_relevance_false_removes_without_ops():
    report = (
        "Accuracy: True (fine)\nRelevance: False (wrong column)\n"
        "Completeness: True (fine)\nConciseness: True (fine)\nFlag: False\n"
        "Objectives:\n- pick a different column"
    )
    backend = scripted(
        {"stage": "select-columns", "response": "```['country']```"},
        {"stage": "inspect-quality", "column": "country", "response": report},
    )
    result = run_pipeline(backend, demo_table(), _purpose_stub())
    assert result.workflow.steps == ()
    assert any(e.kind == "relevance_removed" for e in result.trace.events)


def test_pipeline_budget_exhaustion_terminates():
    dirty_report = (
        "Accuracy: False (noisy)\nRelevance: True (fine)\n"
        "Completeness: True (fine)\nConciseness: True (fine)\nFlag: False\n"
        "Objectives:\n- keep scrubbing"
    )
    entries = [{"stage": "select-columns", "response": "```['country']```"}]
    for _ in range(10):
        entries.append(
            {"stage": "inspect-quality", "column": "country", "response": dirty_report}
        )
        entries.append(
            {"stage": "choose-operation", "column": "country", "response": "Selected Operation: trim"}
        )
    backend = scripted(*entries)
    config = PipelineConfig(max_iters_per_column=3)
    result = run_pipeline(backend, demo_table(), _purpose_stub(), config)
    assert len(result.workflow.steps) == 3
    assert result.degraded
    assert any(e.kind == "budget_exhausted" for e in result.trace.events)


def test_pipeline_termination_bound_with_adversarial_backend():
    class AlwaysDirty:
        name = "adversarial"

        def __init__(self):
            self.calls = 0

        def complete(self, prompt, params):
            self.calls += 1
            if "Task stage: select-columns" in prompt:
                return "```['country', 'fleet size']```"
            if "Task stage: inspect-quality" in prompt:
                return (
                    "Accuracy: False (always)\nRelevance: True (x)\n"
                    "Completeness: True (x)\nConciseness: True (x)\nFlag: False\n"
                    "Objectives:\n- never satisfied"
                )
            if "Task stage: choose-operation" in prompt:
                return "Selected Operation: upper"
            return "[]"

    backend = AlwaysDirty()
    config = PipelineConfig(max_iters_per_column=4)
    result = run_pipeline(backend, demo_table(), _purpose_stub(), config)
    assert len(result.workflow.steps) <= 2 * config.max_iters_per_column
    assert result.degraded
    # recorded steps only ever touch the selected columns
    assert {s.column for s in result.workflow.steps} <= {"country", "fleet size"}


def test_pipeline_trace_records_every_call_once():
    # to_jsonl writes U+2028 and U+0085 raw, so records split on "\n" only.
    backend = scripted(
        {"stage": "select-columns", "response": "```['country']```\u2028\u0085"},
        {"stage": "inspect-quality", "column": "country", "response": clean_report()},
    )
    result = run_pipeline(backend, demo_table(), _purpose_stub())
    assert [c.stage for c in result.trace.calls] == ["select-columns", "inspect-quality"]
    for call in result.trace.calls:
        assert call.params is not None
        assert call.outcome == "ok"
    lines = result.trace.to_jsonl().strip().split("\n")
    assert len(lines) == len(result.trace.calls) + len(result.trace.events)
    for line in lines:
        json.loads(line)


def test_trace_records_match_the_old_serializer(suite_path, script_path):
    entries = load_suite(suite_path)
    for name in ("cfi_a_scripted", "cfi_b_consolidated", "cfi_b_stepwise"):
        for entry in entries:
            case = load_case(entry.path)
            backend = ScriptedBackend.from_file(script_path(name))
            trace = run_pipeline(backend, case.raw_table, case.purpose).trace
            assert trace.to_jsonl() == trace_to_jsonl_oracle(trace)


def test_trace_records_cover_every_outcome_and_event():
    backend = scripted(
        {"stage": "select-columns", "response": "```['country', 'ghost']```"},
        {"stage": "inspect-quality", "column": "country", "response": "no verdicts"},
    )
    trace = run_pipeline(backend, demo_table(), _purpose_stub()).trace
    assert [c.outcome for c in trace.calls] == ["ok", "parse_error", "backend_error"]
    assert [e.kind for e in trace.events] == ["dropped_columns", "column_error"]
    assert trace.to_jsonl() == trace_to_jsonl_oracle(trace)


def test_pipeline_prompts_are_deterministic(cases_dir, script_path):
    case = load_case(cases_dir / "cfi" / "case_b.json")
    traces = []
    for _ in range(2):
        backend = ScriptedBackend.from_file(script_path("cfi_b_consolidated"))
        result = run_pipeline(backend, case.raw_table, case.purpose)
        traces.append([(c.stage, c.column, c.prompt) for c in result.trace.calls])
    assert traces[0] == traces[1]


def test_pipeline_reproduces_case_study_replay(cases_dir, script_path):
    case = load_case(cases_dir / "cfi" / "case_b.json")
    backend = ScriptedBackend.from_file(script_path("cfi_b_stepwise"))
    result = run_pipeline(backend, case.raw_table, case.purpose)
    assert replay(result.workflow, case.raw_table).final == result.final_table
    assert [s.op.value for s in result.workflow.steps] == [
        "trim",
        "mass_edit",
        "mass_edit",
        "mass_edit",
        "date",
    ]


# HTTP backend ------------------------------------------------------------

OK_REPLY = (200, json.dumps({"choices": [{"message": {"content": "scripted reply"}}]}).encode())
DROP = "drop"  # close the connection without answering


class _FlakyHandler(BaseHTTPRequestHandler):
    """Answers each POST with the next queued reply, then with ``OK_REPLY``.

    A reply is ``DROP`` or ``(status, body)``, optionally followed by a dict
    of headers that extend or override the defaults. ``seen`` keeps each
    request's headers and raw body bytes.
    """

    replies = []
    seen = []

    def do_POST(self):
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        type(self).seen.append((self.headers, raw))
        reply = type(self).replies.pop(0) if type(self).replies else OK_REPLY
        if reply == DROP:
            return
        status, payload, *extra = reply
        headers = {"Content-Type": "application/json", "Content-Length": str(len(payload))}
        headers.update(*extra)
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def flaky_server():
    _FlakyHandler.replies = [(500, b"")]
    _FlakyHandler.seen = []
    server = HTTPServer(("127.0.0.1", 0), _FlakyHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


def test_http_backend_retries_5xx_and_sends_decoding_params(flaky_server):
    backend = HttpBackend(url=flaky_server, model="test-model", api_key="k", timeout=2)
    params = DecodingParams(temperature=0.2)
    assert backend.complete("hello", params) == "scripted reply"
    assert len(_FlakyHandler.seen) == 2
    body = json.loads(_FlakyHandler.seen[-1][1])
    assert body["model"] == "test-model"
    assert body["messages"] == [{"role": "user", "content": "hello"}]
    assert body["temperature"] == 0.2
    assert body["top_k"] == 60
    assert body["top_p"] == 0.95
    assert body["max_tokens"] == 2048
    assert body["stop"] == ["\n\n\n"]


def test_http_backend_concurrent_calls(flaky_server):
    from concurrent.futures import ThreadPoolExecutor

    _FlakyHandler.replies = []
    backend = HttpBackend(url=flaky_server, model="test-model", timeout=2)
    with ThreadPoolExecutor(max_workers=4) as pool:
        replies = list(pool.map(lambda i: backend.complete(f"q{i}", DEFAULT_PARAMS), range(8)))
    assert replies == ["scripted reply"] * 8


def test_http_backend_sends_exact_body_bytes_and_headers(flaky_server, monkeypatch):
    monkeypatch.delenv("DCFLOW_LLM_KEY", raising=False)
    _FlakyHandler.replies = []
    params = DecodingParams(temperature=0.2)
    HttpBackend(url=flaky_server, model="m", api_key="k", timeout=2).complete("hé \"x\"", params)
    HttpBackend(url=flaky_server, model="m", timeout=2).complete("hé \"x\"", params)
    (with_key, raw), (without_key, raw_again) = _FlakyHandler.seen
    assert raw == raw_again == (
        b'{"model": "m", "messages": [{"role": "user", "content": "h\\u00e9 \\"x\\""}], '
        b'"temperature": 0.2, "top_k": 60, "top_p": 0.95, "max_tokens": 2048, '
        b'"stop": ["\\n\\n\\n"]}'
    )
    assert with_key["Content-Type"] == without_key["Content-Type"] == "application/json"
    assert with_key["Authorization"] == "Bearer k"
    assert "Authorization" not in without_key


@pytest.mark.parametrize(
    "replies, message",
    [
        ([(500, b""), (503, b"")], "server error 503"),
        ([(404, b"no such model " * 20)], "unexpected status 404: " + ("no such model " * 20)[:200]),
        ([(204, b"")], "unexpected status 204: "),
        ([(200, b"not json")], "malformed completion response: Expecting value"),
        ([(200, b'{"choices": []}')], "malformed completion response: list index out of range"),
        ([(200, b'{"choices": [{}]}')], "malformed completion response: 'message'"),
        (
            [(200, b'{"choices": [{"message": {"content": null}}]}')],
            "malformed completion response: content is None",
        ),
        ([DROP, DROP], "transport error: "),
        ([(200, b'{"choices": [', {"Content-Length": "100"})] * 2, "transport error: "),
    ],
    ids=[
        "5xx-twice", "4xx", "204", "not-json", "no-choices", "no-message", "null-content",
        "dropped", "short-body",
    ],
)
def test_http_backend_failures_are_backend_errors(flaky_server, replies, message):
    _FlakyHandler.replies = list(replies)
    backend = HttpBackend(url=flaky_server, model="m", timeout=2)
    with pytest.raises(BackendError) as exc:
        backend.complete("p", DEFAULT_PARAMS)
    assert str(exc.value).startswith(message)
    assert len(_FlakyHandler.seen) == (2 if message.startswith(("server", "transport")) else 1)


def test_http_backend_retries_a_dropped_connection(flaky_server):
    _FlakyHandler.replies = [DROP]
    backend = HttpBackend(url=flaky_server, model="m", timeout=2)
    assert backend.complete("p", DEFAULT_PARAMS) == "scripted reply"
    assert len(_FlakyHandler.seen) == 2


def test_http_backend_invalid_header_value_is_backend_error(flaky_server):
    backend = HttpBackend(url=flaky_server, api_key="k\nx", timeout=2)
    with pytest.raises(BackendError, match="^transport error: Invalid"):
        backend.complete("p", DEFAULT_PARAMS)


@pytest.mark.parametrize("url", ["localhost:8080/v1", "example.invalid/v1/chat/completions"])
def test_http_backend_url_without_scheme_is_backend_error(url):
    with pytest.raises(BackendError):
        HttpBackend(url=url, timeout=2).complete("p", DEFAULT_PARAMS)


def test_http_backend_refuses_non_http_urls(tmp_path):
    reply = tmp_path / "reply.json"
    reply.write_bytes(OK_REPLY[1])
    for url in (reply.as_uri(), "ftp://127.0.0.1:9/reply.json"):
        with pytest.raises(BackendError):
            HttpBackend(url=url, timeout=2).complete("p", DEFAULT_PARAMS)


def test_http_backend_reports_a_post_redirect_as_unexpected_status(flaky_server):
    _FlakyHandler.replies = [(307, b"moved", {"Location": flaky_server})]
    with pytest.raises(BackendError, match="^unexpected status 307: moved$"):
        HttpBackend(url=flaky_server, timeout=2).complete("p", DEFAULT_PARAMS)


def test_importing_dcflow_loads_no_third_party_http_stack():
    import subprocess
    import sys

    # Compared with the modules loaded before the import, since a site hook
    # may load one of these (say certifi) at interpreter start.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import dcflow, dcflow.agent, dcflow.cli\n"
        "heavy = ('requests', 'urllib3', 'charset_normalizer', 'idna', 'certifi')\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] in heavy))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_http_backend_requires_url(monkeypatch):
    monkeypatch.delenv("DCFLOW_LLM_URL", raising=False)
    with pytest.raises(BackendError):
        HttpBackend()


def test_default_decoding_params_match_contract():
    assert DEFAULT_PARAMS == DecodingParams(
        temperature=0.1,
        top_k=60,
        top_p=0.95,
        mirostat=1,
        max_output_tokens=2048,
        stop=("\n\n\n",),
    )


# each step applied once -----------------------------------------------------

DIRTY_REPORT = (
    "Accuracy: False (noisy)\nRelevance: True (fine)\n"
    "Completeness: True (fine)\nConciseness: True (fine)\nFlag: False\n"
    "Objectives:\n- keep scrubbing"
)
SIX_STEPS = [
    ("trim", None),
    ("upper", None),
    ("mass_edit", '[{"from": ["CUBA"], "to": "REPUBLIC OF CUBA"}]'),
    ("regexr_transform", "jython: return re.sub(r' AND ', ' & ', value)"),
    ("trim", None),
    ("upper", None),
]


def six_step_backend():
    entries = [{"stage": "select-columns", "response": "```['country']```"}]
    for op, args in SIX_STEPS:
        entries.append({"stage": "inspect-quality", "column": "country", "response": DIRTY_REPORT})
        entries.append(
            {"stage": "choose-operation", "column": "country", "response": f"Selected Operation: {op}"}
        )
        if args is not None:
            entries.append({"stage": "generate-arguments", "column": "country", "response": args})
    entries.append({"stage": "inspect-quality", "column": "country", "response": clean_report()})
    return scripted(*entries)


def count_applications(monkeypatch, fail_at=None):
    """Route every op application, the pipeline's and replay's, through one
    counter; the ``fail_at``-th application raises instead."""
    import dcflow.agent.pipeline
    import dcflow.workflow

    calls = []
    original = dcflow.workflow.apply_step

    def counting(table, step):
        calls.append(step)
        if len(calls) == fail_at:
            raise TypeMismatchError(step.column, step.op.value)
        return original(table, step)

    monkeypatch.setattr(dcflow.agent.pipeline, "apply_step", counting)
    monkeypatch.setattr(dcflow.workflow, "apply_step", counting)
    return calls


def test_pipeline_applies_each_step_once(monkeypatch):
    calls = count_applications(monkeypatch)
    result = run_pipeline(six_step_backend(), demo_table(), _purpose_stub())
    assert [s.op.value for s in result.workflow.steps] == [op for op, _ in SIX_STEPS]
    doc = json.loads(serialize(result.workflow))
    assert [s["index"] for s in doc["steps"]] == [1, 2, 3, 4, 5, 6]
    assert len(calls) == 6
    assert all(applied is step for applied, step in zip(calls, result.workflow.steps))
    assert not result.degraded
    assert replay(result.workflow, demo_table()).final == result.final_table
    assert result.final_table.column_values("country") == (
        Cell.text("TRINIDAD & TOBAGO"),
        Cell.text("ANTIGUA & BARBUDA"),
        Cell.text("REPUBLIC OF CUBA"),
    )


def test_pipeline_step_failure_carries_its_index(monkeypatch):
    count_applications(monkeypatch, fail_at=4)
    with pytest.raises(ReplayError) as info:
        run_pipeline(six_step_backend(), demo_table(), _purpose_stub())
    assert info.value.step_index == 4
    assert isinstance(info.value.cause, TypeMismatchError)


# templates ----------------------------------------------------------------

def test_default_templates_are_read_once():
    assert load_default_templates() is load_default_templates()


def test_config_templates_override_the_defaults():
    custom = PromptTemplates(
        column_selection="CUSTOM SELECT for {purpose}",
        quality_report="unused",
        operations="unused",
    )
    prompts = []

    class Recording:
        name = "recording"

        def complete(self, prompt, params):
            prompts.append(prompt)
            return "```['country']```"

    names = select_target_columns(
        Recording(), demo_table(), "p?", PipelineConfig(templates=custom)
    )
    assert names == ["country"]
    assert prompts[0].endswith("CUSTOM SELECT for p?")
    assert load_default_templates().column_selection not in prompts[0]
