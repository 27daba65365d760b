"""The iterative cleaning pipeline.

One run selects the target columns for a purpose, then walks them in order:
inspect the column's quality, and while the report flags problems, choose an
operation, generate its arguments if needed, apply it, and record it in the
workflow. A column leaves the worklist when its report comes back clean,
when it is ruled irrelevant, when a stage fails twice, or when its
iteration budget runs out. The run halts after at most
``len(columns) * max_iters_per_column`` operations no matter how the
backend behaves.

Every backend call is traced with its prompt, raw response, decoding
parameters and parse outcome, so a run can be audited or replayed offline.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, TypeVar

from ..errors import (
    ArgGenError,
    BackendError,
    DcflowError,
    InspectionError,
    OpChoiceError,
    ReplayError,
    SelectionError,
)
from ..ops import ARG_TYPES, MassEditSpec, OpKind
from ..query import Purpose
from ..table import Table
from ..transform import TransformExpr
from ..workflow import OpSpec, Workflow, apply_step
from .backends import (
    DEFAULT_PARAMS,
    MASS_EDIT_TEMPERATURE,
    RETRY_TEMPERATURE,
    CompletionBackend,
    DecodingParams,
)
from .parsing import (
    OpChoice,
    QualityReport,
    parse_column_list,
    parse_mass_edit_args,
    parse_op_choice,
    parse_quality_report,
    parse_transform_args,
)
from .prompts import (
    STAGE_ARGS,
    STAGE_CHOOSE,
    STAGE_INSPECT,
    STAGE_SELECT,
    ColumnSampler,
    PromptTemplates,
    build_args_prompt,
    build_choose_prompt,
    build_inspect_prompt,
    build_select_prompt,
    load_default_templates,
)

logger = logging.getLogger(__name__)

T = TypeVar("T")


@dataclass(frozen=True)
class PipelineConfig:
    max_iters_per_column: int = 8
    sample_size: int = 30
    max_retries_per_call: int = 1
    templates: Optional[PromptTemplates] = None

    def __post_init__(self):
        if self.max_iters_per_column <= 0 or self.sample_size <= 0:
            raise ValueError("iteration and sample bounds must be positive")
        if self.max_retries_per_call < 0:
            raise ValueError("max_retries_per_call must be >= 0")


@dataclass(frozen=True)
class TraceCall:
    stage: str
    column: Optional[str]
    attempt: int
    prompt: str
    response: Optional[str]
    params: DecodingParams
    outcome: str  # "ok" | "parse_error" | "backend_error"

    def to_json(self) -> dict:
        return {
            "type": "call",
            "stage": self.stage,
            "column": self.column,
            "attempt": self.attempt,
            "prompt": self.prompt,
            "response": self.response,
            "params": self.params.to_json(),
            "outcome": self.outcome,
        }


@dataclass(frozen=True)
class TraceEvent:
    kind: str
    column: Optional[str]
    message: str

    def to_json(self) -> dict:
        return {
            "type": "event",
            "kind": self.kind,
            "column": self.column,
            "message": self.message,
        }


_DEGRADING_EVENTS = ("column_error", "budget_exhausted")


@dataclass
class Trace:
    backend_name: str = ""
    calls: list[TraceCall] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)

    def add_call(self, call: TraceCall) -> None:
        self.calls.append(call)

    def add_event(self, kind: str, column: Optional[str], message: str) -> None:
        logger.info("pipeline event %s (%s): %s", kind, column, message)
        self.events.append(TraceEvent(kind, column, message))

    @property
    def degraded(self) -> bool:
        return any(e.kind in _DEGRADING_EVENTS for e in self.events)

    def to_jsonl(self) -> str:
        records = [c.to_json() for c in self.calls] + [e.to_json() for e in self.events]
        return "\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n"


@dataclass(frozen=True)
class PipelineResult:
    final_table: Table
    workflow: Workflow
    trace: Trace
    aborted: bool = False

    @property
    def degraded(self) -> bool:
        return self.trace.degraded


class _StageFailure(Exception):
    """Internal: a stage could not produce a usable result."""


def _call_backend(
    backend: CompletionBackend,
    prompt: str,
    params: DecodingParams,
    parse: Callable[[str], Optional[T]],
    stage: str,
    column: Optional[str],
    trace: Trace,
    max_retries: int,
) -> tuple[T, int]:
    """One backend call with up to ``max_retries`` re-asks at temperature 0.3."""
    for attempt in range(max_retries + 1):
        attempt_params = (
            params if attempt == 0 else replace(params, temperature=RETRY_TEMPERATURE)
        )
        try:
            response = backend.complete(prompt, attempt_params)
        except BackendError as exc:
            trace.add_call(
                TraceCall(stage, column, attempt, prompt, None, attempt_params, "backend_error")
            )
            raise _StageFailure(f"backend failed: {exc}") from exc
        parsed = parse(response)
        outcome = "ok" if parsed is not None else "parse_error"
        trace.add_call(
            TraceCall(stage, column, attempt, prompt, response, attempt_params, outcome)
        )
        if parsed is not None:
            return parsed, attempt
    raise _StageFailure(f"unusable response after {max_retries + 1} attempt(s)")


def _templates(config: PipelineConfig) -> PromptTemplates:
    return config.templates if config.templates is not None else load_default_templates()


def select_target_columns(
    backend: CompletionBackend,
    table: Table,
    purpose_stmt: str,
    config: PipelineConfig = PipelineConfig(),
    trace: Optional[Trace] = None,
) -> list[str]:
    """Ask for the purpose's target columns; unknown names are dropped."""
    trace = trace if trace is not None else Trace(backend.name)
    prompt = build_select_prompt(_templates(config), table, purpose_stmt)

    def parse(response: str) -> Optional[list[str]]:
        names = parse_column_list(response)
        if names is None:
            return None
        known = [n for n in names if n in table.columns]
        dropped = [n for n in names if n not in table.columns]
        if dropped:
            logger.warning("dropping non-existent columns: %s", dropped)
            trace.add_event(
                "dropped_columns", None, f"not in table: {', '.join(dropped)}"
            )
        return known or None

    try:
        names, _ = _call_backend(
            backend,
            prompt,
            DEFAULT_PARAMS,
            parse,
            STAGE_SELECT,
            None,
            trace,
            config.max_retries_per_call,
        )
    except _StageFailure as exc:
        raise SelectionError(str(exc)) from exc
    return names


def inspect_column_quality(
    backend: CompletionBackend,
    table: Table,
    column: str,
    purpose_stmt: str,
    config: PipelineConfig = PipelineConfig(),
    trace: Optional[Trace] = None,
    sampler: Optional[ColumnSampler] = None,
    history: Workflow = Workflow(),
) -> QualityReport:
    trace = trace if trace is not None else Trace(backend.name)
    table.column_index(column)
    sampler = sampler or ColumnSampler(column, config.sample_size)
    prompt = build_inspect_prompt(
        _templates(config), column, sampler.next_batch(table), purpose_stmt, history
    )
    try:
        report, _ = _call_backend(
            backend,
            prompt,
            DEFAULT_PARAMS,
            parse_quality_report,
            STAGE_INSPECT,
            column,
            trace,
            config.max_retries_per_call,
        )
    except _StageFailure as exc:
        raise InspectionError(str(exc)) from exc
    return report


def choose_operation(
    backend: CompletionBackend,
    table: Table,
    column: str,
    purpose_stmt: str,
    report: QualityReport,
    config: PipelineConfig = PipelineConfig(),
    trace: Optional[Trace] = None,
    sampler: Optional[ColumnSampler] = None,
    history: Workflow = Workflow(),
) -> OpChoice:
    trace = trace if trace is not None else Trace(backend.name)
    table.column_index(column)
    sampler = sampler or ColumnSampler(column, config.sample_size)
    prompt = build_choose_prompt(
        _templates(config), column, sampler.next_batch(table), purpose_stmt, report, history
    )

    def parse(response: str):
        parsed = parse_op_choice(response)
        if parsed is None:
            return None
        return parsed + (response,)

    try:
        (op, explanation, raw), attempt = _call_backend(
            backend,
            prompt,
            DEFAULT_PARAMS,
            parse,
            STAGE_CHOOSE,
            column,
            trace,
            config.max_retries_per_call,
        )
    except _StageFailure as exc:
        raise OpChoiceError(str(exc)) from exc
    return OpChoice(op=op, explanation=explanation, raw_response=raw, retry_count=attempt)


def generate_arguments(
    backend: CompletionBackend,
    table: Table,
    column: str,
    op: OpKind,
    purpose_stmt: str = "",
    config: PipelineConfig = PipelineConfig(),
    trace: Optional[Trace] = None,
    sampler: Optional[ColumnSampler] = None,
    history: Workflow = Workflow(),
) -> MassEditSpec | TransformExpr:
    if op not in ARG_TYPES:
        raise ValueError(f"{op.value} takes no generated arguments")
    trace = trace if trace is not None else Trace(backend.name)
    table.column_index(column)
    sampler = sampler or ColumnSampler(column, config.sample_size)
    prompt = build_args_prompt(
        _templates(config), column, sampler.next_batch(table), purpose_stmt, op.value, history
    )
    if op is OpKind.MASS_EDIT:
        params = replace(DEFAULT_PARAMS, temperature=MASS_EDIT_TEMPERATURE)
        parse = parse_mass_edit_args
    else:
        params = DEFAULT_PARAMS
        parse = parse_transform_args
    try:
        args, _ = _call_backend(
            backend,
            prompt,
            params,
            parse,
            STAGE_ARGS,
            column,
            trace,
            config.max_retries_per_call,
        )
    except _StageFailure as exc:
        raise ArgGenError(str(exc)) from exc
    return args


def run_pipeline(
    backend: CompletionBackend,
    table: Table,
    purpose: Purpose,
    config: Optional[PipelineConfig] = None,
) -> PipelineResult:
    config = config or PipelineConfig()
    trace = Trace(backend.name)
    workflow = Workflow(
        steps=(),
        source_table_id=table.provenance or "",
        purpose_id=purpose.id,
    )
    try:
        worklist = select_target_columns(
            backend, table, purpose.statement, config, trace
        )
    except SelectionError as exc:
        trace.add_event("aborted", None, f"column selection failed: {exc}")
        return PipelineResult(table, workflow, trace, aborted=True)

    current = table
    for column in worklist:
        sampler = ColumnSampler(column, config.sample_size)
        for _ in range(config.max_iters_per_column):
            try:
                report = inspect_column_quality(
                    backend, current, column, purpose.statement,
                    config, trace, sampler, workflow,
                )
            except InspectionError as exc:
                trace.add_event("column_error", column, f"inspection failed: {exc}")
                break
            if report.flag:
                trace.add_event("column_done", column, "quality report came back clean")
                break
            if report.relevance is False:
                # No operation can fix irrelevance; drop the column instead.
                trace.add_event(
                    "relevance_removed", column, "rated irrelevant to the purpose"
                )
                break
            try:
                choice = choose_operation(
                    backend, current, column, purpose.statement, report,
                    config, trace, sampler, workflow,
                )
                args: MassEditSpec | TransformExpr | None = None
                if choice.op in ARG_TYPES:
                    args = generate_arguments(
                        backend, current, column, choice.op, purpose.statement,
                        config, trace, sampler, workflow,
                    )
            except (OpChoiceError, ArgGenError) as exc:
                trace.add_event("column_error", column, str(exc))
                break
            # ``current`` is the replay of ``workflow`` over ``table``, so
            # the step is checked against and applied to it once; the
            # workflow numbers the new step.
            current.column_index(column)
            step = OpSpec(
                op=choice.op,
                column=column,
                args=args,
                rationale=choice.explanation or None,
            )
            workflow = replace(workflow, steps=workflow.steps + (step,))
            step = workflow.steps[-1]
            try:
                current = apply_step(current, step)
            except DcflowError as exc:
                raise ReplayError(step.step_index, exc) from exc
        else:
            trace.add_event(
                "budget_exhausted",
                column,
                f"column still flagged after {config.max_iters_per_column} operations",
            )
    return PipelineResult(current, workflow, trace, aborted=False)
