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

# A stage whose response cannot be used is asked again this many times, at
# ``RETRY_TEMPERATURE``, before it fails.
MAX_RETRIES = 1


@dataclass(frozen=True)
class PipelineConfig:
    max_iters_per_column: int = 8
    sample_size: int = 30
    templates: Optional[PromptTemplates] = None

    def __post_init__(self):
        if self.max_iters_per_column <= 0 or self.sample_size <= 0:
            raise ValueError("iteration and sample bounds must be positive")


@dataclass(frozen=True)
class TraceCall:
    stage: str
    column: Optional[str]
    attempt: int
    prompt: str
    response: Optional[str]
    params: DecodingParams
    outcome: str  # "ok" | "parse_error" | "backend_error"


@dataclass(frozen=True)
class TraceEvent:
    kind: str
    column: Optional[str]
    message: str


_DEGRADING_EVENTS = ("column_error", "budget_exhausted")


@dataclass
class Trace:
    backend_name: str = ""
    calls: list[TraceCall] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)

    def add_event(self, kind: str, column: Optional[str], message: str) -> None:
        logger.info("pipeline event %s (%s): %s", kind, column, message)
        self.events.append(TraceEvent(kind, column, message))

    @property
    def degraded(self) -> bool:
        return any(e.kind in _DEGRADING_EVENTS for e in self.events)

    def to_jsonl(self) -> str:
        """One JSON record per call, then one per event, in field order."""
        records = [{"type": "call", **vars(c), "params": vars(c.params)} for c in self.calls]
        records += [{"type": "event", **vars(e)} for e in self.events]
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


def _ask(
    backend: CompletionBackend,
    trace: Optional[Trace],
    stage: str,
    column: Optional[str],
    prompt: str,
    parse: Callable[[str], Optional[T]],
    error: type[DcflowError],
    params: DecodingParams = DEFAULT_PARAMS,
) -> T:
    """The stage's parsed answer, asking again up to ``MAX_RETRIES`` times.

    Every attempt is traced. A backend failure, or no parsable response
    after the retries, raises the stage's own ``error``.
    """
    trace = trace if trace is not None else Trace(backend.name)
    for attempt in range(MAX_RETRIES + 1):
        if attempt:
            params = replace(params, temperature=RETRY_TEMPERATURE)
        try:
            response = backend.complete(prompt, params)
        except BackendError as exc:
            trace.calls.append(
                TraceCall(stage, column, attempt, prompt, None, params, "backend_error")
            )
            raise error(f"backend failed: {exc}") from exc
        parsed = parse(response)
        outcome = "ok" if parsed is not None else "parse_error"
        trace.calls.append(TraceCall(stage, column, attempt, prompt, response, params, outcome))
        if parsed is not None:
            return parsed
    raise error(f"unusable response after {MAX_RETRIES + 1} attempt(s)")


def _templates(config: PipelineConfig) -> PromptTemplates:
    return config.templates if config.templates is not None else load_default_templates()


def _sample(
    table: Table, column: str, config: PipelineConfig, sampler: Optional[ColumnSampler]
) -> list[str]:
    table.column_index(column)
    return (sampler or ColumnSampler(column, config.sample_size)).next_batch(table)


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

    return _ask(backend, trace, STAGE_SELECT, None, prompt, parse, SelectionError)


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
    values = _sample(table, column, config, sampler)
    prompt = build_inspect_prompt(_templates(config), column, values, purpose_stmt, history)
    return _ask(
        backend, trace, STAGE_INSPECT, column, prompt, parse_quality_report, InspectionError
    )


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
    values = _sample(table, column, config, sampler)
    prompt = build_choose_prompt(
        _templates(config), column, values, purpose_stmt, report, history
    )
    return _ask(backend, trace, STAGE_CHOOSE, column, prompt, parse_op_choice, OpChoiceError)


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
    values = _sample(table, column, config, sampler)
    prompt = build_args_prompt(
        _templates(config), column, values, purpose_stmt, op.value, history
    )
    if op is OpKind.MASS_EDIT:
        params = replace(DEFAULT_PARAMS, temperature=MASS_EDIT_TEMPERATURE)
        return _ask(
            backend, trace, STAGE_ARGS, column, prompt, parse_mass_edit_args, ArgGenError, params
        )
    return _ask(backend, trace, STAGE_ARGS, column, prompt, parse_transform_args, ArgGenError)


def run_pipeline(
    backend: CompletionBackend,
    table: Table,
    purpose: Purpose,
    config: Optional[PipelineConfig] = None,
) -> PipelineResult:
    config = config or PipelineConfig()
    trace = Trace(backend.name)
    workflow = Workflow(source_table_id=table.provenance or "", purpose_id=purpose.id)
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
            # ``current`` is the replay of ``workflow`` over ``table``, so the
            # new step is applied to it once; its number is its position.
            step = OpSpec(choice.op, column, args, choice.explanation or None)
            workflow = replace(workflow, steps=workflow.steps + (step,))
            try:
                current = apply_step(current, step)
            except DcflowError as exc:
                raise ReplayError(len(workflow.steps), exc) from exc
        else:
            trace.add_event(
                "budget_exhausted",
                column,
                f"column still flagged after {config.max_iters_per_column} operations",
            )
    return PipelineResult(current, workflow, trace, aborted=False)
