"""Recordable, replayable operation sequences.

A workflow is an ordered list of steps over a named source table. Replay is
deterministic: the same workflow applied to the same input always produces
the same history of intermediate tables. The serialized form is JSON with
schema version ``dcflow/1``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any

from .errors import DcflowError, ReplayError, SchemaError
from .jsonread import choice, decode_json, integer, list_of, nullable, obj, string
from .ops import (
    ARG_TYPES,
    MassEditSpec,
    OpKind,
    apply_date,
    apply_mass_edit,
    apply_numeric,
    apply_regexr_transform,
    apply_trim,
    apply_upper,
)
from .table import Table
from .transform import TransformExpr

SCHEMA_VERSION = "dcflow/1"


@dataclass(frozen=True)
class OpSpec:
    """One recorded operation; its step number is its 1-based position."""

    op: OpKind
    column: str
    args: MassEditSpec | TransformExpr | None = None
    rationale: str | None = None

    def __post_init__(self):
        arg_type = ARG_TYPES.get(self.op)
        if arg_type is None and self.args is not None:
            raise ValueError(f"{self.op.value} takes no arguments")
        if arg_type is not None and not isinstance(self.args, arg_type):
            raise ValueError(f"{self.op.value} requires a {arg_type.__name__}")


def apply_step(table: Table, step: OpSpec) -> Table:
    # Calls go through this module's ``apply_*`` globals, so a wrapper put in
    # place of one of them sees every call; a table of the functions would not.
    if step.op is OpKind.UPPER:
        return apply_upper(table, step.column)
    if step.op is OpKind.TRIM:
        return apply_trim(table, step.column)
    if step.op is OpKind.NUMERIC:
        return apply_numeric(table, step.column)
    if step.op is OpKind.DATE:
        return apply_date(table, step.column)
    if step.op is OpKind.MASS_EDIT:
        return apply_mass_edit(table, step.column, step.args)
    return apply_regexr_transform(table, step.column, step.args)


@dataclass(frozen=True)
class Workflow:
    steps: tuple[OpSpec, ...] = ()
    source_table_id: str = ""
    purpose_id: str | None = None


@dataclass(frozen=True)
class History:
    """Tables D0..Dn aligned with a workflow's steps; tables[0] is the input."""

    tables: tuple[Table, ...]

    @property
    def final(self) -> Table:
        return self.tables[-1]


def record(workflow: Workflow, step: OpSpec, source_table: Table) -> Workflow:
    """Append a step after validating it against the replayed frontier.

    The prefix is replayed rather than trusting any caller-held table, so a
    stale frontier cannot sneak an invalid step into the workflow.
    """
    frontier = replay(workflow, source_table).final
    frontier.column_index(step.column)
    return replace(workflow, steps=workflow.steps + (step,))


def replay(workflow: Workflow, table: Table) -> History:
    tables = [table]
    for i, step in enumerate(workflow.steps, 1):
        try:
            tables.append(apply_step(tables[-1], step))
        except DcflowError as exc:
            raise ReplayError(i, exc) from exc
    return History(tuple(tables))


@dataclass(frozen=True)
class OpStats:
    list_length: int
    set_length: int
    counts: dict[str, int] = field(default_factory=dict)


def op_stats(workflow: Workflow) -> OpStats:
    """Step count, distinct-op count, and per-op counts in ``OpKind`` order."""
    tally = Counter(s.op for s in workflow.steps)
    counts = {op.value: tally[op] for op in OpKind if tally[op]}
    return OpStats(len(workflow.steps), len(counts), counts)


def serialize(workflow: Workflow) -> bytes:
    doc = {
        "version": SCHEMA_VERSION,
        "source_table_id": workflow.source_table_id,
        "purpose_id": workflow.purpose_id,
        "steps": [
            {
                "index": i,
                "op": s.op.value,
                "column": s.column,
                "args": None if s.args is None else s.args.to_json(),
                "rationale": s.rationale,
            }
            for i, s in enumerate(workflow.steps, 1)
        ],
    }
    return (json.dumps(doc, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


def _parse_args(op: OpKind, raw: Any, path: str) -> MassEditSpec | TransformExpr | None:
    arg_type = ARG_TYPES.get(op)
    if arg_type is None and raw is not None:
        raise SchemaError(path, f"{op.value} takes no arguments")
    return None if arg_type is None else arg_type.from_json(raw, path)


def _step_from_json(raw: Any, path: str) -> tuple[int, OpSpec]:
    step = obj(
        raw, path, index=integer, op=choice(OpKind), column=string,
        args=(lambda args, _: args, None),  # read by ``op``'s argument type below
        rationale=(nullable(string), None),
    )
    args = _parse_args(step["op"], step["args"], f"{path}.args")
    return step["index"], OpSpec(step["op"], step["column"], args, step["rationale"])


def deserialize(data: bytes) -> Workflow:
    doc = obj(
        decode_json(data, "$"), "$", version=choice((SCHEMA_VERSION,)),
        source_table_id=(string, ""), purpose_id=(nullable(string), None),
        steps=list_of(_step_from_json),
    )
    for i, (index, _) in enumerate(doc["steps"]):
        if index != i + 1:
            raise SchemaError(f"steps[{i}].index", f"must be {i + 1}")
    steps = tuple(step for _, step in doc["steps"])
    return Workflow(steps, doc["source_table_id"], doc["purpose_id"])
