"""Scripted-backend responses that make ``run_pipeline`` rebuild a workflow.

The pipeline walks its selected columns in order. For each column it asks
for a quality report; while the report is failing it asks for an operation
and, for ``mass_edit``/``regexr_transform``, for its arguments. So a silver
workflow whose steps are grouped by column maps to one script: select the
columns, then per step a failing report, the operation (with the step's
rationale as explanation) and the arguments, then a passing report. Target
columns without steps get only the passing report.
"""

from __future__ import annotations

import json

import dcflow.agent

_FAILING = (
    "Accuracy: True (values are readable)\n"
    "Relevance: True (the purpose needs this column)\n"
    "Completeness: True (no missing values)\n"
    "Conciseness: False ({reason})\n"
    "Flag: False\n"
    "Objectives:\n"
    "- {reason}"
)
_PASSING = (
    "Accuracy: True (no obvious errors remain)\n"
    "Relevance: True (the purpose needs this column)\n"
    "Completeness: True (no missing values)\n"
    "Conciseness: True (one representation per value)\n"
    "Flag: True"
)


def column_order(steps: list[dict], target_columns=()) -> list[str]:
    """Columns with steps in workflow order, then the other targets.

    Raises ValueError when a column's steps are not contiguous: the
    pipeline finishes one column before it starts the next, so such a
    workflow cannot be reproduced.
    """
    order: list[str] = []
    for step in steps:
        column = step["column"]
        if column in order and order[-1] != column:
            raise ValueError(f"steps on {column!r} are not contiguous")
        if column not in order:
            order.append(column)
    return order + [c for c in target_columns if c not in order]


def script_from_silver(silver: bytes | dict, target_columns=()) -> dict:
    """Build a ``ScriptedBackend.from_json`` document from a ``dcflow/1``
    workflow. A column needs one more report than it has steps, within the
    pipeline's default per-column budget."""
    doc = json.loads(silver) if isinstance(silver, (bytes, str)) else silver
    steps = doc["steps"]
    columns = column_order(steps, target_columns)
    max_iters = dcflow.agent.PipelineConfig().max_iters_per_column
    entries = [
        {
            "stage": "select-columns",
            "response": f"Selected columns: ```{columns!r}```\nExplanation: scripted.",
        }
    ]
    for column in columns:
        mine = [s for s in steps if s["column"] == column]
        if len(mine) >= max_iters:
            raise ValueError(f"{column!r} has {len(mine)} steps; the budget is {max_iters - 1}")
        for step in mine:
            reason = step.get("rationale") or f"{step['op']} is needed"
            entries.append(
                {
                    "stage": "inspect-quality",
                    "column": column,
                    "response": _FAILING.format(reason=reason.replace("\n", " ")),
                }
            )
            choice = f"Selected Operation: {step['op']}"
            if step.get("rationale"):
                choice += f"\nExplanation: {step['rationale']}"
            entries.append({"stage": "choose-operation", "column": column, "response": choice})
            if step["op"] == "mass_edit":
                response = json.dumps(step["args"]["edits"], ensure_ascii=False)
            elif step["op"] == "regexr_transform":
                response = step["args"]["expression"]
            else:
                continue
            entries.append(
                {
                    "stage": "generate-arguments",
                    "column": column,
                    "contains": f"Operation: {step['op']}",
                    "response": response,
                }
            )
        entries.append({"stage": "inspect-quality", "column": column, "response": _PASSING})
    return {"name": f"silver:{doc.get('purpose_id')}", "entries": entries}
