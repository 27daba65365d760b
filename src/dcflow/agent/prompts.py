"""Prompt assembly: templates, table rendering, and value sampling.

Assembly is deterministic: the same table, purpose and config always give
byte-identical prompts. Every prompt carries ``Task stage:`` and (where
applicable) ``Target column:`` header lines, which is also what the
scripted backend keys on.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from importlib import resources

from ..table import Table
from ..workflow import Workflow
from .parsing import QualityReport

STAGE_SELECT = "select-columns"
STAGE_INSPECT = "inspect-quality"
STAGE_CHOOSE = "choose-operation"
STAGE_ARGS = "generate-arguments"

_TEMPLATE_FILES = {
    "column_selection": "column_selection.txt",
    "quality_report": "quality_report.txt",
    "operations": "operations.txt",
}


@dataclass(frozen=True)
class PromptTemplates:
    column_selection: str
    quality_report: str
    operations: str


@functools.cache
def load_default_templates() -> PromptTemplates:
    """The bundled templates, read on the first call and shared after it."""
    base = resources.files("dcflow.agent") / "templates"
    texts = {
        key: (base / fname).read_text(encoding="utf-8")
        for key, fname in _TEMPLATE_FILES.items()
    }
    return PromptTemplates(**texts)


class ColumnSampler:
    """Serves distinct values of one column, a batch per iteration.

    Sampling always reads the table passed in, so after an operation the
    next prompt sees the column's current state. Values already shown in
    earlier iterations are skipped until none are left, then the cycle
    restarts, so large columns get covered over successive iterations.
    """

    def __init__(self, column: str, batch_size: int):
        self.column = column
        self.batch_size = batch_size
        self.shown: set[str] = set()

    def _distinct(self, table: Table) -> list[str]:
        out: list[str] = []
        seen = set()
        for cell in table.column_values(self.column):
            text = cell.render()
            if text not in seen:
                seen.add(text)
                out.append(text)
        return out

    def next_batch(self, table: Table) -> list[str]:
        distinct = self._distinct(table)
        fresh = [v for v in distinct if v not in self.shown]
        if not fresh:
            self.shown.clear()
            fresh = distinct
        batch = fresh[: self.batch_size]
        self.shown.update(batch)
        return batch


def render_table_block(table: Table, per_column: int = 3) -> str:
    """Whole-table summary used by the column-selection prompt."""
    samples = []
    for name in table.columns:
        values = [cell.render() for cell in table.column_values(name)[:per_column]]
        samples.append([name] + values)
    doc = {"columns": list(table.columns), "column_samples": samples}
    return json.dumps(doc, ensure_ascii=False, indent=2)


def render_column_block(column: str, values: list[str]) -> str:
    doc = {"column": column, "distinct_values": values}
    return json.dumps(doc, ensure_ascii=False, indent=2)


def render_history(workflow: Workflow) -> str:
    if not workflow.steps:
        return "(none)"
    return "\n".join(
        f"{i}. {s.op.value} on {s.column}" for i, s in enumerate(workflow.steps, 1)
    )


def _dim_text(value: bool | None) -> str:
    return "NA" if value is None else str(value)


def render_report(report: QualityReport) -> str:
    lines = [
        f"Accuracy: {_dim_text(report.accuracy)}",
        f"Relevance: {_dim_text(report.relevance)}",
        f"Completeness: {_dim_text(report.completeness)}",
        f"Conciseness: {_dim_text(report.conciseness)}",
        f"Flag: {report.flag}",
    ]
    if report.objectives:
        lines.append("Objectives:")
        lines.extend(f"- {obj}" for obj in report.objectives)
    return "\n".join(lines)


_SLOT_RE = re.compile(r"\{(\w+)\}")


def _fill(template: str, **slots: str) -> str:
    # One pass over the template: a filled-in value is never rescanned, so
    # text like "{purpose}" in a cell reaches the model verbatim. Braces
    # that name no slot stay as they are.
    return _SLOT_RE.sub(lambda m: slots.get(m.group(1), m.group(0)), template)


def build_select_prompt(templates: PromptTemplates, table: Table, purpose: str) -> str:
    body = _fill(
        templates.column_selection,
        table_block=render_table_block(table),
        purpose=purpose,
    )
    return f"Task stage: {STAGE_SELECT}\n\n{body}"


def _column_prompt(
    stage: str,
    template: str,
    column: str,
    values: list[str],
    purpose: str,
    history: Workflow,
    **extra: str,
) -> str:
    body = _fill(
        template,
        table_block=render_column_block(column, values),
        purpose=purpose,
        column=column,
        history=render_history(history),
        **extra,
    )
    return f"Task stage: {stage}\nTarget column: {column}\n\n{body}"


def build_inspect_prompt(
    templates: PromptTemplates,
    column: str,
    values: list[str],
    purpose: str,
    history: Workflow,
) -> str:
    return _column_prompt(
        STAGE_INSPECT, templates.quality_report, column, values, purpose, history
    )


def build_choose_prompt(
    templates: PromptTemplates,
    column: str,
    values: list[str],
    purpose: str,
    report: QualityReport,
    history: Workflow,
) -> str:
    return _column_prompt(
        STAGE_CHOOSE, templates.operations, column, values, purpose, history,
        report=render_report(report),
    )


_MASS_EDIT_REQUEST = """\
Operation: mass_edit
Provide the replacement groups for the column above as a JSON array, where
each element is {"from": [<values to replace>], "to": <canonical value>}.
Every "from" value must match a cell exactly, no value may appear in two
groups, and the reply must contain only the JSON array.
Example: [{"from": ["Ohare", "ohare"], "to": "OHARE"}]"""

_REGEXR_REQUEST = """\
Operation: regexr_transform
Provide a transform snippet for the column above. It must start with
"jython:" and may only use: "import re", one binding of the form
match = re.search(r'<pattern>', value), a conditional
"if match: return match.group(k)", and one trailing return of value, a
string literal, match.group(k), re.sub(r'<p>', '<r>', value), or
value.strip()/.upper()/.lower().
Example:
jython: import re
match = re.search(r'\\b\\d{4}\\b', value)
if match:
    return match.group(0)"""


def build_args_prompt(
    templates: PromptTemplates,
    column: str,
    values: list[str],
    purpose: str,
    op_name: str,
    history: Workflow,
) -> str:
    request = _MASS_EDIT_REQUEST if op_name == "mass_edit" else _REGEXR_REQUEST
    block = render_column_block(column, values)
    return (
        f"Task stage: {STAGE_ARGS}\n"
        f"Target column: {column}\n\n"
        f"Purpose: {purpose}\n\n"
        f"Operations already applied:\n{render_history(history)}\n\n"
        f"Column values:\n{block}\n\n"
        f"{request}"
    )
