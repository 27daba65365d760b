"""Which dcflow functions the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<function>``; a metric is a span's summed self
time (``.s``), its call count (``.calls``) or a count a wrapper reads off
the call's arguments and result. ``query.<shape>.s`` splits
``execute_purpose``'s inclusive time by query shape.
"""

from __future__ import annotations

import statistics

import dcflow
import dcflow.agent
import dcflow.agent.prompts
import dcflow.benchmark
import dcflow.cli
import dcflow.evaluation
import dcflow.ops
import dcflow.query
import dcflow.table
import dcflow.transform
import dcflow.workflow

from tracer import Tracer, self_times, sum_counts

OPS = ("upper", "trim", "numeric", "date", "mass_edit", "regexr_transform")
QUERY_SHAPES = (
    "filter_eq",
    "filter_lt",
    "filter_after",
    "distinct",
    "count_distinct",
    "group_max",
    "group_mean",
    "argmax_by",
)
_AGENT_STAGES = (
    "select_target_columns",
    "inspect_column_quality",
    "choose_operation",
    "generate_arguments",
)
_EVALUATION = ("eval_answer", "eval_columns", "eval_workflow", "aggregate")

# (metric, unit) in the order BENCHMARK.json lists them; for all of them
# lower is better.
METRICS: list[tuple[str, str]] = [
    ("table.load_table.s", "s"),
    ("table.load_table.cells", "count"),
    ("table.table_to_csv.s", "s"),
    ("table.table_to_csv.bytes", "bytes"),
    *[(f"ops.{op}.s", "s") for op in OPS],
    ("ops.cells_in", "count"),
    ("ops.cells_changed", "count"),
    ("transform.parse_transform_expr.s", "s"),
    ("transform.parse_transform_expr.calls", "count"),
    ("workflow.record.s", "s"),
    ("workflow.record.calls", "count"),
    ("workflow.replay.s", "s"),
    ("workflow.replay.calls", "count"),
    ("workflow.serialize.s", "s"),
    ("workflow.deserialize.s", "s"),
    ("workflow.op_applications", "count"),
    ("query.execute_purpose.s", "s"),
    ("query.execute_purpose.calls", "count"),
    ("query.rows_scanned", "count"),
    *[(f"query.{shape}.s", "s") for shape in QUERY_SHAPES],
    ("agent.run_pipeline.self_s", "s"),
    *[(f"agent.{stage}.s", "s") for stage in _AGENT_STAGES],
    ("agent.ColumnSampler.next_batch.s", "s"),
    ("agent.load_default_templates.calls", "count"),
    ("agent.load_default_templates.s", "s"),
    ("agent.backend.s", "s"),
    ("agent.backend.calls", "count"),
    ("agent.backend.wait_s", "s"),
    ("agent.parse_error_frac", "ratio"),
    ("agent.prompt_chars", "chars"),
    ("benchmark.inject_errors.s", "s"),
    ("benchmark.injected_cells", "count"),
    ("benchmark.load_case.s", "s"),
    ("benchmark.validate_case.s", "s"),
    *[(f"evaluation.{fn}.s", "s") for fn in _EVALUATION],
    ("cli.atomic_write.s", "s"),
    ("cli.atomic_write.bytes", "bytes"),
    ("harness.self_s", "s"),
    ("harness.pool_wait_s", "s"),
    ("trace.bookkeeping_s", "s"),
    ("trace.bookkeeping_frac", "ratio"),
    ("trace.thread_s", "s"),
    ("trace.untraced_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
]
UNITS = dict(METRICS)

# Span names whose self time is reported under another metric name. All
# other spans report ``<name>.s``; spans named ``harness.*`` are the
# benchmark's own code.
_SELF_METRIC = {
    "agent.run_pipeline": "agent.run_pipeline.self_s",
    "agent.backend.wait": "agent.backend.wait_s",
    "harness.pool_wait": "harness.pool_wait_s",
    "trace.bookkeeping": "trace.bookkeeping_s",
}
_CALL_METRICS = (
    "transform.parse_transform_expr",
    "workflow.record",
    "workflow.replay",
    "query.execute_purpose",
    "agent.load_default_templates",
    "agent.backend",
)


def query_shape(query) -> str:
    agg = query.aggregate
    if agg is not None:
        if agg.fn in ("argmax_by", "count_distinct"):
            return agg.fn
        if query.group_by is not None and agg.fn in ("max", "mean"):
            return f"group_{agg.fn}"
        return "other"
    if query.distinct:
        return "distinct"
    ops = {f.op for f in query.filters}
    for op, shape in (("=", "filter_eq"), ("<", "filter_lt"), ("after", "filter_after")):
        if op in ops:
            return shape
    return "other"


def _cells(args, kwargs, result, seconds):
    yield "table.load_table.cells", result.n_rows * result.n_cols


def _csv_bytes(args, kwargs, result, seconds):
    yield "table.table_to_csv.bytes", len(result)


def _op_cells(args, kwargs, result, seconds):
    table, column = args[0], args[1]
    j = table.column_index(column)
    yield "ops.cells_in", table.n_rows
    yield "ops.cells_changed", sum(
        1 for before, after in zip(table.rows, result.rows) if before[j] != after[j]
    )


def _query(args, kwargs, result, seconds):
    query, table = args[0], args[1]
    yield "query.rows_scanned", table.n_rows
    yield f"query.{query_shape(query)}.s", seconds


def _prompt(args, kwargs, result, seconds):
    yield "agent.prompt_chars", len(args[1])


def _injected(args, kwargs, result, seconds):
    yield "benchmark.injected_cells", len(result[1].entries)


def _written(args, kwargs, result, seconds):
    yield "cli.atomic_write.bytes", len(args[1])


def install(tracer: Tracer, backend_cls) -> None:
    """Wrap every measured function; ``backend_cls`` is the benchmark's
    completion backend, whose ``complete``/``wait`` stand for the model."""
    fn = tracer.patch_function
    fn(dcflow.table, "load_table", "table.load_table", _cells)
    fn(dcflow.table, "table_to_csv", "table.table_to_csv", _csv_bytes)
    for op in OPS:
        fn(dcflow.ops, f"apply_{op}", f"ops.{op}", _op_cells)
    fn(dcflow.transform, "parse_transform_expr", "transform.parse_transform_expr")
    for name in ("record", "replay", "serialize", "deserialize"):
        fn(dcflow.workflow, name, f"workflow.{name}")
    fn(dcflow.workflow, "apply_step", "workflow.op_applications", span=False)
    fn(dcflow.query, "execute_purpose", "query.execute_purpose", _query)
    fn(dcflow.agent, "run_pipeline", "agent.run_pipeline")
    for stage in _AGENT_STAGES:
        fn(dcflow.agent, stage, f"agent.{stage}")
    fn(dcflow.agent.prompts, "load_default_templates", "agent.load_default_templates")
    tracer.patch_method(dcflow.agent.ColumnSampler, "next_batch", "agent.ColumnSampler.next_batch")
    tracer.patch_method(backend_cls, "complete", "agent.backend", _prompt)
    tracer.patch_method(backend_cls, "wait", "agent.backend.wait")
    fn(dcflow.benchmark, "inject_errors", "benchmark.inject_errors", _injected)
    fn(dcflow.benchmark, "load_case", "benchmark.load_case")
    fn(dcflow.benchmark, "validate_case", "benchmark.validate_case")
    for name in _EVALUATION:
        fn(dcflow.evaluation, name, f"evaluation.{name}")
    fn(dcflow.cli, "atomic_write", "cli.atomic_write", _written)


def pass_metrics(spans: list[tuple], counts: list[tuple[str, float]], total_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``total_s`` (every
    metric, zero if unused).

    ``trace.bookkeeping_frac`` is the share of the traced thread time the
    tracer spent on its own counts. ``trace.untraced_frac`` is the share of
    ``total_s`` outside the pass's ``harness.pass`` span, which no self
    time accounts for; it should be close to 0.
    """
    self_s, calls, thread_s = self_times(spans)
    totals = sum_counts(counts)
    out = {name: 0.0 for name in UNITS if name != "trace.overhead_frac"}
    for name, seconds in self_s.items():
        if name.startswith("harness.") and name not in _SELF_METRIC:
            out["harness.self_s"] += seconds
            continue
        metric = _SELF_METRIC.get(name, f"{name}.s")
        if metric not in out:
            raise KeyError(f"span {name!r} has no metric")
        out[metric] += seconds
    for name in _CALL_METRICS:
        out[f"{name}.calls"] = calls.get(name, 0)
    replies = totals.pop("agent.replies", 0)
    parse_errors = totals.pop("agent.parse_errors", 0)
    out["agent.parse_error_frac"] = parse_errors / replies if replies else 0.0
    for name, value in totals.items():
        if name not in out:
            raise KeyError(f"count {name!r} has no metric")
        out[name] += value
    out["trace.thread_s"] = thread_s
    out["trace.bookkeeping_frac"] = out["trace.bookkeeping_s"] / thread_s
    covered = sum(s[5] - s[4] for s in spans if s[2] == "harness.pass")
    out["trace.untraced_frac"] = 1 - covered / total_s
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
