"""The benchmark's per-layer tracer still finds every name it wraps.

``perfbench/layers.py`` swaps dcflow's public functions for timing wrappers
by name and by identity. A renamed or deleted function breaks every traced
run, and an op reached through anything but ``apply_step``'s module-level
``apply_*`` names would report zero time, so both are checked here.
"""

from __future__ import annotations

import sys
from pathlib import Path

import dcflow.ops
import dcflow.workflow
from dcflow import Cell, MassEditSpec, OpKind, OpSpec, Table, parse_transform_expr

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tracer_installs_times_every_op_and_uninstalls():
    originals = {op: getattr(dcflow.ops, f"apply_{op}") for op in layers.OPS}
    apply_step = dcflow.workflow.apply_step
    args = {
        OpKind.MASS_EDIT: MassEditSpec.of([(["a"], "b")]),
        OpKind.REGEXR_TRANSFORM: parse_transform_expr("jython: return value.lower()"),
    }
    table = Table.from_rows(["c"], [[Cell.text(" a ")], [Cell.text("12")]])
    t = tracer.Tracer()
    layers.install(t, workloads.PerfBackend)
    try:
        for op in OpKind:
            dcflow.workflow.apply_step(table, OpSpec(op, "c", args.get(op)))
    finally:
        t.uninstall()
    assert {f"ops.{op}" for op in layers.OPS} <= {span[2] for span in t.spans}
    assert sum(v for name, v in t.counts if name == "workflow.op_applications") == len(OpKind)
    assert dcflow.workflow.apply_step is apply_step
    assert all(getattr(dcflow.ops, f"apply_{op}") is fn for op, fn in originals.items())
