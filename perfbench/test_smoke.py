"""Smoke test: every workload at tiny size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import gen  # noqa: E402
from layers import QUERY_SHAPES  # noqa: E402


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, done.stderr
    return doc["metrics"]


def check_metrics(metrics: dict, declared: list[dict]) -> None:
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        value = metrics[m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    metrics = result_of(run("--workload", workload, "--scale", "tiny", "--seconds", "0"))
    check_metrics(metrics, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced(workload):
    # --seconds 0 gives one traced pass, whose self times add up exactly.
    metrics = result_of(
        run("--workload", workload, "--scale", "tiny", "--seconds", "0", "--trace", "1")
    )
    check_metrics(metrics, SPEC["per_layer"])
    values = {k: v["value"] for k, v in metrics.items()}
    # The pass's harness.pass span covers its total_s; only entering and
    # leaving the span fall outside it.
    assert 0 <= values["trace.untraced_frac"] < 0.01
    # Within the spans, the reported self times (harness and tracer
    # included) drop nothing: they add up to the threads' root spans.
    # query.<shape>.s split execute_purpose.
    shapes = {f"query.{shape}.s" for shape in QUERY_SHAPES}
    self_s = sum(
        v for k, v in values.items()
        if metrics[k]["unit"] == "s" and k not in shapes and k != "trace.thread_s"
    )
    assert self_s == pytest.approx(values["trace.thread_s"], rel=1e-9)
    assert 0 < values["trace.bookkeeping_frac"] < 1
    assert sum(values[k] for k in shapes) == pytest.approx(values["query.execute_purpose.s"])
    assert values["agent.load_default_templates.calls"] == values["agent.backend.calls"]
    if workload == "clean-large":
        # 12 record() prefix replays (0+1+...+11), 12 frontier replays
        # (1+2+...+12), and the 12-step silver and output replays.
        assert values["workflow.op_applications"] == 66 + 78 + 12 + 12
        assert values["agent.backend.wait_s"] == 0
    if workload == "build-score":
        assert values["agent.backend.calls"] == 0
        assert values["benchmark.injected_cells"] == round(0.05 * 200 * 2)


def test_missing_sources_fail(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _osa(a: str, b: str) -> int:
    """Edit distance with adjacent transpositions."""
    d = [[i + j if i * j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[-1][-1]


@pytest.mark.parametrize("vocab", [gen.FACILITY_TYPES, gen.RESULTS])
def test_injected_vocabulary_is_spread_out(vocab):
    # build-score's repair workflow is exact only if one typo can never
    # turn a canonical value into another one or into another's typo.
    values = [v for v, _ in vocab]
    for i, a in enumerate(values):
        assert a == a.strip().upper()
        for b in values[i + 1:]:
            assert _osa(a, b) >= 3, (a, b)


def test_generator_is_seeded():
    spec = gen.TableSpec(rows=50, names=7, days=9, zips=3)
    a, b = gen.generate(spec, 5), gen.generate(spec, 5)
    assert gen.to_csv(a.raw) == gen.to_csv(b.raw) and a.gold == b.gold
    assert gen.to_csv(gen.generate(spec, 6).raw) != gen.to_csv(a.raw)
    assert len({row[0] for row in a.gold}) == 50
    assert len({row[1] for row in a.gold}) <= 7
    assert len({row[4] for row in a.gold}) <= 9
