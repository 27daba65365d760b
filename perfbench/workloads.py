"""The three workloads. Each one builds its inputs from a seed, then runs
timed passes; a pass goes from input bytes to a complete, checked result.

* ``clean-large``: the ``dcflow clean --case`` then ``dcflow replay`` path on
  one generated food-inspection case, driven by a scripted backend made
  from its 12-step silver workflow.
* ``build-score``: the benchmark author's path: inject errors into a gold
  table, write and reload the dirty table and error log, derive a repair
  workflow from the log, write one case per query shape, then
  ``validate`` and score every case with ``dcflow eval``'s per-case function.
* ``suite-small``: the bundled suite in 50 rounds of ``dcflow clean
  --jobs 2`` against a backend that sleeps a fixed time per call, each
  round replayed as ``dcflow replay`` does and scored by ``dcflow eval``'s
  per-case function.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import dcflow
import dcflow.agent
import dcflow.cli
import dcflow.data
import dcflow.query

import gen
from script_gen import script_from_silver

perf = time.perf_counter

MODEL_DELAY_S = 0.002
SUITE_JOBS = 2


class PerfBackend(dcflow.agent.CompletionBackend):
    """A scripted backend that sleeps ``delay`` seconds per call, standing
    in for model latency."""

    def __init__(self, script: dict, delay: float):
        self.inner = dcflow.agent.ScriptedBackend.from_json(script)
        self.name = self.inner.name
        self.delay = delay

    def wait(self) -> None:
        time.sleep(self.delay)

    def complete(self, prompt, params):
        if self.delay:
            self.wait()
        return self.inner.complete(prompt, params)


class NoProbe:
    """Stands in for a ``Tracer`` in untraced passes."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, value):
        pass


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


@dataclasses.dataclass
class PassResult:
    total_s: float
    replay_s: float
    case_s: list[float]
    digests: dict[str, str]


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()[:16]


def _json_bytes(doc) -> bytes:
    return (json.dumps(doc, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


def _count_replies(probe, result) -> None:
    probe.count("agent.replies", len(result.trace.calls))
    probe.count("agent.parse_errors", sum(c.outcome == "parse_error" for c in result.trace.calls))


def _same_steps(workflow, silver) -> bool:
    return dcflow.serialize(
        dataclasses.replace(
            workflow, source_table_id=silver.source_table_id, purpose_id=silver.purpose_id
        )
    ) == dcflow.serialize(silver)


def replay_files(workflow_path: Path, table_path: Path, out_path: Path | None) -> tuple[bytes, float]:
    """What ``dcflow replay`` does: deserialize, load, replay, render the
    CSV and write it to ``out_path`` unless that is None. Returns the CSV
    and the seconds it took."""
    start = perf()
    workflow = dcflow.deserialize(workflow_path.read_bytes())
    table = dcflow.load_table(table_path.read_bytes(), provenance=str(table_path))
    csv_bytes = dcflow.table_to_csv(dcflow.replay(workflow, table).final)
    if out_path is not None:
        dcflow.cli.atomic_write(out_path, csv_bytes)
    return csv_bytes, perf() - start


def score_case(case, topic: str, results_dir: Path, checks: Checks):
    """Baseline and cleaned scores of one case from
    ``results_dir/<case id>/{cleaned.csv,workflow.json}``, by the function
    ``dcflow eval`` calls per case."""
    scored, findings = dcflow.cli._eval_case(case, topic, results_dir)
    checks.expect(
        len(scored) == 2 and not findings, f"{case.purpose.id}: eval findings {findings[:3]}"
    )
    return scored


class Workload:
    """Inputs are built in ``__init__``; ``run_pass`` is one timed pass.
    ``tiny`` selects the smoke-test sizes."""

    name = ""

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.work = work
        self.passes = 0
        work.mkdir(parents=True, exist_ok=True)

    def pass_dir(self) -> Path:
        self.passes += 1
        return self.work / f"pass{self.passes}"

    def end_pass(self, out: Path) -> None:
        shutil.rmtree(out, ignore_errors=True)

    def run_pass(self, probe, checks: Checks) -> PassResult:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class CleanLarge(Workload):
    name = "clean-large"
    PURPOSE_ID = "clean-large"

    def __init__(self, work, seed, tiny):
        super().__init__(work, seed, tiny)
        spec = gen.TableSpec(rows=300 if tiny else 10_000, names=60 if tiny else 2000,
                             days=100 if tiny else 1000)
        table = gen.generate(spec, seed)
        case = work / "case"
        case.mkdir(parents=True, exist_ok=True)
        self.raw_path = case / "raw.csv"
        self.raw_path.write_bytes(gen.to_csv(table.raw))
        self.gold_bytes = gen.to_csv(table.gold)
        (case / "gold.csv").write_bytes(self.gold_bytes)
        self.silver = gen.silver_workflow(spec, "raw.csv", self.PURPOSE_ID)
        self.silver_path = case / "silver.json"
        self.silver_path.write_bytes(self.silver)
        purpose = {
            "id": self.PURPOSE_ID,
            "statement": "Identify the facility types inspected on the most recent date.",
            "category": "TimeBased",
            "target_columns": list(gen.SILVER_COLUMNS),
            "query": {
                "select": ["Facility Type"],
                "aggregate": {"fn": "argmax_by", "column": "Inspection Date"},
            },
            "gold_answer": gen.latest_facility_answer(table.gold),
        }
        self.manifest = case / "case.json"
        self.manifest.write_bytes(_json_bytes({
            "purpose": purpose,
            "raw_table": "raw.csv",
            "gold_table": "gold.csv",
            "silver_workflow": "silver.json",
            "error_log": None,
        }))
        self.script = script_from_silver(self.silver, gen.SILVER_COLUMNS)

    def run_pass(self, probe, checks):
        out = self.pass_dir()
        start = perf()
        with probe.span("harness.pass"):
            # Replay the silver workflow first (the reference must rebuild
            # the gold table), then clean, then replay what the clean wrote.
            silver_csv, silver_s = replay_files(self.silver_path, self.raw_path, out / "silver.csv")

            clean_start = perf()
            case = dcflow.load_case(self.manifest)
            backend = PerfBackend(self.script, 0.0)
            result = dcflow.agent.run_pipeline(backend, case.raw_table, case.purpose)
            workflow = dcflow.serialize(result.workflow)
            cleaned = dcflow.table_to_csv(result.final_table)
            trace = result.trace.to_jsonl().encode("utf-8")
            dcflow.cli.atomic_write(out / "workflow.json", workflow)
            dcflow.cli.atomic_write(out / "cleaned.csv", cleaned)
            dcflow.cli.atomic_write(out / "trace.jsonl", trace)
            case_s = perf() - clean_start

            replayed, replayed_s = replay_files(out / "workflow.json", self.raw_path, out / "replayed.csv")
            answer = dcflow.execute_purpose(case.purpose.query, result.final_table)
            _count_replies(probe, result)
            checks.expect(silver_csv == self.gold_bytes, "silver workflow does not rebuild the gold table")
            checks.expect(not result.aborted and not result.degraded, "pipeline degraded")
            checks.expect(
                all(c.outcome == "ok" for c in result.trace.calls), "a backend reply failed to parse"
            )
            checks.expect(replayed == cleaned, "replayed CSV differs from the pipeline's table")
            checks.expect(workflow == self.silver, "workflow differs from the silver workflow")
            checks.expect(cleaned == self.gold_bytes, "cleaned table differs from the gold table")
            checks.expect(
                dcflow.answers_equal(answer, case.purpose.gold_answer),
                "cleaned answer differs from the gold answer",
            )
        total = perf() - start
        self.end_pass(out)
        return PassResult(
            total,
            silver_s + replayed_s,
            [case_s],
            {"clean-large": digest(self.raw_path.read_bytes(), cleaned, workflow, trace)},
        )


# ---------------------------------------------------------------------------

INJECTED_COLUMNS = ("Facility Type", "Results")
_CATEGORIES = {
    "filter_eq": "Filtering",
    "filter_lt": "Filtering",
    "filter_after": "TimeBased",
    "distinct": "Filtering",
    "count_distinct": "CountingGrouping",
    "group_max": "DescriptiveStatistics",
    "group_mean": "Correlation",
    "argmax_by": "TimeBased",
}


def repair_workflow(log: list[dict], columns, source: str, purpose_id: str) -> bytes:
    """trim, upper, then a mass_edit from each remaining corrupted spelling
    back to its original, per column. This is exact when the gold values
    are trimmed, upper case and far enough apart that no typo of one equals
    another or another's typo."""
    fixes: dict[str, dict[str, str]] = {c: {} for c in columns}
    for entry in log:
        key = entry["corrupted"].strip().upper()
        if key != entry["original"]:
            fixes[entry["column"]][key] = entry["original"]
    steps = []
    for column in columns:
        steps.append(gen.step("trim", column, "strip padding"))
        steps.append(gen.step("upper", column, "fold case"))
        if fixes[column]:
            steps.append(gen.step(
                "mass_edit", column, "undo injected typos", gen.mass_edit_args(fixes[column])
            ))
    return gen.workflow_bytes(steps, source, purpose_id)


class BuildScore(Workload):
    name = "build-score"
    RATE = 0.05

    def __init__(self, work, seed, tiny):
        super().__init__(work, seed, tiny)
        spec = gen.TableSpec(rows=200 if tiny else 2000, names=40 if tiny else 400,
                             days=100 if tiny else 700)
        table = gen.generate(spec, seed)
        self.gold_path = work / "gold-input.csv"
        self.gold_bytes = gen.to_csv(table.gold)
        self.gold_path.write_bytes(self.gold_bytes)
        self.gold_rows = table.gold
        self.queries = gen.query_shapes(table.gold)
        self.profile = {"rate": self.RATE, "columns": list(INJECTED_COLUMNS), "seed": seed}

    def run_pass(self, probe, checks):
        out = self.pass_dir()
        start = perf()
        with probe.span("harness.pass"):
            gold = dcflow.load_table(self.gold_path.read_bytes(), provenance="gold.csv")
            profile = dcflow.ErrorProfile.from_json(self.profile)
            dirty, log = dcflow.inject_errors(gold, profile)
            dirty_csv = dcflow.table_to_csv(dirty)
            log_json = _json_bytes(log.to_json())
            dcflow.cli.atomic_write(out / "gold.csv", dcflow.table_to_csv(gold))
            dcflow.cli.atomic_write(out / "raw.csv", dirty_csv)
            dcflow.cli.atomic_write(out / "error_log.json", log_json)

            raw = dcflow.load_table((out / "raw.csv").read_bytes(), provenance="raw.csv")
            log_doc = json.loads((out / "error_log.json").read_text(encoding="utf-8"))
            reloaded_log = dcflow.ErrorLog.from_json(log_doc)
            silver = repair_workflow(log_doc, INJECTED_COLUMNS, "raw.csv", "build-score")
            dcflow.cli.atomic_write(out / "silver.json", silver)
            for shape, query in self.queries.items():
                spec = dcflow.query.query_from_json(query)
                gold_answer = dcflow.execute_purpose(spec, gold)
                manifest = {
                    "purpose": {
                        "id": shape,
                        "statement": f"build-score query of shape {shape}",
                        "category": _CATEGORIES[shape],
                        "target_columns": list(INJECTED_COLUMNS),
                        "query": query,
                        "gold_answer": dcflow.query.answer_to_json(gold_answer),
                    },
                    "raw_table": "raw.csv",
                    "gold_table": "gold.csv",
                    "silver_workflow": "silver.json",
                    "error_log": "error_log.json",
                }
                dcflow.cli.atomic_write(out / f"case_{shape}.json", _json_bytes(manifest))

            # Each case is scored from its own results directory, as
            # ``dcflow replay`` then ``dcflow eval`` would; the repair
            # workflow stands in for the one ``dcflow clean`` writes there.
            replay_s = 0.0
            results = []
            for shape in self.queries:
                case_dir = out / "results" / shape
                cleaned_csv, seconds = replay_files(
                    out / "silver.json", out / "raw.csv", case_dir / "cleaned.csv"
                )
                replay_s += seconds
                dcflow.cli.atomic_write(case_dir / "workflow.json", silver)
                case = dcflow.load_case(out / f"case_{shape}.json")
                findings = dcflow.validate_case(case)
                scored = score_case(case, "cfi", out / "results", checks)
                results += scored
                ours = scored[-1]
                checks.expect(not findings, f"{shape}: validate findings {findings[:3]}")
                checks.expect(ours.answer.exact, f"{shape}: cleaned answer differs from the gold answer")
                checks.expect(ours.column.ratio == 1.0, f"{shape}: column ratio {ours.column.ratio}")
            report = dcflow.aggregate(results)

            checks.expect(cleaned_csv == self.gold_bytes, "repaired table differs from the gold table")
            checks.expect(
                len(reloaded_log.entries) == int(self.RATE * gold.n_rows * len(INJECTED_COLUMNS) + 0.5),
                "injected cell count differs from the rate",
            )
            checks.expect(self._log_agrees(log_doc, dirty_csv), "error log disagrees with the cells")
            baseline_rows = [
                r for r in report.rows if r.system == "baseline" and r.group == "overall"
            ]
            checks.expect(
                len(baseline_rows) == 1 and (baseline_rows[0].column_ratio < 1.0 or not log_doc),
                "baseline scores as clean although errors were injected",
            )
        total = perf() - start
        self.end_pass(out)
        # The pass builds and scores one benchmark case.
        return PassResult(
            total,
            replay_s,
            [total],
            {
                "build-score": digest(dirty_csv, log_json, silver, cleaned_csv),
                "inject_errors": digest(dirty_csv, log_json),
            },
        )

    def _log_agrees(self, log: list[dict], dirty_csv: bytes) -> bool:
        """Every logged cell holds its corrupted value in the dirty table and
        its original in the gold table; every other cell is untouched."""
        dirty_rows = gen.read_csv(dirty_csv)
        logged = {}
        for entry in log:
            logged[(entry["row"], gen.COLUMNS.index(entry["column"]))] = entry
        if len(logged) != len(log) or len(dirty_rows) != len(self.gold_rows):
            return False
        for i, (dirty_row, gold_row) in enumerate(zip(dirty_rows, self.gold_rows)):
            for j, (d, g) in enumerate(zip(dirty_row, gold_row)):
                entry = logged.get((i, j))
                if entry is None:
                    if d != g:
                        return False
                elif d != entry["corrupted"] or g != entry["original"] or d == g:
                    return False
        return True


# ---------------------------------------------------------------------------


class SuiteSmall(Workload):
    name = "suite-small"

    def __init__(self, work, seed, tiny):
        super().__init__(work, seed, tiny)
        self.suite_path = dcflow.data.bundled_suite_path()
        self.reps = 2 if tiny else 50
        self.scripts = {}
        self.raw_paths = {}
        entries = json.loads(self.suite_path.read_text(encoding="utf-8"))["cases"]
        for entry in entries:
            manifest_path = self.suite_path.parent / entry["path"]
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            purpose = manifest["purpose"]
            silver = (manifest_path.parent / manifest["silver_workflow"]).read_bytes()
            self.scripts[purpose["id"]] = script_from_silver(silver, purpose["target_columns"])
            self.raw_paths[purpose["id"]] = manifest_path.parent / manifest["raw_table"]
        rng = random.Random(seed)
        self.orders = [rng.sample(range(len(entries)), len(entries)) for _ in range(self.reps)]

    def _clean(self, probe, case, out: Path):
        with probe.span("harness.case"):
            start = perf()
            backend = PerfBackend(self.scripts[case.purpose.id], MODEL_DELAY_S)
            result = dcflow.agent.run_pipeline(backend, case.raw_table, case.purpose)
            dcflow.cli.atomic_write(out / "workflow.json", dcflow.serialize(result.workflow))
            dcflow.cli.atomic_write(out / "cleaned.csv", dcflow.table_to_csv(result.final_table))
            dcflow.cli.atomic_write(out / "trace.jsonl", result.trace.to_jsonl().encode("utf-8"))
            return result, perf() - start

    def run_pass(self, probe, checks):
        """``reps`` rounds of ``dcflow clean --suite --jobs 2`` followed by
        ``dcflow replay`` and ``dcflow eval`` of that round's results."""
        out = self.pass_dir()
        start = perf()
        replay_s = 0.0
        case_s = []
        outputs: dict[str, set[str]] = {}
        with probe.span("harness.pass"):
            entries = dcflow.load_suite(self.suite_path)
            cases = [(dcflow.load_case(e.path), e.topic) for e in entries]
            with ThreadPoolExecutor(max_workers=SUITE_JOBS) as pool:
                for rep, order in enumerate(self.orders):
                    dirs = [out / f"rep{rep}" / cases[k][0].purpose.id for k in order]
                    futures = [
                        pool.submit(self._clean, probe, cases[k][0], d) for k, d in zip(order, dirs)
                    ]
                    with probe.span("harness.pool_wait"):
                        cleaned_runs = [f.result() for f in futures]
                    results = []
                    for k, d, (result, seconds) in zip(order, dirs, cleaned_runs):
                        case, topic = cases[k]
                        case_id = case.purpose.id
                        case_s.append(seconds)
                        # Compared in memory: 400 more small file writes per
                        # pass would make replay_s mostly file-system latency.
                        replayed, seconds = replay_files(
                            d / "workflow.json", self.raw_paths[case_id], None
                        )
                        replay_s += seconds
                        cleaned_csv = (d / "cleaned.csv").read_bytes()
                        workflow_json = (d / "workflow.json").read_bytes()
                        workflow = dcflow.deserialize(workflow_json)
                        scored = score_case(case, topic, out / f"rep{rep}", checks)
                        results += scored
                        ours = scored[-1]
                        _count_replies(probe, result)
                        checks.expect(not result.aborted and not result.degraded, f"{case_id}: degraded")
                        checks.expect(replayed == cleaned_csv, f"{case_id}: replay differs")
                        checks.expect(_same_steps(workflow, case.silver_workflow),
                                      f"{case_id}: workflow differs from silver")
                        checks.expect(ours.answer.exact, f"{case_id}: answer differs from gold")
                        checks.expect(ours.column.ratio == 1.0,
                                      f"{case_id}: column ratio {ours.column.ratio}")
                        outputs.setdefault(case_id, set()).add(digest(workflow_json, cleaned_csv))
                    report = dcflow.aggregate(results)
                    overall = [r for r in report.rows if r.group == "overall" and r.system == "cleaned"]
                    checks.expect(
                        len(overall) == 1 and overall[0].answer["exact"] == 1.0,
                        "suite answer exact mean is below 1",
                    )
            for case_id, seen in outputs.items():
                checks.expect(len(seen) == 1, f"{case_id}: repeated cleans differ")
        total = perf() - start
        self.end_pass(out)
        case_digests = [f"{k}={min(v)}" for k, v in sorted(outputs.items())]
        return PassResult(
            total,
            replay_s,
            case_s,
            {"suite-small": digest(*(c.encode() for c in case_digests))},
        )


WORKLOADS = {w.name: w for w in (CleanLarge, BuildScore, SuiteSmall)}
