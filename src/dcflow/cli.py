"""Command-line surface: clean, replay, inject, eval.

Exit codes: 0 success, 1 hard failure (bad config, bad schema, aborted
pipeline), 2 degraded success (a per-column error, an exhausted iteration
budget, or a skipped case). All file outputs are written atomically.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional

import click

from .agent import HttpBackend, PipelineConfig, ScriptedBackend, run_pipeline
from .benchmark import (
    CaseManifest,
    ErrorProfile,
    load_case,
    load_suite,
    validate_case,
)
from .errors import DcflowError, SchemaError
from .evaluation import (
    CaseResult,
    eval_answer,
    eval_columns,
    eval_workflow,
    aggregate,
    op_stats_csv,
    per_case_csv,
    render_report_table,
    report_to_json,
)
from .query import execute_purpose
from .table import load_table, table_to_csv
from .workflow import deserialize, op_stats, replay, serialize
from . import benchmark

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_HARD = 1
EXIT_DEGRADED = 2


def atomic_write(path: Path, data: bytes) -> None:
    """Write via a temp file plus rename so readers never see partials."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _make_backend(backend: str):
    if backend == "http":
        return HttpBackend()
    kind, _, script_path = backend.partition(":")
    if kind == "scripted":
        if not script_path:
            raise DcflowError("scripted backend needs a script: scripted:<path>")
        return ScriptedBackend.from_file(script_path)
    raise DcflowError(f"unknown backend {backend!r}; use 'http' or 'scripted[:<path>]'")


@click.group()
@click.version_option(package_name="dcflow")
@click.option("-v", "--verbose", is_flag=True, help="Log progress to stderr.")
def cli(verbose: bool) -> None:
    """Purpose-driven table cleaning toolkit."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _clean_one(
    case: CaseManifest,
    backend_spec: str,
    out_dir: Path,
    config: PipelineConfig,
) -> int:
    backend = _make_backend(backend_spec)
    table = case.raw_table
    result = run_pipeline(backend, table, case.purpose, config)
    atomic_write(out_dir / "workflow.json", serialize(result.workflow))
    atomic_write(out_dir / "cleaned.csv", table_to_csv(result.final_table))
    atomic_write(out_dir / "trace.jsonl", result.trace.to_jsonl().encode("utf-8"))
    if result.aborted:
        click.echo(f"{case.purpose.id}: aborted (see trace.jsonl)", err=True)
        return EXIT_HARD
    if result.degraded:
        click.echo(f"{case.purpose.id}: degraded (see trace.jsonl)", err=True)
        return EXIT_DEGRADED
    return EXIT_OK


@cli.command()
@click.option("--case", "case_path", type=click.Path(exists=True), help="Case manifest to clean.")
@click.option("--suite", "suite_path", type=click.Path(exists=True), help="Suite manifest.")
@click.option("--purpose-id", help="Purpose to clean from the suite (default: all).")
@click.option("--backend", required=True, help="'http' or 'scripted[:<script.json>]'.")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--max-iters", type=int, default=8, show_default=True)
@click.option("--sample-size", type=int, default=30, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True)
def clean(
    case_path: Optional[str],
    suite_path: Optional[str],
    purpose_id: Optional[str],
    backend: str,
    out_dir: str,
    max_iters: int,
    sample_size: int,
    jobs: int,
) -> None:
    """Generate a cleaning workflow for one case or a whole suite."""
    config = PipelineConfig(max_iters_per_column=max_iters, sample_size=sample_size)
    out = Path(out_dir)
    try:
        if case_path:
            cases = [load_case(case_path)]
        elif suite_path:
            entries = load_suite(suite_path)
            cases = [load_case(e.path) for e in entries]
            if purpose_id is not None:
                cases = [c for c in cases if c.purpose.id == purpose_id]
                if not cases:
                    raise DcflowError(f"purpose {purpose_id!r} not in suite")
        else:
            raise DcflowError("pass --case or --suite")
    except DcflowError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_HARD)

    single = len(cases) == 1 and case_path is not None
    try:
        if single:
            codes = [_clean_one(cases[0], backend, out, config)]
        else:
            with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
                codes = list(
                    pool.map(
                        lambda c: _clean_one(c, backend, out / c.purpose.id, config),
                        cases,
                    )
                )
    except DcflowError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_HARD)
    sys.exit(max(codes))


@cli.command(name="replay")
@click.argument("workflow_path", type=click.Path(exists=True))
@click.argument("table_path", type=click.Path(exists=True))
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--history", "history_dir", type=click.Path(), help="Also dump every intermediate table.")
def replay_cmd(workflow_path: str, table_path: str, out_path: str, history_dir: Optional[str]) -> None:
    """Replay a recorded workflow over a table."""
    try:
        workflow = deserialize(Path(workflow_path).read_bytes())
        table = load_table(Path(table_path).read_bytes(), provenance=table_path)
        history = replay(workflow, table)
    except (DcflowError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_HARD)
    atomic_write(Path(out_path), table_to_csv(history.final))
    if history_dir:
        for i, snapshot in enumerate(history.tables):
            atomic_write(Path(history_dir) / f"d{i}.csv", table_to_csv(snapshot))
    sys.exit(EXIT_OK)


@cli.command()
@click.argument("table_path", type=click.Path(exists=True))
@click.argument("profile_path", type=click.Path(exists=True))
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--log", "log_path", type=click.Path(), required=True)
def inject(table_path: str, profile_path: str, out_path: str, log_path: str) -> None:
    """Corrupt a clean table per an error profile."""
    try:
        raw_profile = json.loads(Path(profile_path).read_text(encoding="utf-8"))
        profile = ErrorProfile.from_json(raw_profile)
        table = load_table(Path(table_path).read_bytes(), provenance=table_path)
        dirty, log = benchmark.inject_errors(table, profile)
    except (DcflowError, OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_HARD)
    atomic_write(Path(out_path), table_to_csv(dirty))
    atomic_write(
        Path(log_path),
        (json.dumps(log.to_json(), ensure_ascii=False, indent=2) + "\n").encode("utf-8"),
    )
    sys.exit(EXIT_OK)


def _eval_case(case: CaseManifest, topic: str, results_dir: Path) -> tuple[list[CaseResult], list[str]]:
    purpose = case.purpose
    findings: list[str] = []
    results: list[CaseResult] = []

    try:
        baseline_answer = eval_answer(
            execute_purpose(purpose.query, case.raw_table), purpose.gold_answer
        )
        baseline_columns = eval_columns(
            case.raw_table, case.gold_table, purpose.target_columns_gold
        )
    except DcflowError as exc:
        findings.append(f"{purpose.id}: baseline scoring failed: {exc}")
        return results, findings
    results.append(
        CaseResult(purpose.id, topic, "baseline", baseline_answer, baseline_columns, None)
    )

    case_dir = results_dir / purpose.id
    cleaned_path = case_dir / "cleaned.csv"
    workflow_path = case_dir / "workflow.json"
    if not cleaned_path.exists() or not workflow_path.exists():
        findings.append(f"{purpose.id}: missing result files under {case_dir}")
        return results, findings
    try:
        cleaned = load_table(cleaned_path.read_bytes(), provenance=str(cleaned_path))
        predicted = deserialize(workflow_path.read_bytes())
        answer = eval_answer(
            execute_purpose(purpose.query, cleaned), purpose.gold_answer
        )
        columns = eval_columns(cleaned, case.gold_table, purpose.target_columns_gold)
        workflow = eval_workflow(predicted, case.silver_workflow)
    except DcflowError as exc:
        findings.append(f"{purpose.id}: {exc}")
        return results, findings
    results.append(CaseResult(purpose.id, topic, "cleaned", answer, columns, workflow))
    return results, findings


@cli.command(name="eval")
@click.option("--suite", "suite_path", type=click.Path(exists=True), required=True)
@click.option("--results", "results_dir", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--text", "text_path", type=click.Path(), help="Also write an aligned text table.")
@click.option("--csv", "csv_path", type=click.Path(), help="Also write per-case scores as CSV.")
@click.option("--ops-csv", "ops_csv_path", type=click.Path(), help="Also write workflow length stats.")
@click.option("--jobs", type=int, default=1, show_default=True)
def eval_cmd(
    suite_path: str,
    results_dir: str,
    out_path: str,
    text_path: Optional[str],
    csv_path: Optional[str],
    ops_csv_path: Optional[str],
    jobs: int,
) -> None:
    """Score cleaned tables and workflows against a suite's ground truth."""
    try:
        entries = load_suite(suite_path)
        cases = [(load_case(e.path), e.topic) for e in entries]
    except DcflowError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_HARD)

    all_results: list[CaseResult] = []
    findings: list[str] = []
    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        outcomes = list(
            pool.map(lambda ct: _eval_case(ct[0], ct[1], Path(results_dir)), cases)
        )
    for results, case_findings in outcomes:
        all_results.extend(results)
        findings.extend(case_findings)

    for finding in findings:
        click.echo(f"finding: {finding}", err=True)
    if not all_results:
        click.echo("error: no scorable cases", err=True)
        sys.exit(EXIT_HARD)
    report = aggregate(all_results)
    doc = report_to_json(report)
    doc["findings"] = findings
    atomic_write(Path(out_path), (json.dumps(doc, ensure_ascii=False, indent=2) + "\n").encode("utf-8"))
    text_table = render_report_table(report)
    if text_path:
        atomic_write(Path(text_path), text_table.encode("utf-8"))
    if csv_path:
        atomic_write(Path(csv_path), per_case_csv(report).encode("utf-8"))
    if ops_csv_path:
        stats = {}
        for case, _topic in cases:
            stats[f"{case.purpose.id}/silver"] = op_stats(case.silver_workflow)
            wf_path = Path(results_dir) / case.purpose.id / "workflow.json"
            try:
                stats[f"{case.purpose.id}/predicted"] = op_stats(
                    deserialize(wf_path.read_bytes())
                )
            except (OSError, SchemaError):
                pass  # _eval_case has already made this case a finding
        atomic_write(Path(ops_csv_path), op_stats_csv(stats).encode("utf-8"))
    click.echo(text_table)
    sys.exit(EXIT_DEGRADED if findings else EXIT_OK)


@cli.command()
@click.option("--suite", "suite_path", type=click.Path(exists=True), required=True)
def validate(suite_path: str) -> None:
    """Run the self-consistency checks on every case in a suite."""
    try:
        entries = load_suite(suite_path)
    except DcflowError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_HARD)
    bad = 0
    for entry in entries:
        try:
            findings = validate_case(load_case(entry.path))
        except SchemaError as exc:
            findings = [str(exc)]
        if findings:
            bad += 1
            for finding in findings:
                click.echo(f"{entry.path}: {finding}", err=True)
        else:
            click.echo(f"{entry.path}: ok")
    sys.exit(EXIT_HARD if bad else EXIT_OK)


def main() -> None:
    cli(prog_name="dcflow")


if __name__ == "__main__":
    main()
