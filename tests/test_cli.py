import json
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from dcflow.cli import cli
from dcflow.data import bundled_script_path, bundled_suite_path

CASES = bundled_suite_path().parent


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli, list(args), catch_exceptions=False)


def test_clean_scripted_case_a(runner, tmp_path):
    out = tmp_path / "run"
    result = invoke(
        runner,
        "clean",
        "--case", str(CASES / "cfi" / "case_a.json"),
        "--backend", f"scripted:{bundled_script_path('cfi_a_scripted')}",
        "--out", str(out),
    )
    assert result.exit_code == 0, result.output
    assert (out / "workflow.json").exists()
    assert (out / "trace.jsonl").exists()
    cleaned = (out / "cleaned.csv").read_text()
    assert "RESTUARANT" not in cleaned
    assert "GROCERY STORE" in cleaned


def test_clean_missing_backend_config(runner, tmp_path, monkeypatch):
    monkeypatch.delenv("DCFLOW_LLM_URL", raising=False)
    result = invoke(
        runner,
        "clean",
        "--case", str(CASES / "cfi" / "case_a.json"),
        "--backend", "http",
        "--out", str(tmp_path / "x"),
    )
    assert result.exit_code == 1


def test_clean_aborts_with_exit_1_when_selection_fails(runner, tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"entries": []}))
    out = tmp_path / "run"
    result = invoke(
        runner,
        "clean",
        "--case", str(CASES / "cfi" / "case_a.json"),
        "--backend", f"scripted:{script}",
        "--out", str(out),
    )
    assert result.exit_code == 1
    # artifacts still written: an empty workflow and the untouched table
    assert (out / "workflow.json").exists()
    assert json.loads((out / "workflow.json").read_text())["steps"] == []


def test_clean_script_exhaustion_degrades(runner, tmp_path):
    script = tmp_path / "script.json"
    script.write_text(
        json.dumps(
            {
                "entries": [
                    {
                        "stage": "select-columns",
                        "response": "```['Facility Type']```",
                    }
                ]
            }
        )
    )
    out = tmp_path / "run"
    result = invoke(
        runner,
        "clean",
        "--case", str(CASES / "cfi" / "case_a.json"),
        "--backend", f"scripted:{script}",
        "--out", str(out),
    )
    assert result.exit_code == 2
    assert (out / "trace.jsonl").exists()


def test_clean_case_study_consolidated_answers_restaurant(runner, tmp_path):
    out = tmp_path / "run"
    result = invoke(
        runner,
        "clean",
        "--case", str(CASES / "cfi" / "case_b.json"),
        "--backend", f"scripted:{bundled_script_path('cfi_b_consolidated')}",
        "--out", str(out),
    )
    assert result.exit_code == 0, result.output
    from dcflow import answer_to_canonical_text, execute_purpose, load_case, load_table

    case = load_case(CASES / "cfi" / "case_b.json")
    cleaned = load_table((out / "cleaned.csv").read_bytes())
    answer = execute_purpose(case.purpose.query, cleaned)
    assert answer_to_canonical_text(answer) == "RESTAURANT"


def test_replay_reproduces_clean_output(runner, tmp_path):
    out = tmp_path / "run"
    invoke(
        runner,
        "clean",
        "--case", str(CASES / "cfi" / "case_a.json"),
        "--backend", f"scripted:{bundled_script_path('cfi_a_scripted')}",
        "--out", str(out),
    )
    replayed = tmp_path / "replayed.csv"
    result = invoke(
        runner,
        "replay",
        str(out / "workflow.json"),
        str(CASES / "cfi" / "raw.csv"),
        "--out", str(replayed),
        "--history", str(tmp_path / "hist"),
    )
    assert result.exit_code == 0
    assert replayed.read_bytes() == (out / "cleaned.csv").read_bytes()
    assert (tmp_path / "hist" / "d0.csv").exists()
    assert (tmp_path / "hist" / "d1.csv").exists()


def test_replay_bad_schema_exits_1(runner, tmp_path):
    bad = tmp_path / "wf.json"
    bad.write_text('{"version": "nope"}')
    result = invoke(
        runner,
        "replay",
        str(bad),
        str(CASES / "cfi" / "raw.csv"),
        "--out", str(tmp_path / "o.csv"),
    )
    assert result.exit_code == 1


def test_inject_rate_zero_identity(runner, tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"rate": 0.0, "columns": ["event"], "seed": 1}))
    # canonicalize the fixture first so byte equality is meaningful
    from dcflow import load_table, table_to_csv

    canon = tmp_path / "canon.csv"
    canon.write_bytes(table_to_csv(load_table((CASES / "menu" / "raw.csv").read_bytes())))
    out = tmp_path / "dirty.csv"
    log = tmp_path / "log.json"
    result = invoke(
        runner, "inject", str(canon), str(profile),
        "--out", str(out), "--log", str(log),
    )
    assert result.exit_code == 0
    assert out.read_bytes() == canon.read_bytes()
    assert json.loads(log.read_text()) == []


def test_inject_seed_reproducible(runner, tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"rate": 0.5, "columns": ["event"], "seed": 7}))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        log = tmp_path / f"{name}.json"
        result = invoke(
            runner, "inject", str(CASES / "menu" / "raw.csv"), str(profile),
            "--out", str(out), "--log", str(log),
        )
        assert result.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_inject_bad_weights_exit_1(runner, tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(
        json.dumps({"rate": 0.5, "columns": ["event"], "mix": {"formatting": 0.2}})
    )
    result = invoke(
        runner, "inject", str(CASES / "menu" / "raw.csv"), str(profile),
        "--out", str(tmp_path / "o.csv"), "--log", str(tmp_path / "l.json"),
    )
    assert result.exit_code == 1


def _gold_as_results(tmp_path):
    """Pretend the gold tables are pipeline output, with the silver workflows."""
    from dcflow import load_suite, load_case

    results = tmp_path / "results"
    for entry in load_suite(bundled_suite_path()):
        case = load_case(entry.path)
        d = results / case.purpose.id
        d.mkdir(parents=True)
        (d / "cleaned.csv").write_bytes((entry.path.parent / "gold.csv").read_bytes())
        (d / "workflow.json").write_bytes(
            (entry.path.parent / _silver_name(entry)).read_bytes()
        )
    return results


def _silver_name(entry):
    doc = json.loads(Path(entry.path).read_text())
    return doc["silver_workflow"]


def test_eval_gold_vs_gold_all_ones(runner, tmp_path):
    results = _gold_as_results(tmp_path)
    report_path = tmp_path / "report.json"
    text_path = tmp_path / "report.txt"
    csv_path = tmp_path / "cases.csv"
    ops_path = tmp_path / "ops.csv"
    result = invoke(
        runner, "eval",
        "--suite", str(bundled_suite_path()),
        "--results", str(results),
        "--out", str(report_path),
        "--text", str(text_path),
        "--csv", str(csv_path),
        "--ops-csv", str(ops_path),
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(report_path.read_text())
    cleaned_rows = [
        r for r in doc["aggregates"] if r["system"] == "cleaned" and r["group"] == "overall"
    ]
    assert cleaned_rows[0]["answer"]["f1"] == 1.0
    assert cleaned_rows[0]["column_ratio"] == 1.0
    assert cleaned_rows[0]["workflow"]["f1"] == 1.0
    baseline_rows = [
        r for r in doc["aggregates"] if r["system"] == "baseline" and r["group"] == "overall"
    ]
    assert baseline_rows[0]["workflow"] is None
    assert baseline_rows[0]["answer"]["f1"] < 1.0
    text = text_path.read_text()
    baseline_line = [l for l in text.splitlines() if "baseline" in l][0]
    assert "--" in baseline_line
    assert "list_length" in ops_path.read_text().splitlines()[0]


def test_eval_missing_results_skips_and_exits_2(runner, tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    report_path = tmp_path / "report.json"
    result = invoke(
        runner, "eval",
        "--suite", str(bundled_suite_path()),
        "--results", str(results),
        "--out", str(report_path),
    )
    assert result.exit_code == 2
    doc = json.loads(report_path.read_text())
    assert doc["findings"]
    # baseline rows still present for every case
    assert {r["system"] for r in doc["aggregates"]} == {"baseline"}


def test_eval_ops_csv_skips_a_malformed_workflow(runner, tmp_path):
    results = tmp_path / "results"
    invoke(
        runner,
        "clean",
        "--suite", str(bundled_suite_path()),
        "--backend", f"scripted:{bundled_script_path('cfi_a_scripted')}",
        "--out", str(results),
    )
    (results / "cfi-a" / "workflow.json").write_text("{not json")
    ops_path = tmp_path / "ops.csv"
    result = runner.invoke(
        cli,
        [
            "eval",
            "--suite", str(bundled_suite_path()),
            "--results", str(results),
            "--out", str(tmp_path / "report.json"),
            "--ops-csv", str(ops_path),
        ],
    )
    assert result.exit_code == 2, result.output
    assert "finding: cfi-a:" in result.output
    labels = [line.split(",")[0] for line in ops_path.read_text().splitlines()[1:]]
    assert "cfi-a/silver" in labels
    assert "cfi-a/predicted" not in labels
    assert "cfi-b/predicted" in labels


def test_eval_reports_an_unreadable_cleaned_csv_as_a_finding(runner, tmp_path):
    results = _gold_as_results(tmp_path)
    cleaned = results / "cfi-a" / "cleaned.csv"
    cleaned.unlink()
    cleaned.mkdir()
    result = runner.invoke(
        cli,
        ["eval", "--suite", str(bundled_suite_path()), "--results", str(results),
         "--out", str(tmp_path / "report.json")],
    )
    assert result.exit_code == 2, result.output
    assert "finding: cfi-a: [Errno" in result.output
    doc = json.loads((tmp_path / "report.json").read_text())
    cleaned_ids = [r["case_id"] for r in doc["cases"] if r["system"] == "cleaned"]
    assert len(cleaned_ids) == 7 and "cfi-a" not in cleaned_ids


def test_validate_command(runner):
    result = invoke(runner, "validate", "--suite", str(bundled_suite_path()))
    assert result.exit_code == 0
    assert result.output.count(": ok") == 8


def test_bom_prefixed_csvs_validate_and_replay(runner, tmp_path):
    case_dir = tmp_path / "cfi"
    shutil.copytree(CASES / "cfi", case_dir)
    for name in ("raw.csv", "gold.csv"):
        path = case_dir / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"cases": [{"path": "cfi/case_a.json", "topic": "cfi"}]}))
    result = invoke(runner, "validate", "--suite", str(suite))
    assert result.exit_code == 0, result.output
    assert result.output.count(": ok") == 1

    outputs = []
    for table in (CASES / "cfi" / "raw.csv", case_dir / "raw.csv"):
        out = tmp_path / f"replayed-{len(outputs)}.csv"
        result = invoke(
            runner, "replay", str(CASES / "cfi" / "silver_a.json"), str(table), "--out", str(out)
        )
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[1].startswith(b"Inspection ID,")


def test_validate_reports_a_bad_query_shape(runner, tmp_path):
    case_dir = tmp_path / "menu"
    shutil.copytree(CASES / "menu", case_dir)
    manifest = case_dir / "case.json"
    doc = json.loads(manifest.read_text())
    doc["purpose"]["query"] = {
        "select": ["event"],
        "group_by": "event",
        "aggregate": {"fn": "argmax_by", "column": "event"},
    }
    manifest.write_text(json.dumps(doc))
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"cases": [{"path": "menu/case.json", "topic": "menu"}]}))
    result = invoke(runner, "validate", "--suite", str(suite))
    assert result.exit_code == 1
    assert "purpose.query: argmax_by does not combine with group_by" in result.output


def test_clean_with_malformed_script_exits_1(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = invoke(
        runner, "clean", "--case", str(CASES / "cfi" / "case_a.json"),
        "--backend", f"scripted:{bad}", "--out", str(tmp_path / "out"),
    )
    assert result.exit_code == 1
    assert "error: script: unreadable JSON" in result.output


@pytest.mark.parametrize(
    "key, value, reason",
    [
        ("contains", 5, "script.entries[0].contains: must be a string"),
        ("column", ["x"], "script.entries[0].column: must be a string"),
    ],
    ids=["contains-int", "column-list"],
)
def test_clean_with_mistyped_script_fields_exits_1(runner, tmp_path, key, value, reason):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"entries": [{"stage": "select", "response": "[]", key: value}]}))
    result = invoke(
        runner, "clean", "--case", str(CASES / "cfi" / "case_a.json"),
        "--backend", f"scripted:{script}", "--out", str(tmp_path / "out"),
    )
    assert result.exit_code == 1
    assert f"error: {reason}" in result.output


def test_validate_reports_a_table_path_naming_a_directory(runner, tmp_path):
    shutil.copytree(CASES / "menu", tmp_path / "menu")
    manifest = tmp_path / "menu" / "case.json"
    doc = json.loads(manifest.read_text())
    doc["raw_table"] = "."
    manifest.write_text(json.dumps(doc))
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"cases": [{"path": "menu/case.json", "topic": "menu"}]}))
    result = invoke(runner, "validate", "--suite", str(suite))
    assert result.exit_code == 1
    assert "raw_table: unreadable file (" in result.output


@pytest.mark.parametrize("which", ["workflow", "table"])
def test_replay_of_a_directory_exits_1(runner, tmp_path, which):
    args = [str(CASES / "cfi" / "silver_a.json"), str(CASES / "cfi" / "raw.csv")]
    args[which == "table"] = str(tmp_path)
    result = invoke(runner, "replay", *args, "--out", str(tmp_path / "o.csv"))
    assert result.exit_code == 1
    assert result.output.startswith("error: ")


@pytest.mark.parametrize("which", ["table", "profile"])
def test_inject_of_a_directory_exits_1(runner, tmp_path, which):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"rate": 0.5, "columns": ["event"], "seed": 7}))
    args = [str(CASES / "menu" / "raw.csv"), str(profile)]
    args[which == "profile"] = str(tmp_path)
    result = invoke(
        runner, "inject", *args, "--out", str(tmp_path / "o.csv"), "--log", str(tmp_path / "l.json")
    )
    assert result.exit_code == 1
    assert result.output.startswith("error: ")


UNREADABLE_JSON = {
    "deep": b"[" * 100_000,
    "bad-utf8": b'{"a": "\xff"}',
    "huge-int": b"1" * 5000,
    "bad-json": b"{not json",
}


@pytest.mark.parametrize("payload", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON)
@pytest.mark.parametrize(
    "command, label",
    [("replay", "$"), ("inject", "profile"), ("validate", "suite"), ("clean", "script")],
)
def test_every_json_file_reader_reports_unreadable_json(runner, tmp_path, command, label, payload):
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)
    args = {
        "replay": [str(bad), str(CASES / "cfi" / "raw.csv"), "--out", str(tmp_path / "o.csv")],
        "inject": [
            str(CASES / "menu" / "raw.csv"), str(bad),
            "--out", str(tmp_path / "o.csv"), "--log", str(tmp_path / "l.json"),
        ],
        "validate": ["--suite", str(bad)],
        "clean": [
            "--case", str(CASES / "cfi" / "case_a.json"),
            "--backend", f"scripted:{bad}", "--out", str(tmp_path / "out"),
        ],
    }[command]
    result = invoke(runner, command, *args)
    assert result.exit_code == 1
    assert result.output.startswith(f"error: {label}: unreadable JSON (")
