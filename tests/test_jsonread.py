"""Every JSON reader: declared fields only, bundled files load, no stray errors."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcflow.agent import ScriptedBackend
from dcflow.benchmark import ErrorLog, ErrorProfile, load_case, load_suite
from dcflow.data import bundled_suite_path
from dcflow.errors import SchemaError
from dcflow.ops import MassEditSpec
from dcflow.query import (
    answer_from_json,
    answer_to_json,
    purpose_from_json,
    query_from_json,
    query_to_json,
)
from dcflow.transform import TransformExpr
from dcflow.workflow import deserialize, serialize

DATA = bundled_suite_path().parent.parent
CASES = DATA / "cases"


def _from_file(load, name):
    """``load`` applied to a file that holds ``raw`` as JSON."""

    def read(raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_text(json.dumps(raw))
            return load(path)

    return read


# Each reader of a decoded JSON value, by the kind of document it reads.
READERS = {
    "query": query_from_json,
    "answer": answer_from_json,
    "purpose": purpose_from_json,
    "profile": ErrorProfile.from_json,
    "error_log": ErrorLog.from_json,
    "mass_edit": lambda raw: MassEditSpec.from_json(raw, "args"),
    "transform": lambda raw: TransformExpr.from_json(raw, "args"),
    "script": ScriptedBackend.from_json,
    "workflow": lambda raw: deserialize(json.dumps(raw).encode()),
    "manifest": _from_file(load_case, "case.json"),
    "suite": _from_file(load_suite, "suite.json"),
}

# Every key some reader declares, one stray key, and strings that get past
# the choice readers, so that generated documents reach past the top level.
KEYS = (
    "select filters group_by aggregate distinct order limit column op value fn by "
    "descending type values records id statement category target_columns query "
    "gold_answer rate columns seed mix row original corrupted family edits from to "
    "expression entries name stage response contains version source_table_id "
    "purpose_id steps index args rationale purpose raw_table gold_table "
    "silver_workflow error_log cases path topic date number formatting stray"
).split()
WORDS = (
    "a = contains after count max argmax_by scalar list records Filtering upper "
    "mass_edit regexr_transform dcflow/1 formatting 2023-01-05 1e5 jython:"
).split()

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(WORDS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=5),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(READERS)), raw=json_values)
def test_readers_raise_only_schema_errors(kind, raw):
    try:
        READERS[kind](raw)
    except SchemaError:
        pass


# bundled files ------------------------------------------------------------


def _bundled(pattern):
    return sorted(p.relative_to(DATA).as_posix() for p in DATA.glob(pattern))


@pytest.mark.parametrize("name", _bundled("cases/*/case*.json"))
def test_bundled_manifest_round_trips(name):
    raw = json.loads((DATA / name).read_text())["purpose"]
    purpose = load_case(DATA / name).purpose
    assert (purpose.id, purpose.statement, purpose.category.value) == (
        raw["id"], raw["statement"], raw["category"]
    )
    assert list(purpose.target_columns_gold) == raw["target_columns"]
    assert query_to_json(purpose.query) == raw["query"]
    assert answer_to_json(purpose.gold_answer) == raw["gold_answer"]


@pytest.mark.parametrize("name", _bundled("cases/*/silver*.json"))
def test_bundled_workflow_round_trips(name):
    data = (DATA / name).read_bytes()
    assert json.loads(serialize(deserialize(data))) == json.loads(data)


@pytest.mark.parametrize("name", _bundled("cases/*/error_log*.json"))
def test_bundled_error_log_round_trips(name):
    raw = json.loads((DATA / name).read_text())
    assert ErrorLog.from_json(raw).to_json() == raw


@pytest.mark.parametrize("name", _bundled("scripts/*.json"))
def test_bundled_script_loads_every_entry(name):
    raw = json.loads((DATA / name).read_text())
    backend = ScriptedBackend.from_file(DATA / name)
    assert backend.name == raw.get("name", Path(name).stem)
    assert [(e.stage, e.response, e.column, e.contains) for e in backend.entries] == [
        (e["stage"], e["response"], e.get("column"), e.get("contains")) for e in raw["entries"]
    ]


def test_bundled_suite_loads_every_case():
    raw = json.loads(bundled_suite_path().read_text())
    entries = load_suite(bundled_suite_path())
    assert [(e.path, e.topic) for e in entries] == [
        (CASES / c["path"], c["topic"]) for c in raw["cases"]
    ]
    assert all(e.path.is_file() for e in entries)


# unknown keys -----------------------------------------------------------

FILE_READERS = {
    "manifest": load_case,
    "workflow": lambda path: deserialize(path.read_bytes()),
    "error_log": lambda path: ErrorLog.from_json(json.loads(path.read_text())),
    "script": ScriptedBackend.from_file,
    "suite": load_suite,
}


@pytest.mark.parametrize(
    "kind, name, where, path",
    [
        ("manifest", "cases/menu/case.json", [], "stray"),
        ("manifest", "cases/menu/case.json", ["purpose"], "purpose.stray"),
        ("manifest", "cases/menu/case.json", ["purpose", "query"], "purpose.query.stray"),
        (
            "manifest",
            "cases/menu/case.json",
            ["purpose", "query", "aggregate"],
            "purpose.query.aggregate.stray",
        ),
        (
            "manifest",
            "cases/dish/case.json",
            ["purpose", "query", "filters", 0],
            "purpose.query.filters[0].stray",
        ),
        (
            "manifest",
            "cases/menu/case.json",
            ["purpose", "gold_answer"],
            "purpose.gold_answer.stray",
        ),
        ("workflow", "cases/cfi/silver_b.json", [], "stray"),
        ("workflow", "cases/cfi/silver_b.json", ["steps", 0], "steps[0].stray"),
        ("workflow", "cases/cfi/silver_b.json", ["steps", 2, "args"], "steps[2].args.stray"),
        (
            "workflow",
            "cases/cfi/silver_b.json",
            ["steps", 2, "args", "edits", 0],
            "steps[2].args.edits[0].stray",
        ),
        ("workflow", "cases/cfi/silver_b.json", ["steps", 5, "args"], "steps[5].args.stray"),
        ("error_log", "cases/cfi/error_log_b.json", [3], "error_log[3].stray"),
        ("script", "scripts/cfi_a_scripted.json", [], "script.stray"),
        ("script", "scripts/cfi_a_scripted.json", ["entries", 1], "script.entries[1].stray"),
        ("suite", "cases/suite.json", [], "suite.stray"),
        ("suite", "cases/suite.json", ["cases", 2], "suite.cases[2].stray"),
    ],
)
def test_an_unknown_key_in_a_bundled_file_names_its_path(tmp_path, kind, name, where, path):
    doc = json.loads((DATA / name).read_text())
    target = doc
    for step in where:
        target = target[step]
    target["stray"] = 0
    copy = tmp_path / Path(name).name
    copy.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as exc:
        FILE_READERS[kind](copy)
    assert (exc.value.path, exc.value.reason) == (path, "unknown key")


@pytest.mark.parametrize(
    "kind, raw, path",
    [
        ("query", {"select": ["a"], "filter": []}, "query.filter"),
        ("query", {"select": ["a"], "order": {"by": "a", "desc": True}}, "query.order.desc"),
        ("answer", {"type": "scalar", "value": 1, "values": []}, "answer.values"),
        ("answer", {"type": "scalar", "value": {"date": "2023-01-05", "tz": 0}}, "answer.value.tz"),
        ("answer", {"type": "list", "values": [{"number": "1.5", "x": 0}]}, "answer.values[0].x"),
        ("profile", {"rate": 0.1, "columns": ["a"], "mixx": {}}, "profile.mixx"),
    ],
    ids=["query", "order", "answer", "date-cell", "number-cell", "profile"],
)
def test_an_unknown_key_names_its_path(kind, raw, path):
    with pytest.raises(SchemaError) as exc:
        READERS[kind](raw)
    assert (exc.value.path, exc.value.reason) == (path, "unknown key")
