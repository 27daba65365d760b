"""Seeded food-inspection tables and the workflows that clean them.

The vocabulary extends the bundled ``cfi`` case: its facility types, risk
levels, business names and results, its ``#``/``ID-`` id prefixes, its
misspellings (RESTUARANT, SCHOOOL, GROCRY STORE) and its four date formats.
Every function here takes a ``random.Random`` or a seed and uses nothing
else, so one seed always gives the same bytes. Nothing here imports dcflow:
the inputs do not depend on the code they measure.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field

COLUMNS = (
    "Inspection ID",
    "DBA Name",
    "Facility Type",
    "Risk",
    "Inspection Date",
    "Results",
    "Zip",
    "Violations",
)

# Canonical (gold) values with their sampling weights. Facility types and
# results are pairwise at least three edits apart, so one injected typo can
# never turn one canonical value into another or into another's typo.
FACILITY_TYPES = (
    ("RESTAURANT", 45),
    ("GROCERY STORE", 15),
    ("SCHOOL", 12),
    ("BAKERY", 10),
    ("DAYCARE", 8),
    ("HOSPITAL", 6),
    ("LIQUOR STORE", 4),
)
FACILITY_TYPOS = {
    "RESTAURANT": "Restuarant",
    "GROCERY STORE": "Grocry Store",
    "SCHOOL": "Schoool",
    "BAKERY": "Bakrey",
    "DAYCARE": "Daycaer",
    "HOSPITAL": "Hosptial",
    "LIQUOR STORE": "Liqour Store",
}
RISKS = (("RISK 1 (HIGH)", 40), ("RISK 2 (MEDIUM)", 35), ("RISK 3 (LOW)", 25))
RISK_RAW = {
    "RISK 1 (HIGH)": "Risk 1 (High)",
    "RISK 2 (MEDIUM)": "Risk 2 (Medium)",
    "RISK 3 (LOW)": "Risk 3 (Low)",
}
RISK_TYPOS = {
    "RISK 1 (HIGH)": "Risk 1 (Hihg)",
    "RISK 2 (MEDIUM)": "Risk 2 (Meduim)",
    "RISK 3 (LOW)": "Risk 3 (Lwo)",
}
RESULTS = (
    ("PASS", 55),
    ("FAIL", 20),
    ("PASS W/ CONDITIONS", 15),
    ("NO ENTRY", 5),
    ("OUT OF BUSINESS", 5),
)
NAME_BASES = (
    "SUBWAY",
    "WALGREENS",
    "ST MARY SCHOOL",
    "LITTLE ACADEMY",
    "MARIANOS",
    "CHIPOTLE",
    "PANERA",
    "WHOLE FOODS",
    "NORTH HIGH SCHOOL",
    "FIVE GUYS",
)
MONTHS = (
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
)
_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
_NBSP = "\u00a0"


@dataclass(frozen=True)
class TableSpec:
    """Row count and the number of distinct values of each column.

    ``Inspection ID`` is unique per row. The other counts cap the distinct
    canonical values; the three vocabulary columns take the most frequent
    entries of their lists.
    """

    rows: int
    names: int = 2000
    facility_types: int = len(FACILITY_TYPES)
    risks: int = len(RISKS)
    days: int = 1000
    results: int = len(RESULTS)
    zips: int = 60
    violations: int = 21

    def __post_init__(self):
        if self.rows < 1:
            raise ValueError("rows must be positive")
        limits = {
            "facility_types": len(FACILITY_TYPES),
            "risks": len(RISKS),
            "results": len(RESULTS),
            "days": 365 * 50,
            "zips": 100,
        }
        for name, limit in limits.items():
            if not 1 <= getattr(self, name) <= limit:
                raise ValueError(f"{name} must be in [1, {limit}]")
        if self.names < 1 or self.violations < 1:
            raise ValueError("cardinalities must be positive")


def _weighted(rng: random.Random, vocab, k: int) -> str:
    values = [v for v, _ in vocab[:k]]
    weights = [w for _, w in vocab[:k]]
    return rng.choices(values, weights=weights, k=1)[0]


def _day(offset: int) -> tuple[int, int, int]:
    """The date ``offset`` days after 2021-01-01, counting every year as
    365 days (February 29 never occurs)."""
    year = 2021 + offset // 365
    offset %= 365
    month = 0
    while offset >= _DAYS_IN_MONTH[month]:
        offset -= _DAYS_IN_MONTH[month]
        month += 1
    return year, month + 1, offset + 1


@dataclass
class FoodTable:
    """A generated table: canonical rows and their raw (dirty) rendering."""

    gold: list[tuple[str, ...]] = field(default_factory=list)
    raw: list[tuple[str, ...]] = field(default_factory=list)


def generate(spec: TableSpec, seed: int) -> FoodTable:
    rng = random.Random(seed)
    names = [
        f"{NAME_BASES[k % len(NAME_BASES)]} #{k // len(NAME_BASES) + 1}"
        for k in range(spec.names)
    ]
    zips = [f"{60601 + k}" for k in range(spec.zips)]
    table = FoodTable()
    next_id = 1_000_000
    for _ in range(spec.rows):
        next_id += rng.randint(1, 3)
        name = rng.choice(names)
        facility = _weighted(rng, FACILITY_TYPES, spec.facility_types)
        risk = _weighted(rng, RISKS, spec.risks)
        y, m, d = _day(rng.randrange(spec.days))
        result = _weighted(rng, RESULTS, spec.results)
        zip_code = rng.choice(zips)
        violations = str(rng.randrange(spec.violations))
        gold = (
            str(next_id),
            name,
            facility,
            risk,
            f"{y:04d}-{m:02d}-{d:02d}T00:00:00Z",
            result,
            zip_code,
            violations,
        )
        raw = (
            _raw_id(rng, next_id),
            _raw_name(rng, name),
            _raw_facility(rng, facility),
            _raw_risk(rng, risk),
            _raw_date(rng, y, m, d),
            result,
            zip_code,
            violations,
        )
        table.gold.append(gold)
        table.raw.append(raw)
    return table


def _pad(rng: random.Random, text: str) -> str:
    pad = rng.choice((" ", "  ", _NBSP))
    return rng.choice((pad + text, text + pad, pad + text + pad))


def _raw_id(rng: random.Random, value: int) -> str:
    r = rng.random()
    if r < 0.15:
        return f"#{value}"
    if r < 0.30:
        return f"ID-{value}"
    return str(value)


def _raw_name(rng: random.Random, name: str) -> str:
    if rng.random() < 0.10:
        name = name.title()
    if rng.random() < 0.10:
        name += rng.choice((" LLC", " Inc", " INC", " llc"))
    if rng.random() < 0.10:
        name = _pad(rng, name)
    return name


def _raw_facility(rng: random.Random, facility: str) -> str:
    r = rng.random()
    if r < 0.12:
        text = FACILITY_TYPOS[facility]
        text = text.upper() if rng.random() < 0.5 else text
    elif r < 0.20:
        text = facility.lower()
    elif r < 0.27:
        text = facility.title()
    else:
        text = facility
    if rng.random() < 0.10:
        text = _pad(rng, text)
    return text


def _raw_risk(rng: random.Random, risk: str) -> str:
    r = rng.random()
    if r < 0.08:
        text = RISK_TYPOS[risk]
    elif r < 0.58:
        text = RISK_RAW[risk]
    elif r < 0.68:
        text = RISK_RAW[risk].lower()
    else:
        text = risk
    if rng.random() < 0.10:
        text = _pad(rng, text)
    return text


def _raw_date(rng: random.Random, y: int, m: int, d: int) -> str:
    fmt = rng.randrange(4)
    if fmt == 0:
        return f"{y:04d}-{m:02d}-{d:02d}"
    if fmt == 1:
        return f"{y:04d}/{m:02d}/{d:02d}"
    if fmt == 2:
        return f"{m:02d}/{d:02d}/{y:04d}"
    return f"{MONTHS[m - 1]} {d}, {y}"


def to_csv(rows: list[tuple[str, ...]]) -> bytes:
    """RFC-4180 CSV with "\\n" line ends, the same dialect dcflow writes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# the 12-step silver workflow that turns ``raw`` into ``gold``

SILVER_COLUMNS = ("Facility Type", "Risk", "Inspection ID", "Inspection Date", "DBA Name")

_ID_EXPR = "jython: import re\nmatch = re.search(r'\\d+', value)\nif match:\n    return match.group(0)"
_NAME_EXPR = "jython: return re.sub(r'\\s+(LLC|INC)$', '', value)"


def step(op: str, column: str, rationale: str, args=None) -> dict:
    return {"op": op, "column": column, "args": args, "rationale": rationale}


def mass_edit_args(mapping: dict[str, str]) -> dict:
    """``mass_edit`` arguments that rewrite each key of ``mapping`` to its value."""
    groups: dict[str, list[str]] = {}
    for wrong, right in sorted(mapping.items()):
        groups.setdefault(right, []).append(wrong)
    return {"edits": [{"from": froms, "to": to} for to, froms in sorted(groups.items())]}


def workflow_bytes(steps: list[dict], source_table_id: str, purpose_id: str) -> bytes:
    """A ``dcflow/1`` document, laid out as dcflow's ``serialize`` writes it."""
    doc = {
        "version": "dcflow/1",
        "source_table_id": source_table_id,
        "purpose_id": purpose_id,
        "steps": [dict(index=i + 1, **s) for i, s in enumerate(steps)],
    }
    return (json.dumps(doc, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


def silver_workflow(spec: TableSpec, source_table_id: str, purpose_id: str) -> bytes:
    """The reference workflow as a ``dcflow/1`` document."""
    facilities = [v for v, _ in FACILITY_TYPES[: spec.facility_types]]
    risks = [v for v, _ in RISKS[: spec.risks]]
    steps = [
        step("trim", "Facility Type", "strip padding around facility types"),
        step("upper", "Facility Type", "one casing for every facility type"),
        step(
            "mass_edit",
            "Facility Type",
            "merge misspelled facility types",
            mass_edit_args({FACILITY_TYPOS[f].upper(): f for f in facilities}),
        ),
        step("trim", "Risk", "strip padding around risk levels"),
        step("upper", "Risk", "one casing for every risk level"),
        step(
            "mass_edit",
            "Risk",
            "merge misspelled risk levels",
            mass_edit_args({RISK_TYPOS[r].upper(): r for r in risks}),
        ),
        step(
            "regexr_transform",
            "Inspection ID",
            "strip the # and ID- prefixes",
            {"expression": _ID_EXPR},
        ),
        step("numeric", "Inspection ID", "type the ids as numbers"),
        step("date", "Inspection Date", "one date format"),
        step("trim", "DBA Name", "strip padding around names"),
        step("upper", "DBA Name", "one casing for every name"),
        step(
            "regexr_transform",
            "DBA Name",
            "drop the legal-form suffixes",
            {"expression": _NAME_EXPR},
        ),
    ]
    return workflow_bytes(steps, source_table_id, purpose_id)


# ---------------------------------------------------------------------------
# the eight query shapes of the bundled purposes, over a gold table


def query_shapes(gold: list[tuple[str, ...]]) -> dict[str, dict]:
    """One purpose query per shape, as ``dcflow`` query JSON.

    Literals are picked from the table so that each filter keeps about 3%
    of the rows and every answer stays small.
    """
    ids = sorted(int(row[0]) for row in gold)
    id_cut = ids[int(0.03 * len(ids))]
    dates = sorted(row[4] for row in gold)
    date_cut = dates[min(len(dates) - 1, int(0.97 * len(dates)))][:10]
    counts: dict[str, int] = {}
    for row in gold:
        counts[row[2]] = counts.get(row[2], 0) + 1
    rare = min(sorted(counts), key=counts.__getitem__)
    return {
        "filter_eq": {
            "select": ["Inspection ID"],
            "filters": [{"column": "Facility Type", "op": "=", "value": rare}],
        },
        "filter_lt": {
            "select": ["Inspection ID"],
            "filters": [{"column": "Inspection ID", "op": "<", "value": id_cut}],
        },
        "filter_after": {
            "select": ["Inspection ID"],
            "filters": [{"column": "Inspection Date", "op": "after", "value": date_cut}],
        },
        "distinct": {
            "select": ["Facility Type"],
            "filters": [{"column": "Results", "op": "=", "value": "FAIL"}],
            "distinct": True,
        },
        "count_distinct": {
            "select": [],
            "aggregate": {"fn": "count_distinct", "column": "Facility Type"},
        },
        "group_max": {
            "select": [],
            "group_by": "Facility Type",
            "aggregate": {"fn": "max", "column": "Violations"},
        },
        "group_mean": {
            "select": [],
            "group_by": "Results",
            "aggregate": {"fn": "mean", "column": "Violations"},
        },
        "argmax_by": {
            "select": ["Facility Type"],
            "aggregate": {"fn": "argmax_by", "column": "Inspection Date"},
        },
    }


def read_csv(data: bytes) -> list[tuple[str, ...]]:
    """Body rows of a CSV payload, as plain strings."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    return [tuple(r) for r in rows[1:]]


def latest_facility_answer(gold: list[tuple[str, ...]]) -> dict:
    """Gold answer, as answer JSON, to "which facility types were inspected
    on the most recent date" (ISO dates sort chronologically as text)."""
    latest = max(row[4] for row in gold)
    facilities = sorted({row[2] for row in gold if row[4] == latest})
    if len(facilities) == 1:
        return {"type": "scalar", "value": facilities[0]}
    return {"type": "list", "values": facilities}
