"""Benchmark construction: seeded error injection and case manifests.

Injection corrupts a configured fraction of target-column cells with four
error families (near-duplicate variants, whitespace/formatting noise, case
flips, and type errors in numeric fields). Everything is driven by one seed
so a benchmark can be regenerated bit-exactly.

A case manifest bundles a purpose with its raw table, curated gold table,
silver reference workflow and optional injection log; ``validate_case``
re-derives every cross-file invariant and reports findings.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, Optional

from .cells import Cell, CellKind, cell_number
from .errors import (
    DcflowError,
    NoEligibleCellsError,
    ReplayError,
    SchemaError,
    SelfCheckError,
)
from .evaluation import eval_columns
from .query import (
    Purpose,
    answer_to_canonical_text,
    execute_purpose,
    purpose_from_json,
)
from .table import Table, load_table
from .workflow import Workflow, deserialize, replay


class ErrorFamily(Enum):
    DUPLICATE_VARIANT = "duplicate_variant"
    FORMATTING = "formatting"
    CASE_VARIATION = "case_variation"
    TYPE_ERROR = "type_error"


DEFAULT_MIX: Mapping[ErrorFamily, float] = {
    ErrorFamily.DUPLICATE_VARIANT: 0.25,
    ErrorFamily.FORMATTING: 0.25,
    ErrorFamily.CASE_VARIATION: 0.25,
    ErrorFamily.TYPE_ERROR: 0.25,
}

TYPE_ERROR_FILLERS = ("N/A", "missing", "-", "unknown")


@dataclass(frozen=True)
class ErrorProfile:
    rate: float
    columns: tuple[str, ...]
    seed: int = 0
    mix: Mapping[ErrorFamily, float] = None

    def __post_init__(self):
        if self.mix is None:
            object.__setattr__(self, "mix", dict(DEFAULT_MIX))
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if not self.columns:
            raise ValueError("at least one target column is required")
        weights = list(self.mix.values())
        # NaN fails every comparison, so "w >= 0" rejects it too.
        if not all(w >= 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("mix weights must be non-negative and sum to 1")

    @classmethod
    def from_json(cls, raw: Any, path: str = "profile") -> "ErrorProfile":
        if not isinstance(raw, dict):
            raise SchemaError(path, "must be an object")
        rate = raw.get("rate")
        if type(rate) not in (int, float, Decimal):
            raise SchemaError(f"{path}.rate", "must be a number")
        columns = raw.get("columns")
        if not isinstance(columns, list) or not all(isinstance(c, str) for c in columns):
            raise SchemaError(f"{path}.columns", "must be a list of column names")
        mix = None
        if raw.get("mix") is not None:
            if not isinstance(raw["mix"], dict):
                raise SchemaError(f"{path}.mix", "must map family name to weight")
            mix = {}
            for name, weight in raw["mix"].items():
                try:
                    family = ErrorFamily(name)
                except ValueError:
                    raise SchemaError(f"{path}.mix", f"unknown family {name!r}") from None
                if type(weight) not in (int, float, Decimal):
                    raise SchemaError(f"{path}.mix.{name}", "weight must be a number")
                mix[family] = float(weight)
        seed = raw.get("seed", 0)
        if type(seed) is not int:
            raise SchemaError(f"{path}.seed", "must be an integer")
        try:
            return cls(rate=float(rate), columns=tuple(columns), seed=seed, mix=mix)
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from exc


@dataclass(frozen=True)
class ErrorLogEntry:
    row: int  # 0-based data row
    column: str
    original: Cell
    corrupted: Cell
    family: ErrorFamily


@dataclass(frozen=True)
class ErrorLog:
    entries: tuple[ErrorLogEntry, ...]

    def to_json(self) -> list[dict]:
        return [
            {
                "row": e.row,
                "column": e.column,
                "original": e.original.render(),
                "corrupted": e.corrupted.render(),
                "family": e.family.value,
            }
            for e in self.entries
        ]

    @classmethod
    def from_json(cls, raw: Any, path: str = "error_log") -> "ErrorLog":
        if not isinstance(raw, list):
            raise SchemaError(path, "must be a list")
        entries = []
        for i, e in enumerate(raw):
            ep = f"{path}[{i}]"
            if not isinstance(e, dict) or type(e.get("row")) is not int:
                raise SchemaError(ep, "must be an object with an integer 'row'")
            try:
                family = ErrorFamily(e.get("family"))
            except ValueError:
                raise SchemaError(ep, f"unknown family {e.get('family')!r}") from None
            for key in ("column", "original", "corrupted"):
                if not isinstance(e.get(key), str):
                    raise SchemaError(f"{ep}.{key}", "must be a string")
            entries.append(
                ErrorLogEntry(
                    row=e["row"],
                    column=e["column"],
                    original=Cell.text(e["original"]),
                    corrupted=Cell.text(e["corrupted"]),
                    family=family,
                )
            )
        return cls(tuple(entries))


# ---------------------------------------------------------------------------
# corruption families

def _dup_variant_moves(text: str) -> list[str]:
    moves = []
    if any(text[i] != text[i + 1] for i in range(len(text) - 1)):
        moves.append("transpose")
    if len(text) >= 2:
        moves.append("delete")
    if any(text[i] != " " and text[i + 1] != " " for i in range(len(text) - 1)):
        moves.append("insert_space")
    return moves


def _eligible(cell: Cell, family: ErrorFamily) -> bool:
    if family is ErrorFamily.TYPE_ERROR:
        return cell_number(cell) is not None
    if cell.kind is not CellKind.TEXT:
        return False
    text = cell.value
    if family is ErrorFamily.CASE_VARIATION:
        return any(ch.lower() != ch.upper() for ch in text)
    if family is ErrorFamily.DUPLICATE_VARIANT:
        return bool(_dup_variant_moves(text))
    return bool(text)  # FORMATTING pads anything non-empty


def _corrupt(cell: Cell, family: ErrorFamily, rng: random.Random) -> Cell:
    if family is ErrorFamily.TYPE_ERROR:
        return Cell.text(rng.choice(TYPE_ERROR_FILLERS))
    text = cell.value
    if family is ErrorFamily.FORMATTING:
        pad = rng.choice((" ", " "))
        side = rng.choice(("lead", "trail", "both"))
        if side == "lead":
            return Cell.text(pad + text)
        if side == "trail":
            return Cell.text(text + pad)
        return Cell.text(pad + text + pad)
    if family is ErrorFamily.CASE_VARIATION:
        chars = list(text)
        flipped = False
        for i, ch in enumerate(chars):
            if ch.lower() != ch.upper() and rng.random() < 0.5:
                chars[i] = ch.swapcase()
                flipped = True
        if not flipped or "".join(chars) == text:
            for i, ch in enumerate(chars):
                if ch.lower() != ch.upper():
                    chars[i] = ch.swapcase()
                    break
        return Cell.text("".join(chars))
    # DUPLICATE_VARIANT: transposition, one-char deletion, or a space
    # inserted inside a token.
    moves = _dup_variant_moves(text)
    move = rng.choice(moves)
    if move == "transpose":
        spots = [i for i in range(len(text) - 1) if text[i] != text[i + 1]]
        i = rng.choice(spots)
        return Cell.text(text[:i] + text[i + 1] + text[i] + text[i + 2 :])
    if move == "delete":
        i = rng.randrange(len(text))
        return Cell.text(text[:i] + text[i + 1 :])
    spots = [i for i in range(len(text) - 1) if text[i] != " " and text[i + 1] != " "]
    i = rng.choice(spots)
    return Cell.text(text[: i + 1] + " " + text[i + 1 :])


class _Pool:
    """The cells still open to one family, in column-major order.

    Indexes like the list it was built from minus the removed cells, so
    ``rng.choice`` draws exactly what it would draw from that list. A
    Fenwick tree over "still open" flags makes indexing and removal
    O(log n) instead of the O(n) of a list.
    """

    def __init__(self, cells: list[tuple[int, str]]):
        self._cells = cells
        self._slot = {cell: k for k, cell in enumerate(cells)}
        n = len(cells)
        self._tree = [0] + [1] * n  # tree[k] counts the open slots in (k - lowbit(k), k]
        for k in range(1, n + 1):
            parent = k + (k & -k)
            if parent <= n:
                self._tree[parent] += self._tree[k]

    def __len__(self) -> int:
        return len(self._slot)

    def __getitem__(self, rank: int) -> tuple[int, str]:
        if not 0 <= rank < len(self._slot):
            raise IndexError(rank)
        k = 0
        step = 1 << (len(self._tree) - 1).bit_length()
        while step:
            nxt = k + step
            if nxt < len(self._tree) and self._tree[nxt] <= rank:
                k = nxt
                rank -= self._tree[nxt]
            step >>= 1
        return self._cells[k]

    def discard(self, cell: tuple[int, str]) -> None:
        k = self._slot.pop(cell, None)
        if k is None:
            return
        k += 1
        while k < len(self._tree):
            self._tree[k] -= 1
            k += k & -k


def inject_errors(table: Table, profile: ErrorProfile) -> tuple[Table, ErrorLog]:
    """Corrupt ~rate of the target-column cells; same seed, same output.

    Each cell's eligibility is judged once per family. A corrupted cell
    leaves every pool and no other cell changes, so the pools stay what a
    fresh scan would find.
    """
    values = {name: list(table.column_values(name)) for name in profile.columns}
    rng = random.Random(profile.seed)
    total = table.n_rows * len(profile.columns)
    target = int(profile.rate * total + 0.5)
    families = [f for f, w in profile.mix.items() if w > 0]
    entries: list[ErrorLogEntry] = []

    if target > 0:
        pools = {
            family: _Pool(
                [
                    (i, name)
                    for name, cells in values.items()
                    for i, cell in enumerate(cells)
                    if _eligible(cell, family)
                ]
            )
            for family in families
        }
        if not any(pools.values()):
            raise NoEligibleCellsError("no target cell is eligible for any family")

    while len(entries) < target:
        usable = [f for f in families if pools[f]]
        if not usable:
            break
        family = rng.choices(usable, weights=[profile.mix[f] for f in usable], k=1)[0]
        i, name = rng.choice(pools[family])
        original = values[name][i]
        replacement = _corrupt(original, family, rng)
        values[name][i] = replacement
        for pool in pools.values():
            pool.discard((i, name))
        entries.append(ErrorLogEntry(i, name, original, replacement, family))

    dirty = table
    for name, cells in values.items():
        dirty = dirty.replace_column(name, cells)
    return dirty, ErrorLog(tuple(entries))


# ---------------------------------------------------------------------------
# case manifests


@dataclass(frozen=True)
class CaseManifest:
    purpose: Purpose
    raw_table: Table
    gold_table: Table
    silver_workflow: Workflow
    error_log: Optional[ErrorLog]
    manifest_path: Path


def _read_bytes(path: Path, label: str) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise SchemaError(label, f"file not found: {path}") from None
    except OSError as exc:
        raise SchemaError(label, f"unreadable file ({exc})") from exc


def _read_json(path: Path, label: str) -> Any:
    data = _read_bytes(path, label)
    try:
        return json.loads(data.decode("utf-8"), parse_float=Decimal)
    except ValueError as exc:
        # ValueError covers bad JSON, bad UTF-8 and integers past Python's digit limit.
        raise SchemaError(label, f"unreadable JSON ({exc})") from exc


def load_case(manifest_path: str | Path) -> CaseManifest:
    manifest_path = Path(manifest_path)
    doc = _read_json(manifest_path, "manifest")
    if not isinstance(doc, dict):
        raise SchemaError("manifest", "top level must be an object")
    purpose = purpose_from_json(doc.get("purpose"))
    base = manifest_path.parent
    tables = {}
    for key in ("raw_table", "gold_table"):
        rel = doc.get(key)
        if not isinstance(rel, str):
            raise SchemaError(key, "must be a path string")
        data = _read_bytes(base / rel, key)
        try:
            tables[key] = load_table(data, provenance=rel)
        except DcflowError as exc:
            raise SchemaError(key, f"unloadable table ({exc})") from exc
    rel = doc.get("silver_workflow")
    if not isinstance(rel, str):
        raise SchemaError("silver_workflow", "must be a path string")
    data = _read_bytes(base / rel, "silver_workflow")
    try:
        silver = deserialize(data)
    except DcflowError as exc:
        raise SchemaError("silver_workflow", f"unloadable workflow ({exc})") from exc
    error_log = None
    if doc.get("error_log") is not None:
        if not isinstance(doc["error_log"], str):
            raise SchemaError("error_log", "must be a path string or null")
        error_log = ErrorLog.from_json(_read_json(base / doc["error_log"], "error_log"))
    return CaseManifest(
        purpose=purpose,
        raw_table=tables["raw_table"],
        gold_table=tables["gold_table"],
        silver_workflow=silver,
        error_log=error_log,
        manifest_path=manifest_path,
    )


def validate_case(case: CaseManifest) -> list[str]:
    """Cross-check a case; returns findings (empty when consistent)."""
    findings: list[str] = []
    purpose = case.purpose
    for name in purpose.target_columns_gold:
        for label, table in (("raw", case.raw_table), ("gold", case.gold_table)):
            if name not in table.columns:
                findings.append(f"target column {name!r} missing from {label} table")
    try:
        got = execute_purpose(purpose.query, case.gold_table)
        want = answer_to_canonical_text(purpose.gold_answer)
        have = answer_to_canonical_text(got)
        if have != want:
            findings.append(f"gold answer mismatch: query gives {have!r}, expected {want!r}")
    except DcflowError as exc:
        findings.append(f"gold query failed: {exc}")
    try:
        final = replay(case.silver_workflow, case.raw_table).final
        scores = eval_columns(final, case.gold_table, purpose.target_columns_gold)
        if scores.ratio < 1.0:
            findings.append(
                f"silver workflow leaves target columns at ratio {scores.ratio:.4f}, expected 1.0"
            )
    except ReplayError as exc:
        findings.append(f"silver workflow failed at step {exc.step_index}: {exc.cause}")
    except DcflowError as exc:
        findings.append(f"silver workflow check failed: {exc}")
    if case.error_log is not None:
        for k, e in enumerate(case.error_log.entries):
            if e.column not in case.raw_table.columns:
                findings.append(f"error_log[{k}]: unknown column {e.column!r}")
                continue
            if not 0 <= e.row < case.raw_table.n_rows:
                findings.append(f"error_log[{k}]: row {e.row} out of range")
                continue
            raw_cell = case.raw_table.column_values(e.column)[e.row]
            gold_cell = case.gold_table.column_values(e.column)[e.row]
            if raw_cell.render() != e.corrupted.render():
                findings.append(
                    f"error_log[{k}]: raw cell is {raw_cell.render()!r}, "
                    f"log says {e.corrupted.render()!r}"
                )
            if gold_cell.render() != e.original.render():
                findings.append(
                    f"error_log[{k}]: gold cell is {gold_cell.render()!r}, "
                    f"log says {e.original.render()!r}"
                )
    return findings


def assert_case_valid(case: CaseManifest) -> None:
    findings = validate_case(case)
    if findings:
        raise SelfCheckError(findings)


@dataclass(frozen=True)
class SuiteEntry:
    path: Path
    topic: str


def load_suite(suite_path: str | Path) -> list[SuiteEntry]:
    suite_path = Path(suite_path)
    doc = _read_json(suite_path, "suite")
    if not isinstance(doc, dict) or not isinstance(doc.get("cases"), list):
        raise SchemaError("suite", "must be an object with a 'cases' list")
    entries = []
    for i, raw in enumerate(doc["cases"]):
        if (
            not isinstance(raw, dict)
            or not isinstance(raw.get("path"), str)
            or not isinstance(raw.get("topic"), str)
        ):
            raise SchemaError(f"suite.cases[{i}]", "must be {'path': str, 'topic': str}")
        entries.append(SuiteEntry(suite_path.parent / raw["path"], raw["topic"]))
    return entries
