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

import random
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from .cells import Cell, CellKind, cell_number
from .errors import (
    DcflowError,
    NoEligibleCellsError,
    ReplayError,
    SchemaError,
    SelfCheckError,
)
from .evaluation import eval_columns
from .jsonread import (
    choice, dict_of, integer, list_of, nullable, number, obj, read_file, read_json, string
)
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
        fields = obj(
            raw, path, rate=number, columns=list_of(string), seed=(integer, 0),
            mix=(nullable(dict_of(choice(ErrorFamily), number)), None),
        )
        rate, mix = float(fields["rate"]), fields["mix"]
        if mix is not None:
            mix = {family: float(weight) for family, weight in mix.items()}
        try:
            return cls(rate, fields["columns"], fields["seed"], mix)
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
        return cls(list_of(_log_entry_from_json)(raw, path))


def _text_cell(raw: Any, path: str) -> Cell:
    return Cell.text(string(raw, path))


def _log_entry_from_json(raw: Any, path: str) -> ErrorLogEntry:
    fields = obj(
        raw, path, row=integer, column=string, original=_text_cell, corrupted=_text_cell,
        family=choice(ErrorFamily),
    )
    return ErrorLogEntry(**fields)


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


def load_case(manifest_path: str | Path) -> CaseManifest:
    manifest_path = Path(manifest_path)
    doc = read_json(manifest_path, "manifest")
    if not isinstance(doc, dict):  # named after the file, not the bare root "$"
        raise SchemaError("manifest", "must be an object")
    doc = obj(
        doc, "$", purpose=purpose_from_json,
        raw_table=string, gold_table=string, silver_workflow=string,
        error_log=(nullable(string), None),
    )

    def load(key: str, what: str, parse: Callable[[bytes], Any]) -> Any:
        data = read_file(manifest_path.parent / doc[key], key)
        try:
            return parse(data)
        except DcflowError as exc:
            raise SchemaError(key, f"unloadable {what} ({exc})") from exc

    raw = load("raw_table", "table", lambda data: load_table(data, provenance=doc["raw_table"]))
    gold = load("gold_table", "table", lambda data: load_table(data, provenance=doc["gold_table"]))
    silver = load("silver_workflow", "workflow", deserialize)
    error_log = doc["error_log"]
    if error_log is not None:
        error_log = ErrorLog.from_json(read_json(manifest_path.parent / error_log, "error_log"))
    return CaseManifest(doc["purpose"], raw, gold, silver, error_log, manifest_path)


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
            for label, table, logged in (
                ("raw", case.raw_table, e.corrupted),
                ("gold", case.gold_table, e.original),
            ):
                if e.column not in table.columns:
                    findings.append(f"error_log[{k}]: unknown column {e.column!r} in {label} table")
                elif not 0 <= e.row < table.n_rows:
                    findings.append(f"error_log[{k}]: row {e.row} out of range in {label} table")
                elif (cell := table.column_values(e.column)[e.row]).render() != logged.render():
                    findings.append(
                        f"error_log[{k}]: {label} cell is {cell.render()!r}, "
                        f"log says {logged.render()!r}"
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

    def entry(raw: Any, path: str) -> SuiteEntry:
        fields = obj(raw, path, path=string, topic=string)
        return SuiteEntry(suite_path.parent / fields["path"], fields["topic"])

    # "version" is declared so that it is not an unknown key; no reader checks it.
    doc = obj(read_json(suite_path, "suite"), "suite", version=(string, ""), cases=list_of(entry))
    return list(doc["cases"])
