"""Seeded random tables and workflows shared by tests and the replay worker."""

from __future__ import annotations

import random
from datetime import datetime, timezone
from decimal import Decimal

from dcflow import Cell, MassEditSpec, OpKind, OpSpec, Table, Workflow
from dcflow.transform import parse_transform_expr

WORDS = [
    "RESTAURANT",
    "restaurant",
    "Grocery Store",
    "SCHOOL",
    " school ",
    "N/A",
    "Ohare",
    "OHARE",
    "a b",
    "x",
    "",
]
NUMERICISH = ["1,000", "1000.", "42", "-7.5", "0", "12,345.60", "+3"]

TRANSFORM_POOL = [
    "jython: return value",
    "jython: return value.upper()",
    "jython: return value.strip()",
    "jython: return re.sub(r'\\s+', ' ', value)",
    "jython: import re\nmatch = re.search(r'\\b\\d{4}\\b', value)\nif match:\n    return match.group(0)",
    "jython: import re\nmatch = re.search(r'(\\d+)', value)\nif match:\n    return match.group(1)\nreturn value",
]


def random_cell(rng: random.Random) -> Cell:
    roll = rng.random()
    if roll < 0.45:
        return Cell.text(rng.choice(WORDS))
    if roll < 0.75:
        return Cell.text(rng.choice(NUMERICISH))
    if roll < 0.85:
        return Cell.number(Decimal(rng.randrange(-1000, 1000)))
    if roll < 0.93:
        return Cell.date(
            datetime(2023, rng.randrange(1, 13), rng.randrange(1, 28), tzinfo=timezone.utc)
        )
    return Cell.missing()


def random_table(rng: random.Random, max_rows: int = 10, max_cols: int = 6) -> Table:
    n_cols = rng.randrange(1, max_cols + 1)
    n_rows = rng.randrange(0, max_rows + 1)
    columns = [f"c{i + 1}" for i in range(n_cols)]
    rows = [[random_cell(rng) for _ in range(n_cols)] for _ in range(n_rows)]
    return Table.from_rows(columns, rows)


def random_text_table(rng: random.Random, max_rows: int = 10, max_cols: int = 6) -> Table:
    """Like random_table but text/missing only, as a CSV load would produce."""
    n_cols = rng.randrange(1, max_cols + 1)
    n_rows = rng.randrange(1, max_rows + 1)
    columns = [f"c{i + 1}" for i in range(n_cols)]
    rows = []
    for _ in range(n_rows):
        row = []
        for _ in range(n_cols):
            if rng.random() < 0.1:
                row.append(Cell.missing())
            else:
                pool = WORDS if rng.random() < 0.6 else NUMERICISH
                row.append(Cell.text(rng.choice(pool)))
        rows.append(row)
    return Table.from_rows(columns, rows)


def random_mass_edit(rng: random.Random) -> MassEditSpec:
    pool = ["alpha", "beta", "GAMMA", "delta", "Epsilon", "zeta"]
    rng.shuffle(pool)
    n_edits = rng.randrange(1, 3)
    edits = []
    cursor = 0
    for _ in range(n_edits):
        take = rng.randrange(1, 3)
        froms = pool[cursor : cursor + take]
        cursor += take
        if not froms:
            break
        edits.append((froms, rng.choice(["CANON", "MERGED", "OK"])))
    return MassEditSpec.of(edits)


def random_step(rng: random.Random, columns: list[str], op: OpKind | None = None) -> OpSpec:
    if op is None:
        op = rng.choice(list(OpKind))
    column = rng.choice(columns)
    if op is OpKind.MASS_EDIT:
        return OpSpec(op, column, random_mass_edit(rng))
    if op is OpKind.REGEXR_TRANSFORM:
        return OpSpec(op, column, parse_transform_expr(rng.choice(TRANSFORM_POOL)))
    return OpSpec(op, column)


def random_workflow(rng: random.Random, table: Table, max_steps: int = 8) -> Workflow:
    n_steps = rng.randrange(0, max_steps + 1)
    steps = tuple(random_step(rng, list(table.columns)) for _ in range(n_steps))
    return Workflow(steps, source_table_id="random")
