"""Typed cell values: text, exact decimal numbers, UTC timestamps, and missing.

Ingestion is string-typed; cells only become Number or Date through the
explicit ``numeric``/``date`` operations. Numbers are decimals so equality
and round-tripping stay exact, and dates are UTC at second precision with a
single canonical rendering (``YYYY-MM-DDTHH:MM:SSZ``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from enum import Enum
from typing import Optional, Union


class CellKind(Enum):
    TEXT = "text"
    NUMBER = "number"
    DATE = "date"
    MISSING = "missing"


@dataclass(frozen=True)
class Cell:
    """One table cell. Immutable; construct via the factory classmethods."""

    kind: CellKind
    value: Union[str, Decimal, datetime, None]

    def __post_init__(self):
        if self.kind is CellKind.TEXT:
            if not isinstance(self.value, str):
                raise TypeError("text cell needs a str value")
        elif self.kind is CellKind.NUMBER:
            if not isinstance(self.value, Decimal) or not self.value.is_finite():
                raise ValueError("number cell needs a finite Decimal")
        elif self.kind is CellKind.DATE:
            dt = self.value
            if not isinstance(dt, datetime) or dt.tzinfo is None:
                raise ValueError("date cell needs a timezone-aware datetime")
            if dt.utcoffset() != timezone.utc.utcoffset(None) or dt.microsecond != 0:
                raise ValueError("date cell must be UTC at second precision")
        elif self.value is not None:
            raise ValueError("missing cell carries no value")

    @classmethod
    def text(cls, value: str) -> "Cell":
        return cls(CellKind.TEXT, value)

    @classmethod
    def number(cls, value: Union[Decimal, int, str]) -> "Cell":
        if not isinstance(value, Decimal):
            value = Decimal(value)
        return cls(CellKind.NUMBER, value)

    @classmethod
    def date(cls, value: datetime) -> "Cell":
        if value.tzinfo is None:
            value = value.replace(tzinfo=timezone.utc)
        return cls(CellKind.DATE, value.astimezone(timezone.utc).replace(microsecond=0))

    @classmethod
    def missing(cls) -> "Cell":
        return cls(CellKind.MISSING, None)

    @property
    def is_missing(self) -> bool:
        return self.kind is CellKind.MISSING

    def render(self) -> str:
        """Canonical text form; missing renders as the empty string."""
        if self.kind is CellKind.TEXT:
            return self.value
        if self.kind is CellKind.NUMBER:
            return format_number(self.value)
        if self.kind is CellKind.DATE:
            return format_date(self.value)
        return ""


MISSING = Cell.missing()

# Optional sign, digits with optional well-formed thousands separators,
# optional decimal point (a trailing point like "1000." is accepted).
_NUMBER_RE = re.compile(r"[+-]?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d*)?")


def parse_number(text: str) -> Optional[Decimal]:
    """Parse ``text`` under the numeric grammar, or return None.

    Currency symbols and other adornments are deliberately not stripped;
    only surrounding whitespace and "," separators are tolerated.
    """
    t = text.strip()
    if not _NUMBER_RE.fullmatch(t):
        return None
    t = t.replace(",", "")
    if t.endswith("."):
        t = t[:-1]
    try:
        return Decimal(t)
    except InvalidOperation:  # pragma: no cover - grammar prevents this
        return None


def format_number(d: Decimal) -> str:
    """Render a decimal without exponent notation or trailing zeros."""
    if d == 0:
        return "0"
    text = format(d, "f")  # no context rounding, unlike normalize()
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


# Accepted date formats, in order. Patterns without %Y are time-of-day
# values normalized onto the epoch date 1970-01-01. Slash dates are
# month-first.
DATE_FORMATS: tuple[str, ...] = (
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%dT%H:%M",
    "%Y-%m-%d",
    "%Y/%m/%d",
    "%m/%d/%Y",
    "%B %d, %Y",
    "%b %d, %Y",
    "%d %B %Y",
    "%d %b %Y",
    "%I:%M %p",
    "%H:%M",
)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def parse_date(text: str) -> Optional[datetime]:
    """Parse ``text`` against the accepted formats, or return None."""
    t = text.strip()
    if not t:
        return None
    candidates = [t]
    if t.endswith("Z"):
        candidates.append(t[:-1])
    for fmt in DATE_FORMATS:
        for cand in candidates:
            try:
                dt = datetime.strptime(cand, fmt)
            except ValueError:
                continue
            if "%Y" not in fmt:
                dt = _EPOCH.replace(hour=dt.hour, minute=dt.minute, second=dt.second)
            return dt.replace(tzinfo=timezone.utc, microsecond=0)
    return None


def cell_number(cell: Cell) -> Optional[Decimal]:
    """A number cell's value, or a text cell's under ``parse_number``."""
    if cell.kind is CellKind.NUMBER:
        return cell.value
    if cell.kind is CellKind.TEXT:
        return parse_number(cell.value)
    return None


def cell_instant(cell: Cell) -> Optional[datetime]:
    """A date cell's instant, or a text cell's under ``parse_date``."""
    if cell.kind is CellKind.DATE:
        return cell.value
    if cell.kind is CellKind.TEXT:
        return parse_date(cell.value)
    return None


def format_date(dt: datetime) -> str:
    dt = dt.astimezone(timezone.utc)
    # strftime does not zero-pad years below 1000 on all platforms.
    return (
        f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}"
        f"T{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}Z"
    )
