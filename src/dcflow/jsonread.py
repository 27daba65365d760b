"""Typed readers for dcflow's JSON inputs.

Every JSON file dcflow reads (case manifests, suites, workflows, error logs,
error profiles and backend scripts) is decoded here and then read by
declaring its fields. A reader is a function ``(raw, path) -> value`` that
returns the Python value or raises ``SchemaError(path, reason)``, where
``path`` names the value inside its document, as in
``purpose.query.filters[0].op``. ``obj`` rejects every key it was not told
about, like JSON Schema's ``additionalProperties: false``.
"""

from __future__ import annotations

import json
from decimal import Decimal
from functools import cache
from enum import Enum
from pathlib import Path
from typing import Any, Callable

from .errors import SchemaError

Reader = Callable[[Any, str], Any]


def read_file(path: Path, label: str) -> bytes:
    """The bytes of ``path``; a missing or unreadable file is a
    ``SchemaError`` at ``label``."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise SchemaError(label, f"file not found: {path}") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise SchemaError(label, f"unreadable file ({exc})") from exc


def decode_json(data: bytes, label: str) -> Any:
    """UTF-8 JSON with fractions as ``Decimal``. Bad UTF-8 or JSON, an
    integer past Python's digit limit and nesting past the recursion limit
    all become ``SchemaError(label, "unreadable JSON (...)")``."""
    try:
        return json.loads(data.decode("utf-8"), parse_float=Decimal)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(label, f"unreadable JSON ({exc})") from exc


def read_json(path: Path, label: str) -> Any:
    return decode_json(read_file(path, label), label)


def _check(ok: Callable[[Any], bool], reason: str) -> Reader:
    def read(raw: Any, path: str) -> Any:
        if not ok(raw):
            raise SchemaError(path, reason)
        return raw

    return read


string = _check(lambda raw: isinstance(raw, str), "must be a string")
boolean = _check(lambda raw: isinstance(raw, bool), "must be true or false")
integer = _check(lambda raw: type(raw) is int, "must be an integer")
number = _check(lambda raw: type(raw) in (int, float, Decimal), "must be a number")
_list = _check(lambda raw: isinstance(raw, list), "must be a list")
_object = _check(lambda raw: isinstance(raw, dict), "must be an object")


_REQUIRED = object()


def obj(raw: Any, path: str, /, **fields: Reader | tuple[Reader, Any]) -> dict[str, Any]:
    """Read an object by its declared fields, in declaration order.

    A field is a reader, for a required key, or ``(reader, default)``, where
    ``default`` is the JSON value an absent key stands for. A key that no
    field declares is an error. The keys of the root path ``"$"`` are named
    bare (``steps``, not ``$.steps``).
    """
    _object(raw, path)
    prefix = "" if path == "$" else f"{path}."
    for key in raw:
        if key not in fields:
            raise SchemaError(f"{prefix}{key}", "unknown key")
    out = {}
    for key, field in fields.items():
        read, default = field if isinstance(field, tuple) else (field, _REQUIRED)
        value = raw.get(key, default)
        if value is _REQUIRED:
            raise SchemaError(f"{prefix}{key}", "missing required key")
        out[key] = read(value, f"{prefix}{key}")
    return out


def list_of(item: Reader) -> Reader:
    """A list, read item by item into a tuple."""
    return lambda raw, path: tuple(
        item(v, f"{path}[{i}]") for i, v in enumerate(_list(raw, path))
    )


def dict_of(key: Reader, value: Reader) -> Reader:
    """An object whose keys are data rather than declared fields."""
    return lambda raw, path: {
        key(k, f"{path}.{k}"): value(v, f"{path}.{k}") for k, v in _object(raw, path).items()
    }


def nullable(read: Reader) -> Reader:
    """``read``, or None for JSON null."""
    return lambda raw, path: None if raw is None else read(raw, path)


@cache  # options are constants, and readers are declared on every read
def choice(options: type[Enum] | tuple[str, ...]) -> Reader:
    """One of a tuple of strings, or the member of an ``Enum`` by value."""
    by_name = {getattr(o, "value", o): o for o in options}
    names = ", ".join(map(repr, by_name))
    expected = names if len(by_name) == 1 else f"one of {names}"

    def read(raw: Any, path: str) -> Any:
        if not isinstance(raw, str) or raw not in by_name:
            raise SchemaError(path, f"expected {expected}, got {raw!r}")
        return by_name[raw]

    return read
