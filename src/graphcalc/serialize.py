"""Deterministic text output.

All floating-point numbers are printed with 17 significant digits, which is
enough to round-trip any IEEE double exactly, so identical inputs produce
byte-identical files.
"""

import dataclasses
import json
import math
from enum import Enum

import numpy as np

from .errors import FileFormatError


def fmt_float(x: float) -> str:
    """Render a float with 17 significant digits.

    Non-finite values use the json-module tokens (Infinity, -Infinity, NaN),
    which json.loads accepts back.
    """
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _write(obj, parts: list, level: int) -> None:
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(fmt_float(obj))
    elif isinstance(obj, complex):
        _write([obj.real, obj.imag], parts, level)
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key).__name__}")
            parts.append(pad + json.dumps(key) + ": ")
            _write(value, parts, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(close_pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, value in enumerate(items):
            parts.append(pad)
            _write(value, parts, level + 1)
            parts.append(",\n" if i < len(items) - 1 else "\n")
        parts.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj) -> str:
    """Serialize to JSON with deterministic key order, 17-digit floats and 2-space indent."""
    parts: list = []
    _write(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_dumps(obj))


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"key {key!r} repeated in one object")
            seen.add(key)
    return obj


def read_json(path, parse_int=None):
    """Read a JSON file; ``parse_int`` is :func:`json.load`'s.

    Invalid JSON, an integer longer than Python's digit limit and a key
    repeated in one object raise FileFormatError naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=parse_int, object_pairs_hook=_unique_keys)
        except ValueError as exc:
            raise FileFormatError(f"{path}: invalid JSON ({exc})") from None


def _field_json(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    if hasattr(value, "as_dict"):  # a VertexFunction; graph.py imports this module
        return value.as_dict()
    return value


class JsonRecord:
    """Mixin for dataclass records: the JSON object holds every field, in
    declaration order, with enums by value, tuples as lists and vertex
    functions as ``{vertex: value}`` dicts."""

    def to_json_dict(self) -> dict:
        return {f.name: _field_json(getattr(self, f.name)) for f in dataclasses.fields(self)}

    def to_json(self) -> str:
        return json_dumps(self.to_json_dict())
