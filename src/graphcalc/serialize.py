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


def _write(obj, parts: list, indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
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
        _write([obj.real, obj.imag], parts, indent, level)
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key).__name__}")
            parts.append(pad + json.dumps(key) + ": ")
            _write(value, parts, indent, level + 1)
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
            _write(value, parts, indent, level + 1)
            parts.append(",\n" if i < len(items) - 1 else "\n")
        parts.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj, indent: int = 2) -> str:
    """Serialize to JSON with deterministic key order and 17-digit floats."""
    parts: list = []
    _write(obj, parts, indent, 0)
    parts.append("\n")
    return "".join(parts)


def write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_dumps(obj))


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
