"""Deterministic JSON rendering.

Every float is written with 17 significant decimal digits, which is
enough to round-trip any binary64 value, so two runs producing the same
numbers produce byte-identical documents.
"""

from __future__ import annotations

import json
import math

__all__ = ["dumps"]

_INDENT = 2


def _render(obj, level: int) -> str:
    pad = " " * (_INDENT * level)
    inner = " " * (_INDENT * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float in JSON output: {obj!r}")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + _render(v, level + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            inner + json.dumps(str(k)) + ": " + _render(v, level + 1)
            for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def dumps(obj) -> str:
    """Render ``obj`` as a JSON document ending in a newline."""
    return _render(obj, 0) + "\n"
