"""Deterministic JSON rendering.

Every float is written as its shortest ``repr``, which reads back as the
same binary64, so two runs producing the same numbers produce
byte-identical documents.  CSV output uses the same rule.
"""

from __future__ import annotations

import json

__all__ = ["dumps"]


def dumps(obj) -> str:
    """Render ``obj`` as a JSON document ending in a newline.  A NaN or an
    infinity raises ValueError."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"
