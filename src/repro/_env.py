"""Integer environment knobs that fail loudly.

A malformed or out-of-range value falls back to the knob's default
with a warning.  Parses are memoized per distinct value, so a bad
value warns once per process rather than on every read.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from typing import Optional


@lru_cache(maxsize=None)
def int_knob(
    name: str, raw: str, fallback: int, minimum: Optional[int], instead: str
) -> int:
    """*raw*, the value of env var *name*, as an int; *fallback* with a
    warning that says what happens *instead* when it is not an integer
    or is below *minimum*."""
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(f"{name}={raw!r} is not an integer; {instead}")
        return fallback
    if minimum is not None and value < minimum:
        warnings.warn(f"{name}={value} < {minimum}; {instead}")
        return fallback
    return value
