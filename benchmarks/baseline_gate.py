"""Regression gate against a committed ``BENCH_*.json`` baseline.

Shared by ``bench_hotpath.py``, ``bench_reclaim.py`` and
``bench_grid.py``.  A run passes when every compared number keeps at
least ``1 - tolerance`` of its baseline value (ratios are oriented so
that higher is better).  A missing or unreadable baseline skips the
gate instead of failing it.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Callable, Iterable, Tuple


def check_baseline(
    baseline_path: pathlib.Path,
    tolerance: float,
    compare: Callable[[Any], Iterable[Tuple[str, float]]],
    failure: Callable[[int], str],
) -> int:
    """Gate this run against the baseline JSON at *baseline_path*.

    ``compare(baseline)`` yields one ``(line, ratio)`` pair per checked
    number: *line* describes measured vs. baseline, *ratio* is
    measured/baseline with higher meaning better.  A ``ValueError``,
    ``KeyError`` or ``TypeError`` raised while reading the baseline
    marks it unreadable.  On any regression, ``failure(n_failed)`` is
    printed to stderr.

    Returns a process exit code: 0 when every number is within
    tolerance (or the gate was skipped), 1 otherwise.
    """
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; skipping regression check")
        return 0
    floor = 1.0 - tolerance
    failures = 0
    try:
        baseline = json.loads(baseline_path.read_text())
        for line, ratio in compare(baseline):
            verdict = "OK" if ratio >= floor else "REGRESSION"
            print(f"{line} ({ratio:.3f}x, floor {floor:.2f}x) ... {verdict}")
            failures += ratio < floor
    except (ValueError, KeyError, TypeError) as exc:
        print(f"baseline {baseline_path} unreadable ({exc}); skipping check")
        return 0
    if failures:
        print(failure(failures), file=sys.stderr)
        return 1
    return 0
