"""Pinned environment and provenance for benchmark runs.

:func:`pin_environment` must run before ``numpy`` or ``repro`` is
imported: it clears every inherited ``REPRO_*`` knob so the simulator
runs on its defaults, forces serial execution (``REPRO_JOBS=1``, one
BLAS thread), and points the on-disk trace cache at a private directory
so set-up cost does not depend on what earlier runs left behind.

:func:`provenance` describes the run: host fingerprint, source
revision, knob values and a digest of the benchmark configuration.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import sys
from typing import Any, Dict

#: Every environment knob the simulator reads.  All are cleared; only
#: the two below are set again.
REPRO_KNOBS = (
    "REPRO_JOBS",
    "REPRO_FAST_ACCESS",
    "REPRO_FAST_RECLAIM",
    "REPRO_FAST_ENGINE",
    "REPRO_FAST_FLEET",
    "REPRO_FAST_SEEDS",
    "REPRO_DATASET_MEMO",
    "REPRO_DATASET_SHM",
    "REPRO_TRACE_CACHE",
    "REPRO_TRACE_CACHE_CAP_MB",
    "REPRO_PSI",
    "REPRO_SPANS",
    "REPRO_SPANS_SAMPLE",
)

#: Native thread pools that could add host threads behind numpy.
THREAD_KNOBS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_environment(trace_cache_dir: pathlib.Path) -> Dict[str, str]:
    """Pin the process environment; returns the cleared inherited knobs.

    Child processes inherit the pinned environment.
    """
    cleared = {
        name: value
        for name, value in os.environ.items()
        if name.startswith("REPRO_")
    }
    for name in cleared:
        del os.environ[name]
    os.environ["REPRO_JOBS"] = "1"
    os.environ["REPRO_TRACE_CACHE"] = str(trace_cache_dir)
    for name in THREAD_KNOBS:
        os.environ[name] = "1"
    return cleared


def knob_values() -> Dict[str, str]:
    """The value each simulator knob has in this process ("" = default)."""
    return {name: os.environ.get(name, "") for name in REPRO_KNOBS}


def _git_revision(root: pathlib.Path) -> str:
    """HEAD's commit id read from ``.git`` directly, or ``"unknown"``
    when the tree is not a git checkout."""
    git_dir = root / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git_dir / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: pathlib.Path) -> str:
    """sha256 over every ``.py`` file under *src* (path + content), so a
    result names the exact simulator source even outside git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def config_digest(config: Any) -> str:
    """Short sha256 of a JSON-serialisable configuration."""
    blob = json.dumps(config, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def host_fingerprint() -> Dict[str, Any]:
    """CPU model, core count, load at start, interpreter and numpy."""
    import numpy

    cpu_model = platform.processor() or "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        load = [round(x, 2) for x in os.getloadavg()]
    except OSError:
        load = []
    return {
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "loadavg": load,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def provenance(
    root: pathlib.Path, config: Any, cleared: Dict[str, str],
    loadavg_at_start: Any,
) -> Dict[str, Any]:
    """The provenance block every result carries."""
    host = host_fingerprint()
    host["loadavg"] = loadavg_at_start
    return {
        "host": host,
        "git_revision": _git_revision(root),
        "source_digest": source_digest(root / "src"),
        "knobs": knob_values(),
        "cleared_knobs": sorted(cleared),
        "config_digest": config_digest(config),
    }
