"""Golden digests of the equivalence cells.

``tests/data/equivalence_golden.json`` pins the simulated outputs of
the 6 access-equivalence cells and the 16 reclaim-equivalence cells on
a shrunk TPC-H: a SHA-256 of each trial's canonical-JSON
:class:`~repro.core.results.TrialResult` (every compared field,
latency arrays in full) plus, for the reclaim cells, every tracepoint's
firing count.  The digests were captured while the vectorized and the
scalar kernels both still shipped and agreed on all 22 cells, so the
single remaining lane is held to the values both lanes produced.

Regenerate only for a deliberate change to simulated behaviour::

    PYTHONPATH=src python -m tests.core.golden
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import pathlib
from typing import Any, Dict, Tuple

from repro import observe
from repro.core.config import SystemConfig
from repro.core.experiment import run_trial
from repro.trace import tracepoints as _tp
from repro.workloads.tpch import TPCHParams, TPCHWorkload

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parents[1]
    / "data"
    / "equivalence_golden.json"
)

#: ``tests/core/test_equivalence.py``: (policy, swap) at ratio 0.5.
ACCESS_CELLS = [
    ("clock", "ssd"),
    ("mglru", "zram"),
    ("fifo", "ssd"),
    ("random", "zram"),
    ("opt", "ssd"),
    ("opt", "zram"),
]
ACCESS_SEED = 4242

#: ``tests/core/test_reclaim_equivalence.py``: policy x swap x ratio.
RECLAIM_CELLS = list(
    itertools.product(
        ["clock", "mglru", "fifo", "random"], ["ssd", "zram"], [0.5, 0.75]
    )
)
RECLAIM_SEED = 77_000


def tiny_tpch() -> TPCHWorkload:
    """TPC-H shrunk so a full trial takes well under a second."""
    return TPCHWorkload(
        TPCHParams(
            table_pages=96,
            hash_pages=96,
            shuffle_pages=64,
            n_threads=4,
            n_queries=1,
        )
    )


def access_key(policy: str, swap: str) -> str:
    return f"{policy}-{swap}"


def reclaim_key(policy: str, swap: str, ratio: float) -> str:
    return f"{policy}-{swap}-{ratio}"


def canonical(trial: Any) -> Dict[str, Any]:
    """Every field :class:`TrialResult` equality compares, JSON-ready."""
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(trial):
        if not f.compare:
            continue
        value = getattr(trial, f.name)
        if f.name == "latencies_ns":
            value = {op: arr.tolist() for op, arr in sorted(value.items())}
        out[f.name] = value
    return out


def digest(trial: Any) -> str:
    blob = json.dumps(canonical(trial), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def summary(trial: Any) -> Dict[str, Any]:
    """Digest plus the headline numbers, so a mismatch says what moved."""
    return {
        "digest": digest(trial),
        "runtime_ns": int(trial.runtime_ns),
        "major_faults": int(trial.major_faults),
        "minor_faults": int(trial.minor_faults),
        "hits": int(trial.counters["hits"]),
        "evictions": int(trial.counters["evictions"]),
    }


def access_trial(policy: str, swap: str) -> Any:
    config = SystemConfig(policy=policy, swap=swap, capacity_ratio=0.5)
    return run_trial("tpch", config, seed=ACCESS_SEED)


def traced_trial(policy: str, swap: str, ratio: float) -> Tuple[Any, Dict]:
    """One reclaim cell with a counting probe on every tracepoint.

    Returns ``(TrialResult, {tracepoint: firing count})``.
    """
    counts: Dict[str, int] = {name: 0 for name in _tp.TRACEPOINTS}

    def make_probe(name):
        def probe(a=0, b=0, c=0):
            counts[name] += 1

        return probe

    probes = observe.Subscription(
        _tp.handlers({name: make_probe(name) for name in _tp.TRACEPOINTS})
    )
    probes.attach()
    try:
        config = SystemConfig(policy=policy, swap=swap, capacity_ratio=ratio)
        result = run_trial("tpch", config, seed=RECLAIM_SEED)
    finally:
        probes.detach()
    return result, counts


def capture() -> Dict[str, Any]:
    """Run all 22 cells; the tiny TPC-H factory must be installed."""
    access = {
        access_key(p, s): summary(access_trial(p, s))
        for p, s in ACCESS_CELLS
    }
    reclaim = {}
    for p, s, r in RECLAIM_CELLS:
        trial, counts = traced_trial(p, s, r)
        reclaim[reclaim_key(p, s, r)] = {
            **summary(trial), "tracepoints": counts,
        }
    return {"access": access, "reclaim": reclaim}


def load() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def main() -> None:
    import repro.workloads as workloads_pkg

    workloads_pkg.WORKLOAD_FACTORIES["tpch"] = tiny_tpch
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
