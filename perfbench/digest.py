"""Digests of simulated outputs and the reference check behind ``failed``.

A *paper trial* digest covers ``runtime_ns``, the fault counts, the full
MM counter snapshot (which carries the swap I/O counts), the workload
metrics and every request latency (whole arrays, so the tails are
included).  A *fleet trial* digest covers the canonical sink row.  Host
timings never enter a digest, so two runs of the same seed on any host
must agree exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
from typing import Any, Dict, List, Optional

#: Committed per-(workload, seed) reference digests.
REFERENCES_PATH = pathlib.Path(__file__).with_name("references.json")


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:20]


def trial_digest(trial: Any) -> str:
    """Digest of one :class:`~repro.core.results.TrialResult`."""
    body = {
        "seed": trial.seed,
        "runtime_ns": int(trial.runtime_ns),
        "major_faults": int(trial.major_faults),
        "minor_faults": int(trial.minor_faults),
        "counters": trial.counters,
        "metrics": trial.metrics,
        "latencies": {
            op: [int(arr.shape[0]), _sha(arr.astype("<i8").tobytes())]
            for op, arr in sorted(trial.latencies_ns.items())
        },
    }
    return _sha(json.dumps(body, sort_keys=True).encode())


def row_digest(row: Dict[str, Any]) -> str:
    """Digest of one fleet sink row (its canonical JSON form)."""
    return _sha(json.dumps(row, sort_keys=True).encode())


def load_references(path: pathlib.Path = REFERENCES_PATH) -> Dict[str, Any]:
    """``{workload: {seed: [digest, ...]}}`` or ``{}`` if absent."""
    if not path.exists():
        return {}
    return json.loads(path.read_text())


class ReferenceCheck:
    """Counts trials whose digests differ from the reference.

    The reference for a round is the committed digest list for
    (workload, seed) when there is one, else the digests of the first
    round this process ran — the cold round, run with empty caches —
    so every later warm round must reproduce it exactly.
    """

    def __init__(
        self, workload: str, seed: int,
        references: Optional[Dict[str, Any]] = None,
    ) -> None:
        if references is None:
            references = load_references()
        committed = references.get(workload, {}).get(str(seed))
        self.reference: Optional[List[str]] = (
            list(committed) if committed is not None else None
        )
        self.committed = committed is not None
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def observe(self, digests: List[str], label: str = "") -> None:
        """Check one round's per-trial digests."""
        if self.reference is None:
            self.reference = list(digests)
        pairs = itertools.zip_longest(digests, self.reference)
        bad = 0
        for i, (got, ref) in enumerate(pairs):
            if got != ref:
                bad += 1
                self.mismatches.append(f"{label} trial {i}: {got} != {ref}")
        self.attempted += max(len(digests), len(self.reference))
        self.failed += bad

    def observe_error(self, n_trials: int, message: str) -> None:
        """A round that raised: every trial it attempted failed."""
        self.attempted += n_trials
        self.failed += n_trials
        self.mismatches.append(message)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
