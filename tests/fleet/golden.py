"""Golden digests of the fleet serving cells.

``tests/data/fleet_golden.json`` pins the sink row of every fleet cell
the serving-lane suites compare: {clock, mglru, fifo, random, opt} ×
{ssd, zram} × {no limit, ``limit_ratio=0.7``}, the serving-bound cell,
the protection-rings cell, and the PSI-on and spans-on pressured cells.
Each entry is a SHA-256 of the row's canonical JSON
(``json.dumps(row, sort_keys=True)``) plus headline numbers, so a
mismatch says what moved.  The digests were captured while the
vectorized and the scalar serving lanes both still shipped and agreed
on every cell, so the single remaining lane is held to the values both
lanes produced.

:func:`scalar_reference` is the reference without a knob: it stubs the
burst server (``repro.fleet.trial._tenant_body_fast``) to decline every
burst, so each request runs through the tenant thread's scalar path —
the old scalar lane's command stream.  Regeneration refuses to record
a cell on which the two disagree.

Regenerate only for a deliberate change to simulated behaviour::

    PYTHONPATH=src python -m tests.fleet.golden
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
from typing import Any, Callable, Dict, Iterator, Tuple

from repro.fleet import FleetConfig, TenantShape, run_fleet_trial
from repro.fleet import trial as fleet_trial

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "data" / "fleet_golden.json"
)

POLICIES = ["clock", "mglru", "fifo", "random", "opt"]
SWAPS = ["ssd", "zram"]
SEED = 7


def small_config(**overrides) -> FleetConfig:
    """Three tenants, two shapes, arrival-bound traffic at 50% capacity."""
    base = dict(
        n_tenants=3,
        shapes=(TenantShape(n_items=40), TenantShape(n_items=80)),
        capacity_ratio=0.5,
        n_requests_total=1200,
        arrival_rate_rps=60_000.0,
        slo_ns=2_000_000,
        n_cpus=2,
    )
    base.update(overrides)
    return FleetConfig(**base)


def serving_bound_config() -> FleetConfig:
    """Compressed arrivals + zero per-request compute: the whole trace
    is pending at t~0, which drives long vector runs instead of the
    arrival-bound request-at-a-time path."""
    return small_config(
        shapes=(
            TenantShape(n_items=60, read_fraction=1.0, request_compute_ns=0),
        ),
        capacity_ratio=0.95,
        arrival_rate_rps=1e10,
    )


def protection_rings_config() -> FleetConfig:
    """Soft limits + low/min protection: the memcg policy's multi-pass
    reclaim ordering."""
    return small_config(
        capacity_ratio=0.4,
        limit_ratio=0.8,
        soft_limit_ratio=0.5,
        low_ratio=0.2,
        min_ratio=0.1,
    )


def pressured_config(**overrides) -> FleetConfig:
    """Small but genuinely memory-pressured: evictions, steals and SLO
    violations (the PSI and spans suites' cell)."""
    base = dict(
        n_tenants=3,
        shapes=(TenantShape(n_items=200),),
        capacity_ratio=0.4,
        n_requests_total=900,
        arrival_rate_rps=120_000.0,
        slo_ns=1_000_000,
        n_cpus=2,
    )
    base.update(overrides)
    return FleetConfig(**base)


def lane_key(policy: str, swap: str, limited: bool) -> str:
    return f"{policy}-{swap}" + ("-limit0.7" if limited else "")


#: key -> (config factory, policy, run_fleet_trial keyword arguments).
CELLS: Dict[str, Tuple[Callable[[], FleetConfig], str, Dict[str, Any]]] = {
    lane_key(policy, swap, limited): (
        (
            lambda swap=swap, limited=limited: small_config(
                swap=swap, limit_ratio=0.7 if limited else None
            )
        ),
        policy,
        {},
    )
    for limited in (False, True)
    for policy in POLICIES
    for swap in SWAPS
}
CELLS["serving-bound"] = (serving_bound_config, "mglru", {})
CELLS["protection-rings"] = (protection_rings_config, "mglru", {})
CELLS["psi-pressured"] = (pressured_config, "mglru", {"psi": True})
CELLS["spans-pressured"] = (pressured_config, "mglru", {"spans": True})


def dumps(row: Dict[str, Any]) -> str:
    return json.dumps(row, sort_keys=True)


def digest(row: Dict[str, Any]) -> str:
    return hashlib.sha256(dumps(row).encode()).hexdigest()


def summary(row: Dict[str, Any]) -> Dict[str, Any]:
    """Digest plus the headline numbers, so a mismatch says what moved."""
    return {
        "digest": digest(row),
        "runtime_ns": int(row["runtime_ns"]),
        **{k: int(v) for k, v in row["totals"].items()},
        "requests": sum(t["requests"] for t in row["tenants"]),
        "slo_violations": sum(t["slo_violations"] for t in row["tenants"]),
    }


def _decline(*args: Any) -> int:
    return 0


@contextlib.contextmanager
def scalar_reference() -> Iterator[None]:
    """Serve every request on the scalar path (burst server declines)."""
    original = fleet_trial._tenant_body_fast
    fleet_trial._tenant_body_fast = _decline
    try:
        yield
    finally:
        fleet_trial._tenant_body_fast = original


def run_cell(key: str) -> Dict[str, Any]:
    make_config, policy, kwargs = CELLS[key]
    return run_fleet_trial(make_config(), policy, SEED, **kwargs)


def reference_cell(key: str) -> Dict[str, Any]:
    with scalar_reference():
        return run_cell(key)


def capture() -> Dict[str, Any]:
    """Run every cell and its reference; refuse to record a disagreement."""
    out = {}
    for key in CELLS:
        row = run_cell(key)
        if dumps(row) != dumps(reference_cell(key)):
            raise AssertionError(f"{key}: burst server and scalar path disagree")
        out[key] = summary(row)
    return out


def load() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def main() -> None:
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
