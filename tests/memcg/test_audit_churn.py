"""The charge-ledger invariant *during* a fleet trial.

``run_fleet_trial`` audits once at trial end.  The sharper claim — the
sum of per-cgroup usage equals the global allocated-frame count at
*every event boundary*, even while the burst server batches accesses
and tenants churn each other's pages out — is exercised here
by a read-only auditor daemon that re-audits the ledger at every
eviction epoch it observes moving, and fails loudly if churn never
happens at all.
"""

from __future__ import annotations

import json

import pytest

from repro._units import US
from repro.fleet import FleetConfig, TenantShape, run_fleet_trial
from repro.memcg import audit_usage
from repro.mm.system import MemorySystem
from repro.sim.events import Sleep


def churn_config() -> FleetConfig:
    """Hard per-tenant limits + tight global capacity: every tenant
    reclaims at charge time and steals under global pressure, so
    eviction epochs move constantly."""
    return FleetConfig(
        n_tenants=3,
        shapes=(TenantShape(n_items=200),),
        capacity_ratio=0.4,
        limit_ratio=0.6,
        n_requests_total=900,
        arrival_rate_rps=120_000.0,
        slo_ns=1_000_000,
        n_cpus=2,
    )


def _install_auditor(monkeypatch) -> dict:
    """Patch ``MemorySystem.start`` to also spawn an auditor daemon
    that calls ``audit_usage`` whenever a cgroup's eviction epoch moved
    since its last tick; returns the live counters."""
    counts = {"audits": 0, "epoch_moves": 0}
    orig_start = MemorySystem.start

    def start_with_auditor(self):
        orig_start(self)
        system = self

        def auditor():
            cgroups = system.policy.cgroups
            last = [cg.evict_epoch for cg in cgroups]
            while True:
                yield Sleep(20 * US)
                current = [cg.evict_epoch for cg in cgroups]
                if current != last:
                    counts["epoch_moves"] += 1
                    last = current
                    # The interesting instant: an eviction (uncharge)
                    # landed since the last tick.  Audit right here —
                    # raises SimulationError on any ledger drift.
                    audit_usage(system)
                    counts["audits"] += 1

        system.engine.spawn(auditor(), name="auditor", daemon=True)

    monkeypatch.setattr(MemorySystem, "start", start_with_auditor)
    return counts


@pytest.mark.parametrize("policy", ["clock", "mglru"])
def test_ledger_holds_at_eviction_epochs_fast_lane(monkeypatch, policy):
    counts = _install_auditor(monkeypatch)
    row = run_fleet_trial(churn_config(), policy, 11)
    # The cell really churned: tenant epochs moved many times and the
    # auditor checked the ledger at those boundaries without raising.
    assert counts["epoch_moves"] >= 20
    assert counts["audits"] == counts["epoch_moves"]
    assert row["totals"]["evictions"] > 0


def test_auditor_daemon_is_order_neutral():
    """The mid-run audits are pure reads: an audited trial's row must
    be byte-identical to the plain trial's."""
    config = churn_config()
    plain = run_fleet_trial(config, "mglru", 11)
    with pytest.MonkeyPatch.context() as mp:
        counts = _install_auditor(mp)
        audited = run_fleet_trial(config, "mglru", 11)
    assert counts["audits"] > 0
    assert json.dumps(audited, sort_keys=True) == json.dumps(
        plain, sort_keys=True
    )
