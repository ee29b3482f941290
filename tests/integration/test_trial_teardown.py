"""Trials leave no simulator state behind.

Every :class:`~repro.mm.page.Page` points at its page table's flat PTE
state, whose ``pages`` object array points back.  The cycle collector
cannot see into numpy object arrays, so unless the trial breaks the
cycle at its end, every page (and, through it, the whole simulator)
outlives the trial.  Each entry point below must leave the number of
live pages unchanged once the garbage collector has run.

Observers are process-global subscribers, so a trial must also detach
every one it attached — including when it fails mid-run — and the
suspended threads of a failed trial must not reach the observers of
the next one.
"""

from __future__ import annotations

import gc

import pytest

import repro.workloads as workloads_pkg
from repro.core.config import SystemConfig
from repro.core.experiment import run_trial
from repro import observe
from repro._units import MS
from repro.core.seedmajor import run_cell_trials
from repro.fleet.config import FleetConfig, TenantShape
from repro.fleet.trial import run_fleet_trial, run_memcg_trial
from repro.metrics import MetricsConfig
from repro.mm.page import Page
from repro.sim.engine import Engine
from repro.spans import SpansConfig
from repro.trace.config import TraceConfig
from repro.workloads.pagerank import PageRankParams, PageRankWorkload
from tests.core import golden


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    monkeypatch.setitem(
        workloads_pkg.WORKLOAD_FACTORIES, "tpch", golden.tiny_tpch
    )
    monkeypatch.setitem(
        workloads_pkg.WORKLOAD_FACTORIES,
        "pagerank",
        lambda: PageRankWorkload(
            PageRankParams(
                n_vertices=2048, avg_degree=6, n_iterations=2, n_threads=2
            )
        ),
    )


def live_pages() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Page)


def config(policy: str) -> SystemConfig:
    return SystemConfig(policy=policy, swap="zram", capacity_ratio=0.5)


@pytest.mark.parametrize("policy", ["clock", "mglru"])
def test_run_trial_frees_its_pages(policy):
    before = live_pages()
    trial = run_trial("tpch", config(policy), seed=3)
    assert trial.counters["evictions"] > 0
    assert live_pages() == before


def test_seed_major_cell_frees_its_pages():
    before = live_pages()
    trials = run_cell_trials("pagerank", config("mglru"), [5, 6])
    assert len(trials) == 2
    assert live_pages() == before


def test_fleet_trial_frees_its_pages():
    before = live_pages()
    row = run_fleet_trial(
        FleetConfig(
            n_tenants=4,
            shapes=(TenantShape(n_items=100),),
            n_requests_total=500,
        ),
        "clock",
        1,
    )
    assert row["totals"]["minor_faults"] > 0
    assert live_pages() == before


def _fleet_config() -> FleetConfig:
    return FleetConfig(
        n_tenants=3,
        shapes=(TenantShape(n_items=200),),
        capacity_ratio=0.4,
        n_requests_total=900,
        arrival_rate_rps=120_000.0,
        n_cpus=2,
    )


#: Entry point -> (run with every plane it supports, comparable output
#: of that run).
TRIALS = {
    "run_trial": (
        lambda: run_trial(
            "tpch",
            config("mglru"),
            seed=3,
            trace=TraceConfig(),
            metrics=MetricsConfig(),
            spans=SpansConfig(),
        ),
        lambda trial: trial.spans.to_obj(),
    ),
    "run_fleet_trial": (
        lambda: run_fleet_trial(
            _fleet_config(), "mglru", 7, psi=True, spans=True
        ),
        lambda row: row,
    ),
    "run_memcg_trial": (
        lambda: run_memcg_trial("tpch", config("clock"), seed=3),
        lambda trial: trial.runtime_ns,
    ),
}


@pytest.mark.parametrize("entry", sorted(TRIALS))
def test_failed_trial_detaches_every_observer(entry, monkeypatch):
    trial, output = TRIALS[entry]
    want = output(trial())
    real_run = Engine.run

    def failing_run(self, until_ns=None):
        # Observe the first 2 ms of simulated time, then fail with
        # faults, reclaim and I/O in flight.
        real_run(self, until_ns=self.now + 2 * MS)
        raise RuntimeError("injected trial failure")

    monkeypatch.setattr(Engine, "run", failing_run)
    with pytest.raises(RuntimeError, match="injected"):
        trial()
    assert observe.active() == ()
    monkeypatch.setattr(Engine, "run", real_run)
    # Collecting the failed trial closes its suspended threads and runs
    # their cleanup code; none of it may reach a later trial's
    # observers.
    seen = []
    spy = observe.Subscription(
        (event, lambda *args, _e=event: seen.append(_e))
        for event in observe.EVENTS
    )
    spy.attach()
    try:
        gc.collect()
    finally:
        spy.detach()
    assert seen == []
    assert output(trial()) == want
    assert observe.active() == ()
