"""Trials leave no simulator state behind.

Every :class:`~repro.mm.page.Page` points at its page table's flat PTE
state, whose ``pages`` object array points back.  The cycle collector
cannot see into numpy object arrays, so unless the trial breaks the
cycle at its end, every page (and, through it, the whole simulator)
outlives the trial.  Each entry point below must leave the number of
live pages unchanged once the garbage collector has run.
"""

from __future__ import annotations

import gc

import pytest

import repro.workloads as workloads_pkg
from repro.core.config import SystemConfig
from repro.core.experiment import run_trial
from repro.core.seedmajor import run_cell_trials
from repro.fleet.config import FleetConfig, TenantShape
from repro.fleet.trial import run_fleet_trial
from repro.mm.page import Page
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
