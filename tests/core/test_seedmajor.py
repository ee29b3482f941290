"""The cell runner: pinned multi-seed cells, chunking, parallel runner.

Every cell runs its seeds one ``run_trial`` at a time.  The trials of
the multi-seed cells below are pinned by
``tests/data/multiseed_golden.json``, recorded while a seed-stacked
PageRank lane still shipped and agreed with the per-seed lane on every
trial (:mod:`tests.core.multiseed_golden`); the parallel runner
(seed-chunk tasks on workers forked after the parent memoized the
datasets) must reproduce the serial results exactly.
"""

from __future__ import annotations

import pytest

import repro.workloads as workloads_pkg
from repro.core import seedmajor
from repro.core.config import ExperimentConfig
from repro.core.experiment import (
    DATASET_SEED,
    ExperimentRunner,
    build_system,
    chunk_seeds,
    run_cell_trials,
    run_trial,
)
from repro.sim.engine import Engine
from repro.sim.rng import RngTree
from repro.workloads import datasets, make_workload
from tests.core import golden, multiseed_golden as pinned

SEEDS = pinned.SEEDS
GOLDEN = pinned.load()


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    factories = workloads_pkg.WORKLOAD_FACTORIES
    monkeypatch.setitem(factories, "pagerank", pinned.tiny_pagerank)
    monkeypatch.setitem(factories, "tpch", golden.tiny_tpch)


config = pinned.system


def pinned_cell(workload, policy):
    return GOLDEN["cells"][pinned.cell_key(workload, policy)]


class TestBitIdentity:
    @pytest.mark.parametrize("policy", pinned.POLICIES)
    def test_stacked_equals_scalar_per_policy(self, policy):
        """A PageRank cell under reclaim pressure (ratio 0.5, so the
        policy actually evicts) reproduces the digests both cell lanes
        agreed on."""
        trials = run_cell_trials("pagerank", config(policy), SEEDS)
        assert pinned.summaries(trials) == pinned_cell("pagerank", policy)

    def test_fallback_workload_matches_scalar(self):
        """TPC-H, whose trials draw per-seed probes, never had a stacked
        lane; its cell is pinned the same way."""
        trials = run_cell_trials("tpch", config("mglru"), SEEDS)
        assert pinned.summaries(trials) == pinned_cell("tpch", "mglru")


def vma_bases(seed):
    """The VMA start VPNs of a tiny PageRank trial with *seed*."""
    workload = make_workload("pagerank")
    footprint = workload.prepare(
        RngTree(DATASET_SEED).subtree("dataset", "pagerank")
    )
    system = build_system(Engine(), RngTree(seed), config("clock"), footprint)
    workload.setup(system)
    bases = [vma.start_vpn for vma in system.address_space.vmas]
    system.address_space.page_table.release_flat()
    return tuple(bases)


class TestLayoutPrepass:
    def test_replayed_bases_match_real_vmas(self):
        """A trial run on its own equals its row of the pinned cell, and
        ASLR places at least one area differently across seeds."""
        trial = run_trial("pagerank", config("clock"), SEEDS[1])
        assert golden.summary(trial) == pinned_cell("pagerank", "clock")[1]
        assert len({vma_bases(seed) for seed in SEEDS}) > 1

    def test_stacked_rows_match_scalar_traces(self):
        """Every seed's trial run on its own equals its row of the
        pinned cell: a trial does not depend on the cell around it."""
        for row, seed in enumerate(SEEDS):
            trial = run_trial("pagerank", config("mglru"), seed)
            assert golden.summary(trial) == pinned_cell("pagerank", "mglru")[row]

    def test_plan_cell_only_warms_the_dataset(self):
        """``plan_cell`` plans nothing; it leaves the dataset memoized."""
        datasets.clear_process_state()
        datasets.MEMO_STATS.reset()
        assert seedmajor.plan_cell("pagerank", SEEDS) is None
        assert datasets.MEMO_STATS.snapshot() == {"hits": 0, "misses": 1}
        seedmajor.plan_cell("pagerank", SEEDS)
        assert datasets.MEMO_STATS.snapshot() == {"hits": 1, "misses": 1}


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
        assert (
            pinned.summaries(parallel.trials)
            == GOLDEN["run_many"]["pagerank-mglru"]
        )

    def test_run_many_parallel_matches_serial(self):
        configs = [self._config("clock"), self._config("mglru")]
        with ExperimentRunner(jobs=1) as runner:
            serial = runner.run_many(configs)
        with ExperimentRunner(jobs=2) as runner:
            parallel = runner.run_many(configs)
        for a, b in zip(serial, parallel):
            assert a.trials == b.trials
        assert {
            pinned.cell_key("pagerank", r.policy): pinned.summaries(r.trials)
            for r in parallel
        } == GOLDEN["run_many"]

    def test_close_releases_pool_and_segments(self):
        runner = ExperimentRunner(jobs=2)
        runner.run(self._config())
        workers = list(runner._pool._processes.values())
        runner.close()
        assert runner._pool is None
        # shutdown(wait=True) must have joined every worker.
        assert workers
        assert all(
            not w.is_alive() and w.exitcode is not None for w in workers
        )
        runner.close()  # idempotent

    def test_progress_notes_once_per_trial_parallel(self):
        notes = []
        runner = ExperimentRunner(progress=notes.append, jobs=2)
        with runner:
            runner.run(self._config())
        assert len(notes) == 4
