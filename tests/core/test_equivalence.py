"""Bit-identity of the perf paths: golden access cells, serial/parallel.

The vectorized resident access path, the pre-sampled jitter pools and
the process-parallel grid are pure optimizations.  The access cells
below are pinned to golden digests captured while the scalar access
loop still shipped and agreed with the vectorized one (see
:mod:`tests.core.golden`); the grid tests pin parallel == serial.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.workloads as workloads_pkg
from repro.core.config import ExperimentConfig, SystemConfig
from repro.core.experiment import ExperimentRunner, _jobs_from_env
from tests.core import golden


@pytest.fixture(autouse=True)
def tiny_tpch(monkeypatch):
    """Shrink TPC-H so a full trial takes well under a second."""
    monkeypatch.setitem(
        workloads_pkg.WORKLOAD_FACTORIES, "tpch", golden.tiny_tpch
    )


def _config(policy: str, swap: str) -> SystemConfig:
    return SystemConfig(policy=policy, swap=swap, capacity_ratio=0.5)


@pytest.mark.parametrize("policy,swap", golden.ACCESS_CELLS)
def test_fast_path_bit_identical(policy, swap):
    """Every stat of the trial matches the golden digest, to the bit."""
    want = golden.load()["access"][golden.access_key(policy, swap)]
    got = golden.summary(golden.access_trial(policy, swap))
    # Headline numbers first, so a mismatch names what moved.
    for field in ("runtime_ns", "major_faults", "minor_faults", "hits",
                  "evictions"):
        assert got[field] == want[field], field
    assert got["digest"] == want["digest"]


@pytest.mark.parametrize(
    "policy,swap", [("clock", "ssd"), ("mglru", "zram")]
)
def test_parallel_grid_matches_serial(policy, swap):
    """jobs=4 and jobs=1 produce identical ExperimentResults."""
    config = ExperimentConfig(
        workload="tpch",
        system=_config(policy, swap),
        n_trials=4,
        base_seed=10_000,
    )
    serial = ExperimentRunner(jobs=1).run(config)
    parallel_runner = ExperimentRunner(jobs=4)
    try:
        parallel = parallel_runner.run(config)
    finally:
        parallel_runner.close()
    assert [t.seed for t in serial.trials] == [
        t.seed for t in parallel.trials
    ]
    assert serial.trials == parallel.trials


def test_run_many_matches_sequential_runs():
    """run_many (the run_grid fan-out) equals per-cell serial runs."""
    configs = [
        ExperimentConfig(
            workload="tpch",
            system=_config(policy, "zram"),
            n_trials=2,
            base_seed=10_000,
        )
        for policy in ("clock", "mglru")
    ]
    serial = [ExperimentRunner(jobs=1).run(c) for c in configs]
    runner = ExperimentRunner(jobs=2)
    try:
        fanned = runner.run_many(configs)
    finally:
        runner.close()
    for a, b in zip(serial, fanned):
        assert a.trials == b.trials


def test_jobs_env_parsing(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert _jobs_from_env() == 3
    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.warns(UserWarning, match="REPRO_JOBS"):
        assert _jobs_from_env() == 1
    monkeypatch.setenv("REPRO_JOBS", "-2")
    with pytest.warns(UserWarning, match="REPRO_JOBS"):
        assert _jobs_from_env() == 1
    monkeypatch.setenv("REPRO_JOBS", "lots")
    with pytest.warns(UserWarning, match="REPRO_JOBS"):
        assert _jobs_from_env() == 1
    monkeypatch.delenv("REPRO_JOBS")
    assert _jobs_from_env() == 1


def test_rng_pooling_preserves_stream_order():
    """Batched numpy draws consume the bit stream like scalar draws.

    This is the property the rmap/SSD jitter pools rest on: a
    ``size=N`` call yields the same values as N scalar calls on an
    identically-seeded generator.
    """
    a = np.random.default_rng(99)
    b = np.random.default_rng(99)
    pooled = a.exponential(250.0, size=64)
    scalars = np.array([b.exponential(250.0) for _ in range(64)])
    assert np.array_equal(pooled, scalars)

    a = np.random.default_rng(7)
    b = np.random.default_rng(7)
    pooled = a.lognormal(mean=0.0, sigma=0.35, size=64)
    scalars = np.array([b.lognormal(mean=0.0, sigma=0.35) for _ in range(64)])
    assert np.array_equal(pooled, scalars)
