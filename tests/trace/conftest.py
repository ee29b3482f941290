"""Fixtures for the trace suite: one tiny traced trial, shared."""

from __future__ import annotations

import pytest

import repro.workloads as workloads_pkg
from repro import observe
from repro._units import MS
from repro.core.config import SystemConfig
from repro.core.experiment import run_trial
from repro.trace.config import TraceConfig
from repro.workloads.tpch import TPCHParams, TPCHWorkload

SEED = 4242


def tiny_tpch_factory():
    """A TPC-H instance small enough for sub-second trials."""
    return TPCHWorkload(
        TPCHParams(
            table_pages=96,
            hash_pages=96,
            shuffle_pages=64,
            n_threads=4,
            n_queries=1,
        )
    )


@pytest.fixture(autouse=True)
def no_probe_leaks():
    """Every test starts and ends with no observer subscribed."""
    observe.detach_all()
    yield
    observe.detach_all()


@pytest.fixture(scope="module")
def traced_trial():
    """(untraced, traced) results of the same tiny trial, module-cached.

    The 1 ms vmstat interval gives a few hundred snapshot rows over the
    ~0.5 s of simulated time the tiny trial covers.
    """
    prev = workloads_pkg.WORKLOAD_FACTORIES["tpch"]
    workloads_pkg.WORKLOAD_FACTORIES["tpch"] = tiny_tpch_factory
    config = SystemConfig(policy="mglru", swap="ssd", capacity_ratio=0.5)
    try:
        off = run_trial("tpch", config, SEED)
        on = run_trial(
            "tpch",
            config,
            SEED,
            trace=TraceConfig(vmstat_interval_ns=1 * MS),
        )
    finally:
        workloads_pkg.WORKLOAD_FACTORIES["tpch"] = prev
    observe.detach_all()
    assert on.trace is not None
    return off, on


@pytest.fixture(scope="module")
def capture(traced_trial):
    """The TraceCapture of the shared tiny trial."""
    return traced_trial[1].trace
