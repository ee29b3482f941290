"""Bit-identity of the reclaim fast lane against golden digests.

The reclaim fast lane — triage-block eviction, pooled swap writes, and
the event-engine fast path — once shipped beside a scalar kernel for
every step.  The 16 cells below were captured while both kernels still
existed and agreed (see :mod:`tests.core.golden`), so a full trial must
match its golden digest to the bit: every :class:`TrialResult` field
*and* every tracepoint's firing count.
"""

from __future__ import annotations

import pytest

import repro.workloads as workloads_pkg
from repro.trace import tracepoints as _tp
from tests.core import golden


@pytest.fixture(autouse=True)
def tiny_tpch(monkeypatch):
    """Shrink TPC-H so a full trial takes well under a second."""
    monkeypatch.setitem(
        workloads_pkg.WORKLOAD_FACTORIES, "tpch", golden.tiny_tpch
    )


@pytest.mark.parametrize("ratio", [0.5, 0.75])
@pytest.mark.parametrize("swap", ["ssd", "zram"])
@pytest.mark.parametrize("policy", ["clock", "mglru", "fifo", "random"])
def test_batched_reclaim_bit_identical(policy, swap, ratio):
    """The trial matches the golden digest and every tracepoint count."""
    want = golden.load()["reclaim"][golden.reclaim_key(policy, swap, ratio)]
    trial, counts = golden.traced_trial(policy, swap, ratio)
    got = golden.summary(trial)

    for field in ("runtime_ns", "major_faults", "minor_faults", "hits",
                  "evictions"):
        assert got[field] == want[field], field
    assert got["digest"] == want["digest"]
    for name in _tp.TRACEPOINTS:
        assert counts[name] == want["tracepoints"][name], (
            f"tracepoint {name}: fired {counts[name]}, "
            f"golden {want['tracepoints'][name]}"
        )
    # Sanity: the trial actually exercised the reclaim machinery.
    assert counts["mm_vmscan_evict"] > 0
    assert counts["swap_io_done"] > 0
