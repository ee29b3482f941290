"""Every observability plane on at once.

The planes are passive observers, and each one is pinned alone
elsewhere: off == on for every pre-existing field.  This suite pins
the combination.  With all planes attached to one trial:

- every pre-existing result field is byte-identical to the all-off run;
- each plane's own output equals that plane run alone (tracepoint
  events and counts, vmstat rows, the metrics registry dump, the span
  table, the fleet rows' ``psi`` and ``spans`` sections).
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

import repro.workloads as workloads_pkg
from repro.core.config import SystemConfig
from repro.core.experiment import run_trial
from repro.fleet import FleetConfig, TenantShape, run_fleet_trial
from repro.metrics import MetricsConfig
from repro.spans import SpansConfig
from repro.trace.config import TraceConfig
from repro.trace.tracepoints import EVENT_NAMES
from tests.core import golden

SEED = 77_000
OBSERVED = ("trace", "metrics_registry", "spans")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _tracepoint_counts(capture) -> dict:
    return dict(
        Counter(EVENT_NAMES[int(ev)] for ev in capture.events["ev"])
    )


#: Registry families that legitimately depend on which other planes
#: are on: the engine's dispatch counter also counts the vmstat sampler
#: and span profiler daemons (simulated threads of those planes), and
#: the dropped-events counter exists only when trace and metrics run
#: together.
CROSS_PLANE_FAMILIES = (
    "repro_engine_events_total",
    "repro_trace_dropped_events_total",
)


def _registry(result) -> dict:
    dump = result.metrics_registry.to_dict()
    dump["metrics"] = [
        family
        for family in dump["metrics"]
        if family["name"] not in CROSS_PLANE_FAMILIES
    ]
    return dump


@pytest.fixture(autouse=True)
def tiny_tpch(monkeypatch):
    monkeypatch.setitem(
        workloads_pkg.WORKLOAD_FACTORIES, "tpch", golden.tiny_tpch
    )


@pytest.mark.parametrize(
    "policy,swap", [("mglru", "ssd"), ("clock", "zram")]
)
def test_trial_with_every_plane_matches_each_plane_alone(policy, swap):
    config = SystemConfig(policy=policy, swap=swap, capacity_ratio=0.5)

    def trial(trace=False, metrics=False, spans=False):
        return run_trial(
            "tpch",
            config,
            SEED,
            trace=TraceConfig() if trace else None,
            metrics=MetricsConfig() if metrics else None,
            spans=SpansConfig() if spans else None,
        )

    # The bare run goes first: it warms the dataset memo, so every
    # metered run below sees the same cache-counter deltas.
    off = trial()
    assert off.counters["evictions"] > 0
    traced = trial(trace=True)
    metered = trial(metrics=True)
    spanned = trial(spans=True)
    every = trial(trace=True, metrics=True, spans=True)

    for result in (traced, metered, spanned, every):
        assert golden.canonical(result) == golden.canonical(off)
        assert golden.digest(result) == golden.digest(off)
    assert all(getattr(off, name) is None for name in OBSERVED)

    # Trace plane: the same events, in the same order, and the same
    # vmstat table.
    assert every.trace.total_events == traced.trace.total_events
    assert every.trace.dropped_events == traced.trace.dropped_events
    assert _tracepoint_counts(every.trace) == _tracepoint_counts(
        traced.trace
    )
    assert np.array_equal(every.trace.events, traced.trace.events)
    assert sorted(every.trace.vmstat.columns) == sorted(
        traced.trace.vmstat.columns
    )
    for name, column in traced.trace.vmstat.columns.items():
        assert np.array_equal(every.trace.vmstat.columns[name], column)

    # Metrics plane: the full registry dump, less the two families
    # that see the other planes by design.
    assert _dumps(_registry(every)) == _dumps(_registry(metered))

    # Spans plane: the full table.
    assert every.spans.n_faults > 0
    assert _dumps(every.spans.to_obj()) == _dumps(spanned.spans.to_obj())


def _fleet_config() -> FleetConfig:
    """Small but memory-pressured: evictions, steals and stalls."""
    return FleetConfig(
        n_tenants=3,
        shapes=(TenantShape(n_items=200),),
        capacity_ratio=0.4,
        n_requests_total=900,
        arrival_rate_rps=120_000.0,
        slo_ns=1_000_000,
        n_cpus=2,
    )


def _strip(row: dict, keys) -> dict:
    out = {k: v for k, v in row.items() if k not in keys}
    out["tenants"] = [
        {k: v for k, v in t.items() if k not in keys}
        for t in row["tenants"]
    ]
    return out


def _section(row: dict, key: str):
    return row[key], [t[key] for t in row["tenants"]]


@pytest.mark.parametrize("policy", ["clock", "mglru"])
def test_fleet_with_psi_and_spans_matches_each_plane_alone(policy):
    config = _fleet_config()
    off = run_fleet_trial(config, policy, 7, psi=False, spans=False)
    psi = run_fleet_trial(config, policy, 7, psi=True, spans=False)
    spans = run_fleet_trial(config, policy, 7, psi=False, spans=True)
    both = run_fleet_trial(config, policy, 7, psi=True, spans=True)

    assert off["totals"]["evictions"] > 0
    assert _dumps(_strip(both, ("psi", "spans"))) == _dumps(off)
    assert _dumps(_strip(psi, ("psi",))) == _dumps(off)
    assert _dumps(_strip(spans, ("spans",))) == _dumps(off)
    assert _dumps(_section(both, "psi")) == _dumps(_section(psi, "psi"))
    assert _dumps(_section(both, "spans")) == _dumps(
        _section(spans, "spans")
    )
    assert both["psi"]["system"]["some_total_us"] > 0
    assert both["spans"]["n_faults"] > 0
