"""The fleet serving lane: golden rows and the scalar-path reference.

The contract under test (see ``_tenant_body``): the tenant thread serves
arrived resident bursts through the burst server ``_tenant_body_fast``
and every other request on its scalar path, and both emit the *same
command stream*.  Every cell is checked twice: against the golden
digest recorded while the old vectorized and scalar lanes both shipped
and agreed (:mod:`tests.fleet.golden`), and byte for byte against the
same trial with the burst server stubbed out, which serves every request
on the scalar path.
"""

from __future__ import annotations

import json

import pytest

from repro import observe
from repro.fleet import JsonlSink, run_fleet_trial
from repro.fleet.report import build_registry, render_markdown
from repro.fleet.runner import WINDOW_PER_JOB, run_sweep
from repro.fleet.sink import load_rows
from repro.fleet.trial import LANE_STATS
from tests.fleet import golden
from tests.fleet.golden import small_config


def assert_cell(key: str) -> None:
    """The cell's row matches its golden digest and the scalar reference."""
    row = golden.run_cell(key)
    want = golden.load()[key]
    got = golden.summary(row)
    # Headline numbers first, so a mismatch names what moved.
    for field in want:
        assert got[field] == want[field], field
    assert golden.dumps(row) == golden.dumps(golden.reference_cell(key))


@pytest.mark.parametrize("swap", golden.SWAPS)
@pytest.mark.parametrize("policy", golden.POLICIES)
def test_fast_lane_rows_byte_identical(policy, swap):
    assert_cell(golden.lane_key(policy, swap, limited=False))


@pytest.mark.parametrize("swap", golden.SWAPS)
@pytest.mark.parametrize("policy", golden.POLICIES)
def test_fast_lane_rows_byte_identical_with_limits(policy, swap):
    assert_cell(golden.lane_key(policy, swap, limited=True))


def test_fast_lane_serving_bound_regime_identical():
    # The whole trace is pending at t~0, driving long burst-server runs
    # instead of the arrival-bound request-at-a-time path.
    assert_cell("serving-bound")


def test_fast_lane_protection_rings_identical():
    # Soft limits + low/min protection drive the memcg policy's
    # multi-pass reclaim ordering; the paths must agree there too.
    assert_cell("protection-rings")


def test_fast_lane_report_and_registry_identical():
    config = small_config(swap="zram", limit_ratio=0.7)
    header = {"format": "repro.fleet/v2", "config": config.to_dict()}

    def render():
        rows = [
            run_fleet_trial(config, policy, 7) for policy in ("clock", "mglru")
        ]
        return render_markdown(header, rows), build_registry(rows).to_dict()

    report, registry = render()
    with golden.scalar_reference():
        ref_report, ref_registry = render()
    assert report == ref_report
    assert json.dumps(registry, sort_keys=True) == json.dumps(
        ref_registry, sort_keys=True
    )


def test_lane_stats_and_metrics_hooks():
    counts = {"requests": 0, "residue": 0}

    def on_batch(n_requests, n_residue):
        counts["requests"] += n_requests
        counts["residue"] += n_residue

    config = small_config(n_requests_total=600)
    observe.attach("fleet_batch", on_batch)
    try:
        LANE_STATS.reset()
        run_fleet_trial(config, "clock", 7)
        first = dict(counts)
        with golden.scalar_reference():
            run_fleet_trial(config, "clock", 7)
    finally:
        observe.detach("fleet_batch", on_batch)
    # The burst server and the scalar path classify the same requests
    # as residue, and the LANE_STATS mirror matches the hook-fed totals.
    assert first["requests"] == config.n_requests_total
    assert counts == {k: 2 * v for k, v in first.items()}
    snap = LANE_STATS.snapshot()
    assert snap.pop("requests") == counts["requests"]
    assert snap.pop("residue_requests") == counts["residue"]
    assert snap.pop("batches") > 0
    assert snap == {}


def test_sweep_window_refill_matches_serial(tmp_path):
    # More trials than the in-flight window (jobs * WINDOW_PER_JOB) so
    # the sliding refill path runs; rows must match a serial sweep
    # exactly, regardless of completion order.
    config = small_config(n_requests_total=300)
    policies = ["clock", "fifo", "random"]
    seeds = [1, 2, 3, 4]
    assert len(policies) * len(seeds) > 2 * WINDOW_PER_JOB

    serial_path = tmp_path / "serial.jsonl"
    with JsonlSink(serial_path, config.to_dict()) as sink:
        ran = run_sweep(config, policies, seeds, sink, jobs=1)
    assert ran == 12

    parallel_path = tmp_path / "parallel.jsonl"
    with JsonlSink(parallel_path, config.to_dict()) as sink:
        ran = run_sweep(config, policies, seeds, sink, jobs=2)
    assert ran == 12

    def keyed(path):
        _, rows = load_rows(path)
        return {
            (row["policy"], row["seed"]): json.dumps(row, sort_keys=True)
            for row in rows
        }

    assert keyed(serial_path) == keyed(parallel_path)
