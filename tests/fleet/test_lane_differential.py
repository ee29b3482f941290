"""Randomized differential test: burst server vs scalar path.

Hypothesis draws small fleets — tenant count, shapes, capacity, memcg
limits and protection, read fraction, per-request compute, arrival
rate, swap device, policy and seed — and asserts that the trial's row
equals, byte for byte, the row of the same trial served entirely on the
tenant thread's scalar path (the burst server stubbed to decline).

Pin any failure Hypothesis shrinks to as an ``@example`` below.  The
one there now is a deterministic cell for the subtlest invariant:
write hits inside a burst must set the dirty bit, or a page swapped in
clean and written in a burst is later evicted without its writeback.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fleet import FleetConfig, TenantShape, run_fleet_trial
from tests.fleet import golden

shapes = st.builds(
    TenantShape,
    n_items=st.integers(4, 200),
    zipf_theta=st.floats(0.0, 1.4),
    read_fraction=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
    request_compute_ns=st.sampled_from([0, 250, 6_000, 40_000]),
)

configs = st.builds(
    FleetConfig,
    n_tenants=st.integers(1, 4),
    shapes=st.lists(shapes, min_size=1, max_size=2).map(tuple),
    swap=st.sampled_from(golden.SWAPS),
    capacity_ratio=st.floats(0.1, 1.2),
    limit_ratio=st.none() | st.floats(0.2, 1.0),
    soft_limit_ratio=st.none() | st.floats(0.2, 1.0),
    low_ratio=st.sampled_from([0.0, 0.2]),
    min_ratio=st.sampled_from([0.0, 0.1]),
    n_requests_total=st.integers(1, 1000),
    arrival_rate_rps=st.sampled_from([2e4, 1.2e5, 1e6, 1e8, 1e11]),
    slo_ns=st.sampled_from([100_000, 2_000_000]),
    n_cpus=st.integers(1, 2),
)


@settings(max_examples=60, deadline=None)
@given(
    config=configs,
    policy=st.sampled_from(golden.POLICIES),
    seed=st.integers(0, 2**16),
)
@example(
    config=FleetConfig(
        n_tenants=1,
        shapes=(
            TenantShape(
                n_items=16,
                zipf_theta=0.0,
                read_fraction=0.5,
                request_compute_ns=0,
            ),
        ),
        swap="ssd",
        capacity_ratio=1.0,
        limit_ratio=0.5,
        n_requests_total=259,
        arrival_rate_rps=2e4,
        slo_ns=100_000,
        n_cpus=1,
    ),
    policy="clock",
    seed=1,
)
def test_burst_server_matches_scalar_path(config, policy, seed):
    row = run_fleet_trial(config, policy, seed)
    with golden.scalar_reference():
        ref = run_fleet_trial(config, policy, seed)
    assert golden.dumps(row) == golden.dumps(ref)
