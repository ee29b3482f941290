"""One fleet trial: N tenants, one frame pool, per-tenant memcgs.

``run_fleet_trial`` is the fleet analogue of
:func:`repro.core.experiment.run_trial`: a completely fresh simulator
per (config, policy, seed), returning one JSON-safe *row* for the
:class:`~repro.fleet.sink.JsonlSink`.  Memory stays bounded regardless
of request count: per-tenant latency distributions are streaming log2
:class:`~repro.metrics.registry.Histogram`\\ s (64 integers each), never
per-request arrays.

Layout and traffic both come from named RNG streams, so serial and
``REPRO_JOBS`` executions of the same (config, policy, seed) cell are
bit-identical; dataset construction goes through
:func:`repro.workloads.datasets.get_dataset`, so a 500-tenant fleet
with a handful of distinct shapes builds each distinct working set
once per process (and shares it on disk across processes).
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from repro import observe
from repro._env import int_knob
from repro.core.config import SystemConfig
from repro.core.experiment import DATASET_SEED
from repro.fleet.config import FleetConfig, TenantShape, apportion_requests
from repro.memcg import MemCgroup, MemcgPolicy, audit_usage
from repro.metrics.registry import Histogram
from repro.mm.page import PageKind
from repro.mm.system import MemorySystem
from repro.policies import make_policy
from repro.psi import PsiConfig, PsiTracker, interval_overlap_ns
from repro.sim.engine import Engine
from repro.sim.events import Compute, Sleep
from repro.sim.rng import RngTree
from repro.spans import SpanRecorder, SpansConfig
from repro.swapdev import SSDSwapDevice, ZRAMSwapDevice
from repro.workloads import datasets
from repro.workloads.kvstore import KVStore
from repro.workloads.zipf import ZipfSampler

#: Row format tag (also the sink's header format).
ROW_FORMAT = "repro.fleet/v2"

#: Keys sampled per batch inside a tenant thread (amortizes RNG cost,
#: not semantics — matches the YCSB workload's batching idiom).
KEY_BATCH = 256


class _LaneStats:
    """Process-global fleet serving telemetry.

    Always-on counters (two integer adds per KEY_BATCH), independent of
    the metrics plane; the ``fleet_batch`` event feeds the same numbers
    into a :class:`~repro.metrics.session.MetricsSession` registry as
    ``repro_fleet_*`` metrics.  They never reach sink rows or reports
    unless asked for (``--lane-stats``).
    """

    __slots__ = ("requests", "residue_requests", "batches")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.residue_requests = 0
        self.batches = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "residue_requests": self.residue_requests,
            "batches": self.batches,
        }


#: Serving counters for this process (reset freely in tests).
LANE_STATS = _LaneStats()


def psi_enabled() -> bool:
    """The ``REPRO_PSI`` env knob (off by default).

    PSI is a pure observer: enabling it adds a ``psi`` section to rows
    and tenant entries but leaves every pre-existing field byte-
    identical, and PSI-off runs attach no subscriber.
    """
    return os.environ.get("REPRO_PSI", "0") != "0"


def spans_enabled() -> bool:
    """The ``REPRO_SPANS`` env knob (off by default).

    Same observer contract as PSI: spans-on adds a ``spans`` section to
    rows and tenant entries, leaves every pre-existing field
    byte-identical, and spans-off runs attach no subscriber.
    """
    return os.environ.get("REPRO_SPANS", "0") != "0"


def spans_sample_env() -> int:
    """The ``REPRO_SPANS_SAMPLE`` head-sampling knob (default 1: keep
    every fault's full record; aggregates always cover all faults).
    Malformed values fall back to 1 with a warning."""
    return int_knob(
        "REPRO_SPANS_SAMPLE", os.environ.get("REPRO_SPANS_SAMPLE", "1"),
        1, 1, "keeping every record",
    )


# ----------------------------------------------------------------------
# Shared per-shape data (satellite: one build per distinct shape)
# ----------------------------------------------------------------------

def _shape_dataset(shape: TenantShape, shape_idx: int) -> Dict[str, Any]:
    """Item placement, rank permutation and Zipf CDF for one shape.

    Keyed by the shape's parameters through the content-hash dataset
    layer, so every tenant of the same shape — and every trial, and
    every pool worker via the disk cache — reuses one build.  The Zipf
    CDF rides along because its harmonic-sum construction is the only
    other O(n_items) step per tenant.
    """
    dataset_rng = RngTree(DATASET_SEED).subtree(
        "dataset", f"fleet-kv-{shape_idx}"
    )

    def build() -> Dict[str, np.ndarray]:
        store = KVStore(
            shape.n_items,
            shape.value_bytes,
            dataset_rng.stream("kv", "layout"),
        )
        sampler = ZipfSampler(shape.n_items, theta=shape.zipf_theta)
        return {
            "item_page": store._item_page,
            "rank_perm": dataset_rng.stream("kv", "rank-perm").permutation(
                shape.n_items
            ),
            "zipf_cdf": sampler.cdf,
        }

    spec = datasets.DatasetSpec(
        name=f"fleet-kv-{shape_idx}",
        params=repr(shape),
        seed=dataset_rng.seed,
        rng_path=dataset_rng._path,
    )
    data = datasets.get_dataset(spec, build)
    store = KVStore(
        shape.n_items, shape.value_bytes, item_page=data["item_page"]
    )
    sampler = ZipfSampler(
        shape.n_items,
        theta=shape.zipf_theta,
        permutation=data["rank_perm"],
        cdf=data["zipf_cdf"],
    )
    return {"store": store, "sampler": sampler}


def _ratio_pages(footprint: int, ratio: Optional[float]) -> Optional[int]:
    if ratio is None:
        return None
    return max(1, int(footprint * ratio))


# ----------------------------------------------------------------------
# Tenant server thread
# ----------------------------------------------------------------------

class _TenantState:
    """Mutable per-tenant run state (histograms + counters)."""

    __slots__ = (
        "fault_hist",
        "request_hist",
        "requests_done",
        "slo_violations",
        "major_faults",
        "minor_faults",
        "viol_intervals",
    )

    def __init__(self) -> None:
        self.fault_hist = Histogram()
        self.request_hist = Histogram()
        self.requests_done = 0
        self.slo_violations = 0
        self.major_faults = 0
        self.minor_faults = 0
        #: Coalesced SLO-violation windows ``[deadline, completion]``
        #: (a list only while PSI is on; the attribution section
        #: overlaps them against the tenant's PSI stall intervals).
        self.viol_intervals: Optional[List[List[int]]] = None


def _viol_add(intervals: List[List[int]], start: int, end: int) -> None:
    """Append one violation window, coalescing with the previous one.

    Windows arrive in arrival order with non-decreasing completion
    instants (every window ends at an ``engine.now`` flush point), so
    extend-or-append keeps the list sorted and disjoint without a merge
    pass.
    """
    if intervals and start <= intervals[-1][1]:
        if end > intervals[-1][1]:
            intervals[-1][1] = end
    elif end > start:
        intervals.append([start, end])


class _Burst:
    """One tenant's wholesale-serving state for :func:`_tenant_body_fast`.

    Holds the flat PTE arrays, the current key batch (numpy arrays plus
    the arrival list the waiting list takes slices of) and the batch's
    cached presence classification: ``pres_all`` (every remaining
    request resident) or ``pres_l`` (per request), valid while
    ``valid`` holds and the tenant cgroup's ``evict_epoch`` still equals
    ``epoch``.  ``dense`` records whether the last classification found
    at least 90% of the remaining requests resident — only then does a
    re-gather after an eviction pay for itself.
    """

    __slots__ = (
        "present",
        "accessed",
        "dirty",
        "stats",
        "memcg",
        "c",
        "quantum",
        "waiting",
        "chunks",
        "arr",
        "arr_l",
        "iidx",
        "tidx",
        "write_mask",
        "any_write",
        "pres_all",
        "pres_l",
        "valid",
        "dense",
        "epoch",
    )

    def __init__(
        self,
        system: MemorySystem,
        memcg: MemCgroup,
        c: int,
        waiting: List[int],
        chunks: List[np.ndarray],
    ) -> None:
        flat = system.address_space.page_table.flat_view()
        self.present = flat.present
        self.accessed = flat.accessed
        self.dirty = flat.dirty
        self.stats = system.stats
        self.memcg = memcg
        self.c = c
        self.quantum = system.compute_quantum_ns
        self.waiting = waiting
        self.chunks = chunks

    def load(
        self,
        arr: np.ndarray,
        arr_l: List[int],
        iidx: np.ndarray,
        tidx: np.ndarray,
        write_mask: np.ndarray,
    ) -> None:
        """Take a new key batch and classify all of it."""
        self.arr = arr
        self.arr_l = arr_l
        self.iidx = iidx
        self.tidx = tidx
        self.write_mask = write_mask
        self.any_write = bool(write_mask.any())
        self.pres_l = None
        self.classify(0)

    def classify(self, pos: int) -> None:
        """Re-read live presence for requests *pos* onwards."""
        present = self.present
        seg = present[self.iidx[pos:]] & present[self.tidx[pos:]]
        self.pres_all = bool(seg.all())
        if not self.pres_all:
            if self.pres_l is None:
                self.pres_l = [True] * self.arr.shape[0]
            self.pres_l[pos:] = seg.tolist()
        self.dense = self.pres_all or int(seg.sum()) * 10 >= seg.shape[0] * 9
        self.epoch = self.memcg.evict_epoch
        self.valid = True


def _tenant_body_fast(burst: _Burst, pos: int, now: int, pending_ns: int) -> int:
    """Serve the burst starting at request *pos* wholesale; return its length.

    The burst is the maximal run of requests bounded by three prefixes:

    - **arrival**: ``searchsorted`` over the (sorted) arrival times —
      requests that arrive after *now* end it;
    - **presence**: both the index and the item page resident, as
      classified at the burst-start instant — valid for the whole burst
      because the thread does not yield inside one;
    - **quantum budget**: how many requests fit before ``pending_ns``
      reaches the compute quantum (the thread's flush-after check).

    Its accessed/dirty bits are fancy-indexed stores into the flat PTE
    state, its hits one counter add, its arrivals one slice onto the
    waiting list (a numpy chunk for long runs, which ``flush_observe``
    bins with ``Histogram.observe_many``).  The thread adds its compute.

    The classification is cached per key batch.  A cached True goes
    stale only through an eviction, which uncharges the tenant cgroup
    and moves its ``evict_epoch``: the cache is then dropped, and a
    re-gather waits for a run of more than 16 arrived requests over a
    dense batch, where it amortizes.  A cached False goes stale when
    the thread's own fault path maps a page back in: a live re-read at
    *pos* catches that and re-classifies.

    Returns 0 when request *pos* is not resident or the re-gather does
    not pay; the thread then serves it on its scalar path.
    """
    b = burst
    present = b.present
    if b.valid and b.memcg.evict_epoch != b.epoch:
        b.valid = False
    if b.valid:
        if not (b.pres_all or b.pres_l[pos]):
            if not (present[b.iidx[pos]] and present[b.tidx[pos]]):
                return 0
            b.classify(pos)
        k_max = int(b.arr.searchsorted(now, side="right")) - pos
    else:
        if not b.dense:
            return 0
        k_max = int(b.arr.searchsorted(now, side="right")) - pos
        if k_max <= 16:
            return 0
        b.classify(pos)
    c = b.c
    if c:
        k_q = -(-(b.quantum - pending_ns) // c)  # ceil
        if k_q < k_max:
            k_max = k_q
    if b.pres_all:
        k = k_max
    else:
        pres_l = b.pres_l
        k = 0
        while k < k_max and pres_l[pos + k]:
            k += 1
        if k == 0:
            return 0
    end = pos + k
    run_t = b.tidx[pos:end]
    accessed = b.accessed
    accessed[b.iidx[pos:end]] = True
    accessed[run_t] = True
    if b.any_write:
        b.dirty[run_t[b.write_mask[pos:end]]] = True
    b.stats.hits += 2 * k
    if k <= 16:
        # Short runs flush cheaper through the scalar waiting list than
        # as numpy chunks; the aggregates are order-independent sums.
        b.waiting.extend(b.arr_l[pos:end])
    else:
        b.chunks.append(b.arr[pos:end])
    return k


def _tenant_body(
    system: MemorySystem,
    tenant: int,
    shape: TenantShape,
    store: KVStore,
    sampler: ZipfSampler,
    arrivals: np.ndarray,
    index_start: int,
    item_start: int,
    slo_ns: int,
    state: _TenantState,
    memcg: MemCgroup,
) -> Iterator[Any]:
    """Open-loop server thread of one tenant.

    **Burst semantics**: requests that have already arrived and hit
    resident pages accrue their per-request compute into ``pending_ns``
    instead of yielding one ``Compute`` each; the accrued work flushes
    as a single ``Compute`` at the first *flush point* —

    - ``pending_ns`` reaches the CPU compute quantum,
    - the next request has not arrived yet (flush, re-check, sleep),
    - a request misses a page (the flush folds the fault's trap
      overhead, then ``handle_fault(..., charge_overhead=False)``), or
    - the tenant's request trace ends.

    A hit request completes at the flush of the burst containing its
    compute; its latency (completion minus *arrival*, queueing
    included) is what the SLO judges.  A faulting request completes
    when its last fault resolves.  Fault latency is still measured
    around each ``handle_fault`` alone.

    Between two flush points the thread never yields, so page presence
    observed at a burst's start instant holds for the whole burst.
    That frozen window lets :func:`_tenant_body_fast` serve a burst
    wholesale whenever at least two requests have arrived.  Every
    other request — a single arrival, the request a burst stopped at,
    one the burst server declines — takes the scalar path below: index
    page, then item page, one fault helper.  A burst server that always
    returns 0 therefore yields the same command stream request by
    request, which is the reference the tests compare against.
    """
    key_rng = system.rng.stream("fleet", "keys", tenant)
    op_rng = system.rng.stream("fleet", "ops", tenant)
    engine = system.engine
    stats = system.stats
    flat = system.address_space.page_table.flat_view()
    present = flat.present
    accessed = flat.accessed
    dirty = flat.dirty
    pages = flat.pages
    quantum = system.compute_quantum_ns
    overhead = system.costs.fault_overhead_ns
    c = shape.request_compute_ns
    n_mine = int(arrivals.shape[0])
    fault_hist = state.fault_hist
    request_hist = state.request_hist
    # PSI attribution wants the tenant's SLO-violation windows.
    viol = state.viol_intervals
    # Per-tenant flat-index maps, translated once: the tenant's layout
    # is static, so per-batch lookups reduce to one gather each.
    index_map = flat.translate(index_start + np.arange(store.n_index_pages))
    item_map = flat.translate(item_start + np.arange(store.n_item_pages))
    assert index_map is not None and item_map is not None, "vpn unmapped"
    pending_ns = 0
    #: Arrivals of hit requests whose burst has not flushed yet: single
    #: arrivals and short runs, then long runs as numpy chunks.
    #: Histogram binning and the SLO count are order-independent sums.
    waiting: List[int] = []
    chunks: List[np.ndarray] = []
    burst = _Burst(system, memcg, c, waiting, chunks)

    def flush_observe() -> None:
        now = engine.now
        # All windows of one flush end at ``now``, so their union is
        # [min violating arrival + slo, now] in any observation order.
        vmin = -1
        for a in waiting:
            latency = now - a
            request_hist.observe(latency)
            if latency > slo_ns:
                state.slo_violations += 1
                if vmin < 0 or a < vmin:
                    vmin = a
        waiting.clear()
        if chunks:
            arr = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            latencies = now - arr
            request_hist.observe_many(latencies)
            late = latencies > slo_ns
            nv = int(late.sum())
            state.slo_violations += nv
            if nv and viol is not None:
                m = int(arr[late].min())
                if vmin < 0 or m < vmin:
                    vmin = m
            chunks.clear()
        if viol is not None and vmin >= 0:
            _viol_add(viol, vmin + slo_ns, now)

    def fault(j: int, write: bool, pending: int) -> Iterator[Any]:
        # The flush folds the trap overhead (charge_overhead=False).
        yield Compute(pending + overhead)
        flush_observe()
        page = pages[j]
        major = page.swap_slot is not None
        t0 = engine.now
        yield from system.handle_fault(page, write, charge_overhead=False)
        fault_hist.observe(engine.now - t0)
        if major:
            state.major_faults += 1
        else:
            state.minor_faults += 1

    issued = 0
    while issued < n_mine:
        batch = min(KEY_BATCH, n_mine - issued)
        keys = sampler.sample(key_rng, batch)
        write_mask = op_rng.random(batch) >= shape.read_fraction
        iidx = index_map[store.index_pages(keys)]
        tidx = item_map[store.item_pages(keys)]
        arr = arrivals[issued : issued + batch]
        # Python-list mirrors: plain int indexing is several times
        # cheaper than numpy scalar indexing.  The scalar path's three
        # materialize on its first request, so a batch the burst server
        # serves whole never pays for them.
        arr_l = arr.tolist()
        iidx_l: Optional[List[int]] = None
        burst.load(arr, arr_l, iidx, tidx, write_mask)
        n_residue = 0
        pos = 0
        while pos < batch:
            arrival = arr_l[pos]
            now = engine.now
            if arrival > now:
                # Next request not here yet: flush, re-check, sleep.
                if pending_ns:
                    yield Compute(pending_ns)
                    pending_ns = 0
                flush_observe()
                if arrival > engine.now:
                    yield Sleep(arrival - engine.now)
                continue
            if pos + 1 < batch and arr_l[pos + 1] <= now:
                k = _tenant_body_fast(burst, pos, now, pending_ns)
                if k:
                    pos += k
                    pending_ns += k * c
                    if c and pending_ns >= quantum:
                        yield Compute(pending_ns)
                        pending_ns = 0
                        flush_observe()
                    continue
            # One request: hash-index page, then the item page (YCSB
            # access shape), each against live presence.
            if iidx_l is None:
                iidx_l = iidx.tolist()
                tidx_l = tidx.tolist()
                wm_l = write_mask.tolist()
            pending_ns += c
            faulted = False
            j = iidx_l[pos]
            if present[j]:
                stats.hits += 1
                accessed[j] = True
            else:
                yield from fault(j, False, pending_ns)
                pending_ns = 0
                faulted = True
            # The item page is read *now*: an index fault above may
            # have yielded, and reclaim can evict (or the fault path
            # fill) it meanwhile.
            j = tidx_l[pos]
            write = wm_l[pos]
            if present[j]:
                stats.hits += 1
                accessed[j] = True
                if write:
                    dirty[j] = True
            else:
                yield from fault(j, write, pending_ns)
                pending_ns = 0
                faulted = True
            pos += 1
            if faulted:
                n_residue += 1
                latency = engine.now - arrival
                request_hist.observe(latency)
                if latency > slo_ns:
                    state.slo_violations += 1
                    if viol is not None:
                        _viol_add(viol, arrival + slo_ns, engine.now)
            else:
                waiting.append(arrival)
                if c and pending_ns >= quantum:
                    yield Compute(pending_ns)
                    pending_ns = 0
                    flush_observe()
        issued += batch
        LANE_STATS.requests += batch
        LANE_STATS.residue_requests += n_residue
        LANE_STATS.batches += 1
        if (hook := observe.fleet_batch) is not None:
            hook(batch, n_residue)
    if pending_ns:
        yield Compute(pending_ns)
    flush_observe()
    state.requests_done = issued
    return issued


# ----------------------------------------------------------------------
# The trial
# ----------------------------------------------------------------------

def run_fleet_trial(
    config: FleetConfig,
    policy_name: str,
    seed: int,
    psi: Any = None,
    spans: Any = None,
) -> Dict[str, Any]:
    """One fleet execution on a fresh simulator; returns a sink row.

    ``psi`` opts the trial into kernel-style pressure-stall accounting:
    ``True`` (or a :class:`~repro.psi.PsiConfig`) attaches a
    :class:`~repro.psi.PsiTracker` and adds a ``psi`` section to the
    row and to each tenant entry; ``False`` disables it; ``None`` reads
    ``REPRO_PSI`` (default off).  PSI is deliberately *not* part of
    :class:`FleetConfig` — it never changes simulation results, so the
    sink's config digest (and resumability) is independent of it.

    ``spans`` opts the trial into causal fault-span recording under the
    same contract: ``True`` (or a :class:`~repro.spans.SpansConfig`)
    attaches a :class:`~repro.spans.SpanRecorder` and adds a ``spans``
    section to the row and to each tenant entry; ``False`` disables;
    ``None`` reads ``REPRO_SPANS`` (default off), with
    ``REPRO_SPANS_SAMPLE`` controlling head sampling of retained
    records.
    """
    if psi is None:
        psi = psi_enabled()
    psi_config: Optional[PsiConfig]
    if isinstance(psi, PsiConfig):
        psi_config = psi
    else:
        psi_config = PsiConfig() if psi else None
    if spans is None:
        spans = spans_enabled()
    spans_config: Optional[SpansConfig]
    if isinstance(spans, SpansConfig):
        spans_config = spans
    elif spans:
        spans_config = SpansConfig(sample_every=spans_sample_env())
    else:
        spans_config = None
    engine = Engine()
    rng = RngTree(seed)
    n = config.n_tenants

    # Shared per-shape data: one dataset build per *distinct* shape.
    shape_data = [
        _shape_dataset(shape, idx)
        for idx, shape in enumerate(config.shapes)
    ]

    # Per-tenant cgroup + inner policy instance (one lruvec each).
    cgroups: List[MemCgroup] = []
    footprints: List[int] = []
    total_footprint = 0
    for i in range(n):
        store: KVStore = shape_data[config.shape_index(i)]["store"]
        footprint = store.footprint_pages
        footprints.append(footprint)
        total_footprint += footprint
        cgroups.append(
            MemCgroup(
                name=f"t{i}",
                policy=make_policy(policy_name),
                limit_pages=_ratio_pages(footprint, config.limit_ratio),
                soft_limit_pages=_ratio_pages(
                    footprint, config.soft_limit_ratio
                ),
                low_pages=(
                    _ratio_pages(footprint, config.low_ratio)
                    if config.low_ratio
                    else 0
                ),
                min_pages=(
                    _ratio_pages(footprint, config.min_ratio)
                    if config.min_ratio
                    else 0
                ),
            )
        )
    root = MemcgPolicy(cgroups)

    capacity = max(64, int(total_footprint * config.capacity_ratio))
    sys_config = SystemConfig(
        policy=policy_name,
        swap=config.swap,
        capacity_ratio=config.capacity_ratio,
        n_cpus=config.n_cpus,
    )
    if config.swap == "ssd":
        device = SSDSwapDevice(
            engine, rng.stream("ssd"), sys_config.ssd_costs
        )
    else:
        device = ZRAMSwapDevice(rng.stream("zram"), sys_config.zram_costs)
    system = MemorySystem(
        engine,
        rng,
        root,
        device,
        capacity_frames=capacity,
        n_cpus=config.n_cpus,
        costs=sys_config.costs,
    )

    # Tenant layouts: region-aligned VMA pairs tagged with their memcg.
    starts: List[Any] = []
    for i, cg in enumerate(cgroups):
        store = shape_data[config.shape_index(i)]["store"]
        index = system.address_space.map_area(
            f"t{i}-kv-index",
            store.n_index_pages,
            PageKind.ANON,
            entropy=0.45,
            memcg=cg,
        )
        items = system.address_space.map_area(
            f"t{i}-kv-items",
            store.n_item_pages,
            PageKind.ANON,
            entropy=0.65,
            memcg=cg,
        )
        starts.append((index.start_vpn, items.start_vpn))
        # Multi-tenant MG-LRU walkers age only their own regions; the
        # solo case keeps the global walk (bit-identity with run_trial).
        inner = cg.policy
        if n > 1 and hasattr(inner, "regions_provider"):
            inner.regions_provider = (
                lambda _cg=cg: _cg.regions(system.address_space)
            )

    # Traffic: Zipf tenant popularity -> exact request shares -> per-
    # tenant Poisson arrivals at each tenant's share of the fleet rate.
    pop_rank = rng.stream("fleet", "popularity").permutation(n)
    weights = [
        1.0 / float(pop_rank[i] + 1) ** config.tenant_zipf_theta
        for i in range(n)
    ]
    shares = apportion_requests(config.n_requests_total, weights)
    states = [_TenantState() for _ in range(n)]
    if psi_config is not None:
        for state in states:
            state.viol_intervals = []
    w_sum = sum(weights)
    for i in range(n):
        if shares[i] == 0:
            continue
        rate_rps = config.arrival_rate_rps * weights[i] / w_sum
        gaps = rng.stream("fleet", "arrivals", i).exponential(
            scale=1e9 / rate_rps, size=shares[i]
        )
        arrivals = np.cumsum(gaps).astype(np.int64)
        shape = config.shape_of(i)
        data = shape_data[config.shape_index(i)]
        system.spawn_app_thread(
            _tenant_body(
                system,
                i,
                shape,
                data["store"],
                data["sampler"],
                arrivals,
                starts[i][0],
                starts[i][1],
                config.slo_ns,
                states[i],
                cgroups[i],
            ),
            f"tenant-{i}",
        )

    # PSI and spans subscribe to the observer bus *before* the engine
    # runs.  Both are pure observers (plus Sleep-only sampler/profiler
    # daemons), so rows with them on stay byte-identical in every
    # pre-existing field.
    tracker: Optional[PsiTracker] = None
    recorder: Optional[SpanRecorder] = None
    try:
        if psi_config is not None:
            tracker = PsiTracker(engine, psi_config)
            for cg in cgroups:
                tracker.add_group(cg, record_intervals=True)
            tracker.attach(system)
            engine.spawn(
                tracker.run_sampler(), name="psi-sampler", daemon=True
            )
        if spans_config is not None:
            recorder = SpanRecorder(engine, spans_config)
            recorder.attach(system)
            if spans_config.profile_interval_ns > 0:
                engine.spawn(
                    recorder.run_profiler(), name="spans-profiler",
                    daemon=True,
                )
        system.start()
        runtime_ns = engine.run()
    finally:
        # Subscribers are process-global; detach even on error paths
        # so a failed trial cannot leak them into the next one.
        if tracker is not None:
            tracker.detach()
        if recorder is not None:
            recorder.detach()
        system.address_space.page_table.release_flat()
    audit_usage(system)  # ledger invariant: sum(usage) == frames used
    if tracker is not None:
        tracker.finalize(runtime_ns)
    span_table = None
    if recorder is not None:
        span_table = recorder.finalize(runtime_ns)

    stats = system.stats
    tenants = []
    for i, cg in enumerate(cgroups):
        state = states[i]
        entry = {
            "tenant": i,
            "shape": config.shape_index(i),
            "requests": state.requests_done,
            "footprint_pages": footprints[i],
            "usage_pages": cg.usage_pages,
            "limit_pages": cg.limit_pages,
            "fault_hist": state.fault_hist._to_obj(),
            "request_hist": state.request_hist._to_obj(),
            "slo_violations": state.slo_violations,
            "major_faults": state.major_faults,
            "minor_faults": state.minor_faults,
            "memcg": cg.stats.snapshot(),
        }
        if span_table is not None:
            # The tenant's exact critical-path decomposition: segment
            # sums over *all* of its faults.  ``total_ns`` equals the
            # tenant's measured fault-latency sum exactly (the root
            # span brackets the same ``handle_fault`` call the tenant
            # thread times) — the identity the spans tests pin.
            entry["spans"] = {
                "faults": span_table.group_faults.get(cg.name, 0),
                "total_ns": span_table.group_total_ns.get(cg.name, 0),
                "seg_ns": dict(
                    sorted(span_table.group_ns.get(cg.name, {}).items())
                ),
            }
        if tracker is not None:
            group = tracker.group_for(cg)
            assert group is not None
            # Both interval lists are sorted and disjoint by
            # construction, so the overlap is exact.  Tenant groups
            # track a single thread (full == some), so the some-side
            # stall intervals *are* the full-stall windows.
            viol_ivs = state.viol_intervals
            viol_ns = sum(e - s for s, e in viol_ivs)
            entry["psi"] = {
                "pressure": group.snapshot(),
                "stall_ns": int(group.some_total_ns),
                "viol_ns": int(viol_ns),
                "viol_stall_ns": int(
                    interval_overlap_ns(viol_ivs, group.stall_intervals)
                ),
            }
        tenants.append(entry)
    row: Dict[str, Any] = {
        "kind": "trial",
        "format": ROW_FORMAT,
        "policy": policy_name,
        "seed": seed,
        "runtime_ns": int(runtime_ns),
        "slo_ns": config.slo_ns,
        "capacity_frames": capacity,
        "total_footprint_pages": total_footprint,
        "totals": {
            "major_faults": int(stats.major_faults),
            "minor_faults": int(stats.minor_faults),
            "evictions": int(stats.evictions),
            "swap_reads": int(system.swap_device.stats.reads),
            "swap_writes": int(system.swap_device.stats.writes),
        },
        "tenants": tenants,
    }
    if span_table is not None:
        # Full table dump: mergeable across rows/policies with
        # ``SpanTable.from_obj(...).merge(...)``; JSON-safe for the
        # sink.  Retained-record volume is bounded by ``max_spans``
        # and the ``REPRO_SPANS_SAMPLE`` head sampling.
        row["spans"] = span_table.to_obj()
    if tracker is not None:
        row["psi"] = {
            "system": tracker.system.snapshot(),
            "samples": [
                [int(t), int(s), int(f), round(a10, 6), round(b10, 6)]
                for t, s, f, a10, b10 in tracker.samples
            ],
            # Steal matrix as sorted (requester, victim, pages) triples:
            # order-independent to aggregate, deterministic to render.
            "steals": [
                [r, v, pages]
                for (r, v), pages in sorted(tracker.steals.items())
            ],
        }
    return row


# ----------------------------------------------------------------------
# Solo-memcg trial (the equivalence harness)
# ----------------------------------------------------------------------

def run_memcg_trial(
    workload_name: str, system_config: SystemConfig, seed: int
):
    """``run_trial`` with the whole workload inside one unlimited memcg.

    The memcg layer's zero-cost contract says this is bit-identical to
    the plain trial: a single unlimited cgroup delegates reclaim
    verbatim, scopes no RNG streams, and keeps the global MG-LRU walk.
    The equivalence test asserts exactly that.
    """
    from repro.core.results import TrialResult
    from repro.workloads import make_workload

    engine = Engine()
    rng = RngTree(seed)
    workload = make_workload(workload_name)
    dataset_rng = RngTree(DATASET_SEED).subtree("dataset", workload_name)
    footprint = workload.prepare(dataset_rng)
    capacity = max(64, int(footprint * system_config.capacity_ratio))
    inner = make_policy(system_config.policy)
    cg = MemCgroup(name="solo", policy=inner)
    root = MemcgPolicy([cg])
    if system_config.swap == "ssd":
        device = SSDSwapDevice(
            engine, rng.stream("ssd"), system_config.ssd_costs
        )
    else:
        device = ZRAMSwapDevice(
            rng.stream("zram"), system_config.zram_costs
        )
    system = MemorySystem(
        engine,
        rng,
        root,
        device,
        capacity_frames=capacity,
        n_cpus=system_config.n_cpus,
        costs=system_config.costs,
    )
    workload.setup(system)
    cg.adopt(system.address_space)
    system.start()
    workload.spawn(system)
    try:
        runtime_ns = engine.run()
    finally:
        system.address_space.page_table.release_flat()
    audit_usage(system)
    stats = system.stats
    stats.rmap_walks = system.rmap.walk_count
    wl_result = workload.result()
    counters = stats.snapshot()
    counters["swap_reads"] = system.swap_device.stats.reads
    counters["swap_writes"] = system.swap_device.stats.writes
    counters["cpu_utilization"] = system.cpu.utilization()
    return TrialResult(
        workload=workload_name,
        policy=system_config.policy,
        swap=system_config.swap,
        capacity_ratio=system_config.capacity_ratio,
        seed=seed,
        runtime_ns=runtime_ns,
        major_faults=stats.major_faults,
        minor_faults=stats.minor_faults,
        counters=counters,
        metrics=wl_result.metrics,
        latencies_ns=wl_result.latencies_ns,
        footprint_pages=footprint,
        capacity_frames=capacity,
    )
