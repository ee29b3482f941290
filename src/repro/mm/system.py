"""The memory system: faults, reclaim contexts, and eviction mechanics.

:class:`MemorySystem` wires together one CPU, a frame allocator, an
address space, the reverse map, swap-slot bookkeeping, a swap device,
and a replacement policy, and provides the generator application
threads drive: :meth:`access_run`, the batched hot path that touches a
sequence of VPNs, accumulating compute and faulting as needed.  Scalar
request paths (YCSB, the fleet) look pages up themselves and call
:meth:`handle_fault` on a miss.

It also owns the kswapd background-reclaim daemon and the eviction
mechanics (:meth:`evict_page`) that policies call from their reclaim
generators.

Swap-cache semantics: a page swapped in *keeps* its slot, so a clean
page can later be dropped without device I/O; dirtying a resident page
invalidates the copy (the slot is released lazily at the next
eviction).  This asymmetry — reads can be free, writes never are — is
what the paper's read/write tail-latency splits come from.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Sequence

import numpy as np

from repro import observe
from repro._units import US
from repro.errors import ConfigError, OutOfMemoryError, SimulationError
from repro.mm.address_space import AddressSpace
from repro.mm.costs import CostModel
from repro.mm.frame_allocator import FrameAllocator
from repro.mm.page import Page
from repro.mm.rmap import ReverseMap
from repro.mm.stats import MMStats
from repro.mm.swap_cache import ShadowEntry, SwapSpace
from repro.policies.base import ReplacementPolicy
from repro.sim.cpu import CPU
from repro.sim.engine import Engine
from repro.sim.events import Compute, OneShotEvent, Sleep, WaitEvent, Waker, WaitWaker
from repro.sim.rng import RngTree
from repro.swapdev.base import SwapDevice

#: Pages per reclaim batch (kernel SWAP_CLUSTER_MAX).
#: Sentinel distinguishing "no fault in flight" from an in-flight fault
#: whose completion event has not been demanded yet (dict value None).
_NOT_FAULTING = object()

RECLAIM_BATCH = 32
#: Direct-reclaim retries before declaring OOM.
MAX_DIRECT_RECLAIM_RETRIES = 64


class MemorySystem:
    """One simulated machine: CPU + memory + swap + policy."""

    def __init__(
        self,
        engine: Engine,
        rng: RngTree,
        policy: ReplacementPolicy,
        swap_device: SwapDevice,
        capacity_frames: int,
        n_cpus: int = 12,
        costs: CostModel = CostModel(),
        swap_slots: Optional[int] = None,
        compute_quantum_ns: int = 64 * US,
    ) -> None:
        if capacity_frames < 16:
            raise ConfigError("need at least 16 frames of capacity")
        self.engine = engine
        self.rng = rng
        self.costs = costs
        self.cpu = CPU(engine, n_cpus)
        self.frames = FrameAllocator(capacity_frames)
        self.address_space = AddressSpace(aslr_rng=rng.stream("aslr"))
        self.rmap = ReverseMap(
            rng.stream("rmap"),
            walk_base_ns=costs.rmap_walk_base_ns,
            walk_jitter_ns=costs.rmap_walk_jitter_ns,
        )
        self.swap = SwapSpace(
            n_slots=swap_slots if swap_slots is not None else capacity_frames * 8
        )
        self.swap_device = swap_device
        self.policy = policy
        self.stats = MMStats()
        self.compute_quantum_ns = compute_quantum_ns

        self._kswapd_waker = Waker("kswapd")
        self._inflight_faults: Dict[Page, OneShotEvent] = {}
        #: Pages currently inside a batched swap-out (detached from the
        #: policy lists, frames not yet freed).  A reclaimer that finds
        #: nothing to scan waits for the next batch completion instead of
        #: spinning its retry budget: with triage blocks, concurrent
        #: reclaimers can transiently detach every resident page.
        self._evictions_in_flight = 0
        self._eviction_batch_done = OneShotEvent("eviction-batch-done")
        #: Direct reclaim is serialized: one faulting thread walks the
        #: policy lists per round while later arrivals wait for the
        #: round to complete and then retry their allocation (the
        #: kernel's reclaim throttling).  Concurrent walkers add no
        #: reclaim throughput — they interleave over the same lists,
        #: each finding a sliver of the candidates — but each spins up
        #: the full triage machinery per fault.
        self._direct_reclaim_active = False
        self._direct_reclaim_done = OneShotEvent("direct-reclaim-done")
        #: Cgroup whose fault is driving the current (serialized) direct
        #: reclaim round — the steal-attribution anchor the memcg root
        #: policy reads.  None outside direct reclaim and for kswapd.
        self._reclaim_requester = None
        self._started = False

        policy.bind(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn kswapd and policy daemons (call once, before running)."""
        if self._started:
            return
        self._started = True
        kswapd = self.engine.spawn(self._kswapd_loop(), name="kswapd", daemon=True)
        kswapd.cpu = self.cpu
        self.policy.spawn_daemons()

    def spawn_daemon(self, generator: Iterator[Any], name: str):
        """Spawn a policy daemon thread bound to this system's CPU."""
        thread = self.engine.spawn(generator, name=name, daemon=True)
        thread.cpu = self.cpu
        return thread

    def spawn_app_thread(self, generator: Iterator[Any], name: str):
        """Spawn an application (foreground) thread on this CPU."""
        thread = self.engine.spawn(generator, name=name)
        thread.cpu = self.cpu
        return thread

    # ------------------------------------------------------------------
    # Hot path: accesses
    # ------------------------------------------------------------------

    def access_run(
        self,
        vpns: Sequence[int],
        write: bool = False,
        compute_ns_per_access: int = 0,
    ) -> Iterator[Any]:
        """Touch each VPN in order, interleaving compute.

        Present pages cost only accumulated compute (yielded in quanta so
        daemon threads can interleave); a miss flushes pending compute
        and runs the fault path.  This is the simulator's hot loop.

        Presence is tested and accessed/dirty bits are set per
        quantum-sized chunk with numpy operations on the page table's
        flat PTE state.  Non-array input is converted with
        ``np.asarray``; an unmapped VPN raises :class:`SimulationError`
        before any access is made.
        """
        if compute_ns_per_access < 0:
            raise SimulationError(
                f"negative compute per access: {compute_ns_per_access} ns"
            )
        vpns = np.asarray(vpns)
        flat = self.address_space.page_table.flat_view()
        idx = flat.translate(vpns)
        if idx is None:
            lookup = self.address_space.page_table.lookup
            for vpn in vpns.tolist():
                lookup(vpn)  # raises, naming the first unmapped VPN
        return self._access_run(flat, idx, write, compute_ns_per_access)

    def _access_run(
        self,
        flat: Any,
        idx: np.ndarray,
        write: bool,
        c: int,
    ) -> Iterator[Any]:
        """Vectorized access loop over flat PTE indices *idx*.

        Per-access semantics: each access adds ``c`` to pending compute;
        a resident page sets its accessed (and, on writes, dirty) bit and
        flushes pending compute once it reaches the quantum; a miss
        flushes pending compute plus the fault's trap overhead, then
        faults.  Nothing yields between two consecutive accesses unless
        a flush or a fault does (every ``chunk = ceil(quantum/c)`` hits),
        so presence cannot change *within* a chunk; testing presence for
        a whole chunk up-front, batching the bit stores, and emitting one
        ``Compute`` per chunk gives exactly that command stream:

        - a full chunk of hits accrues ``chunk*c >= quantum`` pending and
          flushes at its last access → one ``Compute(chunk*c)``;
        - a miss after ``k`` leading hits flushes ``k*c`` plus the missing
          access's own ``c`` plus the fault's trap overhead → one
          ``Compute((k+1)*c + overhead)``, then the fault;
        - a trace ending mid-chunk leaves ``k*c < quantum`` pending for
          the trailing flush.

        The hit stores go straight to the PTE bits: every policy reads
        them at scan time, as the kernel's policies read the hardware
        accessed bit.
        """
        stats = self.stats
        quantum = self.compute_quantum_ns
        overhead = self.costs.fault_overhead_ns
        handle_fault = self.handle_fault
        present = flat.present
        accessed = flat.accessed
        dirty = flat.dirty
        pages = flat.pages
        n = idx.shape[0]
        chunk = n if c == 0 else -(-quantum // c)  # ceil(quantum / c)
        hits = 0
        pos = 0
        tail_pending = 0
        while pos < n:
            lim = pos + chunk
            if lim > n:
                lim = n
            seg = idx[pos:lim]
            pres = present[seg]
            k = int(pres.argmin())  # first non-resident page, if any
            if pres[k]:
                # Whole segment resident.
                k = lim - pos
                accessed[seg] = True
                if write:
                    dirty[seg] = True
                hits += k
                pos = lim
                if c:
                    if k == chunk:
                        yield Compute(k * c)  # flush at the quantum
                    else:
                        tail_pending = k * c  # trace ended mid-chunk
                continue
            # Miss at seg[k]; the k leading pages are resident hits.
            if k:
                run = seg[:k]
                accessed[run] = True
                if write:
                    dirty[run] = True
                hits += k
                pos += k
            yield Compute(k * c + c + overhead)
            yield from handle_fault(pages[idx[pos]], write, charge_overhead=False)
            pos += 1
        stats.hits += hits
        if tail_pending:
            yield Compute(tail_pending)

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------

    def handle_fault(
        self, page: Page, write: bool, charge_overhead: bool = True
    ) -> Iterator[Any]:
        """Generator: make *page* resident, blocking as needed.

        ``charge_overhead=False`` means the caller already charged the
        trap overhead (the access loops fold it into the Compute that
        flushes pending work at the miss, saving one event per fault).

        ``fault_begin``/``fault_end`` bracket the *entire* call —
        including the blocked-behind-inflight wait and the retry
        recursion — so they span exactly what callers measure around
        this generator (the body runs synchronously to its first yield).
        """
        if (hook := observe.fault_begin) is not None:
            hook(page)
        yield from self._handle_fault(page, write, charge_overhead)
        if (hook := observe.fault_end) is not None:
            hook(page)

    def _handle_fault(
        self, page: Page, write: bool, charge_overhead: bool = True
    ) -> Iterator[Any]:
        if page.present:
            # The caller observed a miss, but another thread completed
            # the fault before we got here (the kernel's re-check of the
            # PTE under the page-table lock).
            page.accessed = True
            if write:
                page.dirty = True
            return
        inflight = self._inflight_faults.get(page, _NOT_FAULTING)
        if inflight is not _NOT_FAULTING:
            # Another thread is already servicing this fault; wait for it
            # and retry (it may have been evicted again meanwhile).  The
            # completion event is created lazily by the first waiter —
            # the overwhelmingly common uncontended fault never builds
            # one.
            if inflight is None:
                inflight = OneShotEvent("fault")
                self._inflight_faults[page] = inflight
            if (hook := observe.stall_begin) is not None:
                hook("inflight_wait", page.memcg, page)
            yield WaitEvent(inflight)
            if (hook := observe.stall_end) is not None:
                hook("inflight_wait", page.memcg, page)
            if not page.present:
                yield from self.handle_fault(page, write)
                return
            page.accessed = True
            if write:
                page.dirty = True
            return

        self._inflight_faults[page] = None
        engine = self.engine
        t0 = engine._now
        try:
            if charge_overhead:
                yield Compute(self.costs.fault_overhead_ns)
            cg = page.memcg
            if cg is not None and cg.limit_pages is not None:
                # Charge-time local reclaim (the kernel's try_charge
                # loop): an over-limit cgroup reclaims from its own
                # lruvec before taking a frame, so tenant overcommit
                # costs the tenant, not the fleet.
                yield from cg.reclaim_to_limit(self)
            frame = yield from self._alloc_frame(cg)
            major = page.swap_slot is not None
            if major:
                self.stats.major_faults += 1
                # Swap-in device wait (kernel swap_read_folio: a
                # memstall around submit_bio + wait).
                if (hook := observe.stall_begin) is not None:
                    hook("swap_read", cg, page)
                yield from self.swap_device.read(page)
                if (hook := observe.stall_end) is not None:
                    hook("swap_read", cg, page)
                shadow = self.swap.refault(page)
                if shadow is not None:
                    self.stats.refaults += 1
                    page.refault_count += 1
                    if (hook := observe.refault) is not None:
                        hook(page, engine._now - shadow.evict_time_ns)
            else:
                self.stats.minor_faults += 1
                if (hook := observe.stall_begin) is not None:
                    hook("zero_fill", cg, page)
                yield Compute(self.costs.zero_fill_ns)
                if (hook := observe.stall_end) is not None:
                    hook("zero_fill", cg, page)
                shadow = None
            page.present = True
            page.frame = frame
            page.accessed = True
            if write:
                page.dirty = True
            self.rmap.insert(frame, page)
            self.policy.on_page_inserted(page, shadow)
            if (hook := observe.fault_done) is not None:
                hook(page, engine._now - t0, major, write)
        finally:
            done = self._inflight_faults.pop(page)
            if done is not None:
                done.fire()
        if self.frames.below_low():
            self._kswapd_waker.wake()

    def _alloc_frame(self, memcg=None) -> Iterator[Any]:
        """Generator: obtain a free frame, entering direct reclaim when
        the allocator is at or below its min watermark.

        Direct reclaim is serialized: the first thread to hit the
        watermark walks the policy lists; threads that arrive while a
        round is in progress block on its completion and retry the
        allocation against the frames it freed.  One walker frees a
        whole triage block per round — enough for every waiter — so
        piling more walkers onto the same lists only multiplies scan
        machinery, not reclaim throughput.

        ``memcg``: the faulting page's cgroup.  A successful grant
        charges it atomically (``frames.alloc(charge=)``), and while
        this thread owns the serialized reclaim round the cgroup is
        published as ``_reclaim_requester`` so the memcg root policy
        can attribute cross-tenant steals."""
        retries = 0
        stalled = False
        while True:
            if not self.frames.below_min():
                frame = self.frames.alloc(charge=memcg)
                if frame is not None:
                    if stalled and (hook := observe.stall_end) is not None:
                        hook("alloc_stall", memcg, None)
                    return frame
            # Allocation stall begins here (kernel psi_memstall_enter in
            # try_to_free_pages): running direct reclaim *and* waiting
            # behind another thread's round both count.
            if not stalled:
                stalled = True
                if (hook := observe.stall_begin) is not None:
                    hook("alloc_stall", memcg, None)
            if self._direct_reclaim_active:
                if (hook := observe.stall_begin) is not None:
                    hook("reclaim_wait", memcg, None)
                yield WaitEvent(self._direct_reclaim_done)
                if (hook := observe.stall_end) is not None:
                    hook("reclaim_wait", memcg, None)
                continue
            # Direct reclaim: the faulting thread pays for reclaim itself.
            start = self.engine.now
            self._direct_reclaim_active = True
            self._reclaim_requester = memcg
            if (hook := observe.stall_begin) is not None:
                hook("reclaim_run", memcg, None)
            try:
                reclaimed = yield from self.policy.reclaim(
                    RECLAIM_BATCH, direct=True
                )
            finally:
                self._direct_reclaim_active = False
                self._reclaim_requester = None
                done = self._direct_reclaim_done
                self._direct_reclaim_done = OneShotEvent(
                    "direct-reclaim-done"
                )
                done.fire()
            if (hook := observe.stall_end) is not None:
                hook("reclaim_run", memcg, None)
            self.stats.direct_reclaims += reclaimed
            self.stats.direct_reclaim_stall_ns += self.engine.now - start
            if (hook := observe.reclaim_run) is not None:
                hook(reclaimed, self.engine.now - start, retries)
            self._kswapd_waker.wake()
            if reclaimed == 0:
                retries += 1
                if retries >= MAX_DIRECT_RECLAIM_RETRIES:
                    if (hook := observe.stall_end) is not None:
                        hook("alloc_stall", memcg, None)
                    raise OutOfMemoryError(
                        f"direct reclaim made no progress after "
                        f"{retries} retries ({self.frames.n_free} free)"
                    )
                if self._evictions_in_flight:
                    # Other reclaimers have whole triage blocks in
                    # writeback; their frames free at batch completion.
                    # Wait for that instead of a blind backoff (the
                    # kernel's writeback throttling).
                    yield from self.wait_eviction_batch()
                else:
                    # Give kswapd / in-flight writeback a chance.
                    if (hook := observe.stall_begin) is not None:
                        hook("backoff", memcg, None)
                    yield Sleep(100 * US)
                    if (hook := observe.stall_end) is not None:
                        hook("backoff", memcg, None)
            else:
                retries = 0
            frame = self.frames.alloc(charge=memcg)
            if frame is not None:
                if (hook := observe.stall_end) is not None:
                    hook("alloc_stall", memcg, None)
                return frame

    # ------------------------------------------------------------------
    # Eviction mechanics (called from policy reclaim generators)
    # ------------------------------------------------------------------

    def evict_page(self, page: Page) -> Iterator[Any]:
        """Generator: push *page* out to swap.  Returns True on success,
        False if the page was re-accessed during writeback (eviction
        aborted; the caller should reinsert it).

        The caller must have already detached the page from its policy
        lists; on abort the page is still resident and unlisted.  This is
        the single-page form of :meth:`evict_pages` — policies' triage
        blocks use the batched path directly.
        """
        evicted, _aborted = yield from self.evict_pages([page])
        return evicted == 1

    def evict_pages(
        self, pages: Sequence[Page], recheck_accessed: bool = False
    ) -> Iterator[Any]:
        """Generator: push a triage block of pages out to swap.

        Returns ``(n_evicted, aborted)`` where ``aborted`` lists the
        pages that were re-accessed during writeback (still resident and
        unlisted; the caller should reinsert them).

        Batch semantics (the reclaim fast lane): the per-victim
        bookkeeping cost is charged as one ``Compute`` for the whole
        block, clean pages with a valid swap copy are dropped first
        (no I/O), then every dirty/slotless page goes to the device in a
        single batched submission — one completion event, per-page
        service latencies identical to N serial submissions.  The PTE
        bits of every write page are cleared *before* the batch I/O
        starts, so the kernel-style re-check below still catches racing
        accesses to any page of the batch.

        ``recheck_accessed``: scanning policies triage a whole block
        against one accessed-bit snapshot, so a page can be re-touched
        between the snapshot and this call (the block's walk ``Compute``
        and any nearby scans yield in between).  With the flag set, such
        pages are handed back in ``aborted`` instead of evicted — the
        second chance a per-page scan would have given them.  FIFO-style
        policies evict regardless of the accessed bit and leave it off.
        """
        engine = self.engine
        t0 = engine._now
        if (hook := observe.evict_block) is not None:
            hook(pages)
        if (hook := observe.stall_begin) is not None:
            hook("evict_triage", None, None)
        yield Compute(self.costs.reclaim_page_ns * len(pages))
        if (hook := observe.stall_end) is not None:
            hook("evict_triage", None, None)
        evicted = 0
        aborted = []
        drops: list[Page] = []
        writes: list[tuple[Page, bool]] = []
        # Per-page reads and clears straight on the flat PTE arrays:
        # most blocks hold a handful of pages, where numpy fancy
        # indexing costs more than it saves.
        flat = self.address_space.page_table.flat_view()
        accessed = flat.accessed
        dirty = flat.dirty
        for page in pages:
            assert page.present, "evicting a non-resident page"
            i = page._flat_idx
            was_dirty = bool(dirty[i])
            if recheck_accessed and accessed[i]:
                self.stats.extra["aborted_evictions"] = (
                    self.stats.extra.get("aborted_evictions", 0) + 1
                )
                aborted.append(page)
                continue
            if was_dirty or page.swap_slot is None:
                if was_dirty and page.swap_slot is not None:
                    # Resident page was re-dirtied: the old copy is stale.
                    self.swap.release(page)
                    self.swap_device.discard(page)
                writes.append((page, was_dirty))
                # Clear both PTE bits before writeback starts (as the
                # kernel does) so a racing access during the device
                # write is caught by the re-check below.
                accessed[i] = False
                dirty[i] = False
            else:
                # Clean page with a valid swap copy: free drop, no I/O.
                self.swap.set_shadow(page, self.policy.make_shadow(page))
                drops.append(page)
        if drops:
            self._finish_evictions(drops)
            evicted += len(drops)
            if (hook := observe.evict_done) is not None:
                hook(drops, engine._now - t0, 0)
        if writes:
            finished: list[Page] = []
            self._evictions_in_flight += len(writes)
            if (hook := observe.stall_begin) is not None:
                hook("evict_writeback", None, None)
            try:
                yield from self.swap_device.write_batch(
                    [p for p, _ in writes]
                )
            finally:
                self._evictions_in_flight -= len(writes)
                done = self._eviction_batch_done
                self._eviction_batch_done = OneShotEvent(
                    "eviction-batch-done"
                )
                done.fire()
            if (hook := observe.stall_end) is not None:
                hook("evict_writeback", None, None)
            for page, was_dirty in writes:
                if page.accessed or page.dirty:
                    # Touched during writeback: abort the eviction and
                    # drop the now-possibly-stale device copy so state
                    # stays canonical.
                    if page.swap_slot is None:
                        self.swap_device.discard(page)
                    page.accessed = True
                    page.dirty = page.dirty or was_dirty
                    self.stats.extra["aborted_evictions"] = (
                        self.stats.extra.get("aborted_evictions", 0) + 1
                    )
                    aborted.append(page)
                    continue
                if was_dirty:
                    self.stats.dirty_evictions += 1
                if page.swap_slot is None:
                    self.swap.store(page, self.policy.make_shadow(page))
                else:
                    self.swap.set_shadow(page, self.policy.make_shadow(page))
                finished.append(page)
            if finished:
                self._finish_evictions(finished)
                evicted += len(finished)
                if (hook := observe.evict_done) is not None:
                    hook(finished, engine._now - t0, 1)
        return evicted, aborted

    def wait_eviction_batch(self) -> Iterator[Any]:
        """Generator: block until the next in-flight eviction batch
        completes; a no-op when none is in flight.

        Reclaim contexts call this when they find nothing to scan while
        other reclaimers have triage blocks in writeback — the frames
        (or aborted pages) those blocks hold come back at completion, so
        waiting beats both spinning and forcing an aging walk against a
        transiently empty list.
        """
        if self._evictions_in_flight:
            if (hook := observe.stall_begin) is not None:
                hook("evict_wait", None, None)
            yield WaitEvent(self._eviction_batch_done)
            if (hook := observe.stall_end) is not None:
                hook("evict_wait", None, None)

    def _finish_eviction(self, page: Page) -> None:
        """Unmap a victim and return its frame to the allocator (the
        page's cgroup, if any, uncharges atomically with the free)."""
        page.present = False
        frame = page.frame
        page.frame = None
        self.rmap.remove(frame)
        self.frames.free(frame, uncharge=page.memcg)
        self.stats.evictions += 1

    def _finish_evictions(self, pages: Sequence[Page]) -> None:
        """Batched :meth:`_finish_eviction`: per-page unmaps and frame
        frees, then one *grouped* ledger update per distinct cgroup.

        No yield separates the frees from the grouped uncharges, so the
        memcg invariant (sum of usage == frames used) still holds at
        every event boundary — only the per-page coupling of
        ``free(uncharge=...)`` is relaxed inside the batch.  (MemCgroup
        is an eq-bearing dataclass, hence unhashable: the group key is
        ``id(cg)``.)
        """
        frames = self.frames
        rmap = self.rmap
        ledger: dict[int, list] = {}
        for page in pages:
            page.present = False
            frame = page.frame
            page.frame = None
            rmap.remove(frame)
            frames.free(frame)
            cg = page.memcg
            if cg is not None:
                entry = ledger.get(id(cg))
                if entry is None:
                    ledger[id(cg)] = [cg, 1]
                else:
                    entry[1] += 1
        self.stats.evictions += len(pages)
        for cg, n in ledger.values():
            cg.uncharge(n)

    # ------------------------------------------------------------------
    # Background reclaim
    # ------------------------------------------------------------------

    def wake_kswapd(self) -> None:
        """Kick the background reclaim daemon."""
        self._kswapd_waker.wake()

    def _kswapd_loop(self) -> Iterator[Any]:
        while True:
            yield WaitWaker(self._kswapd_waker)
            while self.frames.below_high():
                deficit = self.frames.high_watermark - self.frames.n_free
                batch = max(1, min(RECLAIM_BATCH, deficit))
                reclaimed = yield from self.policy.reclaim(batch, direct=False)
                self.stats.background_reclaims += reclaimed
                if reclaimed == 0:
                    # Nothing reclaimable right now; back off briefly so
                    # we do not spin the simulated CPU.
                    yield Sleep(200 * US)
                    break
