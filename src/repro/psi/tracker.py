"""Kernel-style Pressure Stall Information (PSI) in simulated time.

Mirrors ``kernel/sched/psi.c`` semantics on top of the event engine:

* A task is **memstalled** while it waits on memory — swapping a page
  in, running (or waiting behind) direct reclaim, doing charge-time
  cgroup reclaim, or blocked on another thread's in-flight major
  fault.  Those are the :data:`MEMSTALL_KINDS` of the observer bus's
  ``stall_begin``/``stall_end`` brackets, plus ``inflight_wait`` on a
  page with a swap copy.
* **some** time accrues while at least one tracked task is memstalled.
* **full** time accrues while at least one task is memstalled and *no
  non-stalled task is running* — the kernel's ``NR_MEMSTALL_RUNNING``
  rule: CPU burnt by reclaim itself is unproductive, so a machine
  whose only running work is reclaim is fully stalled.  ``kswapd``
  background reclaim is deliberately *not* a memstall (kernel
  semantics: it keeps the system in *some*, never drags it to *full*
  on its own, and its CPU time counts as productive).
* Per-cgroup groups track their single tenant server thread, so for
  tenant groups ``full == some`` (single-task cgroup semantics, same
  as a one-task cgroup on Linux).

Averages use the kernel's ``calc_load``-style EWMA in float form::

    avg = avg * d + pct * (1 - d),   d = exp(-period_s / window_s)

updated once per sampler period (the kernel uses fixed-point ``exp``
constants at a 2 s cadence; we use the closed form at the configured
cadence so the math is exact for tests to pin).

Workingset counters follow ``mm/workingset.c``: every shadow-bearing
refault bumps ``workingset_refault``; if the page's eviction distance
(in group-local evictions, the ``nonresident_age`` analog) is within
the group's resident size — or the page carried the workingset flag —
it also counts ``workingset_activate`` and re-sets the flag; refaults
of flagged pages additionally count ``workingset_restore``.

The tracker is an observer-bus subscriber (:mod:`repro.observe`) and
keeps its contract: no simulation state is read-modified, no RNG is
touched, no events are scheduled except the sampler daemon's own
``Sleep`` loop (which, like the vmstat sampler, is provably
order-neutral).  The one write outside the tracker is the per-thread
``in_memstall`` depth, which only the tracker reads.  PSI-off is the
absence of this subscriber, so disabled runs stay bit-identical.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro import observe
from repro.psi.config import PsiConfig
from repro.sim.events import Sleep

#: Bracket kinds that are memstalls (kernel ``psi_memstall_enter``
#: sites): the swap-in device wait, the allocation stall around direct
#: reclaim, and charge-time cgroup reclaim.  A blocked-behind-inflight
#: wait is one too when the page has a swap copy (a thrashing wait).
MEMSTALL_KINDS = frozenset({"swap_read", "alloc_stall", "memcg_charge"})


class PsiGroup:
    """One pressure-accounting domain: the system, or one cgroup."""

    __slots__ = (
        "name",
        "gid",
        "cg",
        "record_intervals",
        "nr_stalled",
        "nr_productive",
        "last_time",
        "some_total_ns",
        "full_total_ns",
        "avg_some",
        "avg_full",
        "_last_some_ns",
        "_last_full_ns",
        "nonresident_age",
        "ws_refault",
        "ws_activate",
        "ws_restore",
        "stall_intervals",
        "_stall_start",
    )

    def __init__(self, name: str, gid: int, cg=None,
                 record_intervals: bool = False) -> None:
        self.name = name
        #: Numeric id used as the ``psi_sample`` tracepoint payload:
        #: 0 is the system group, tenants are ``1 + cgroup.index``.
        self.gid = gid
        self.cg = cg
        self.record_intervals = record_intervals
        self.nr_stalled = 0
        self.nr_productive = 0
        self.last_time = 0
        self.some_total_ns = 0
        self.full_total_ns = 0
        self.avg_some = [0.0, 0.0, 0.0]
        self.avg_full = [0.0, 0.0, 0.0]
        self._last_some_ns = 0
        self._last_full_ns = 0
        self.nonresident_age = 0
        self.ws_refault = 0
        self.ws_activate = 0
        self.ws_restore = 0
        #: Coalesced ``[start_ns, end_ns]`` stall intervals, recorded
        #: only when ``record_intervals`` (fleet attribution wants
        #: them; the system group would accumulate too many).
        self.stall_intervals: List[List[int]] = []
        self._stall_start = 0

    def _accrue(self, now: int) -> None:
        """Fold the time since ``last_time`` into the stall totals
        under the *current* (pre-transition) state.  Callers mutate
        ``nr_stalled``/``nr_productive`` only after accruing."""
        dt = now - self.last_time
        if dt > 0:
            self.last_time = now
            if self.nr_stalled > 0:
                self.some_total_ns += dt
                if self.nr_productive == 0:
                    self.full_total_ns += dt

    def update_averages(self, period_ns: int,
                        decays: Tuple[float, ...]) -> Tuple[int, int]:
        """One EWMA step over the elapsed period; returns the period's
        (some, full) stall deltas in ns for trigger evaluation."""
        d_some = self.some_total_ns - self._last_some_ns
        d_full = self.full_total_ns - self._last_full_ns
        self._last_some_ns = self.some_total_ns
        self._last_full_ns = self.full_total_ns
        pct_some = 100.0 * d_some / period_ns
        pct_full = 100.0 * d_full / period_ns
        avg_some = self.avg_some
        avg_full = self.avg_full
        for i, d in enumerate(decays):
            avg_some[i] = avg_some[i] * d + pct_some * (1.0 - d)
            avg_full[i] = avg_full[i] * d + pct_full * (1.0 - d)
        return d_some, d_full

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe ``/proc/pressure/memory``-shaped summary."""
        return {
            "some_total_us": self.some_total_ns // 1000,
            "full_total_us": self.full_total_ns // 1000,
            "some_avg10": round(self.avg_some[0], 4),
            "some_avg60": round(self.avg_some[1], 4),
            "some_avg300": round(self.avg_some[2], 4),
            "full_avg10": round(self.avg_full[0], 4),
            "full_avg60": round(self.avg_full[1], 4),
            "full_avg300": round(self.avg_full[2], 4),
            "workingset_refault": self.ws_refault,
            "workingset_activate": self.ws_activate,
            "workingset_restore": self.ws_restore,
        }


class PsiTracker:
    """Per-system PSI state: one system group plus one group per
    registered cgroup, CPU-productivity tracking, workingset shadow
    records, and the reclaim steal matrix.

    :meth:`attach` must run before the engine does (it assumes no CPU
    jobs are in flight when it starts counting productive tasks).
    """

    def __init__(self, engine, config: Optional[PsiConfig] = None) -> None:
        self.engine = engine
        self.config = config if config is not None else PsiConfig()
        self.system = PsiGroup("system", 0)
        self.groups: List[PsiGroup] = []
        self._by_cg: Dict[int, PsiGroup] = {}
        #: (requester_index, victim_index) -> pages reclaimed from the
        #: victim on the requester's behalf (global-reclaim steal).
        self.steals: Dict[Tuple[int, int], int] = {}
        #: vpn -> (group, nonresident_age at eviction, had ws flag);
        #: the tracker's own shadow records, parallel to (and
        #: independent of) policy shadow entries in the swap cache.
        self._ws_shadow: Dict[int, Tuple[PsiGroup, int, bool]] = {}
        #: vpns whose resident page carries the workingset flag
        #: (``PG_workingset`` analog, set on activation).
        self._ws_flag: set = set()
        self._memory_system = None
        #: Per-tick system series: (t_ns, some_total_ns, full_total_ns,
        #: some_avg10, full_avg10) — what the psi-smoke invariants and
        #: the fleet row's ``psi.samples`` read.
        self.samples: List[Tuple[int, int, int, float, float]] = []
        self.n_samples = 0
        #: Threads inside a thrashing inflight wait (a memstall).
        self._thrashing: set = set()
        self._subscription = observe.Subscription([
            ("stall_begin", self._on_stall_begin),
            ("stall_end", self._on_stall_end),
            ("cpu_dispatch", self.cpu_begin),
            ("cpu_done", self.cpu_end),
            ("evict_done", self._on_evict_done),
            ("refault", lambda page, inter_ns: self.note_refault(page)),
            ("reclaim_steal", self.note_steal),
            ("psi_read", lambda out: out.append(self)),
        ])

    # -- wiring ----------------------------------------------------------

    def add_group(self, cg, record_intervals: bool = False) -> PsiGroup:
        """Register a cgroup as a pressure domain; idempotent per cg."""
        group = self._by_cg.get(id(cg))
        if group is not None:
            return group
        group = PsiGroup(cg.name, 1 + cg.index, cg=cg,
                         record_intervals=record_intervals)
        self.groups.append(group)
        self._by_cg[id(cg)] = group
        return group

    def attach(self, system) -> None:
        """Subscribe to the observer bus for *system*'s trial, before
        the engine runs."""
        self._memory_system = system
        now = self.engine._now
        self.system.last_time = now
        for group in self.groups:
            group.last_time = now
        self._subscription.attach()

    def detach(self) -> None:
        """Unsubscribe (idempotent; trial teardown)."""
        self._subscription.detach()

    # -- bus handlers -----------------------------------------------------

    def _on_stall_begin(self, kind, cg, page) -> None:
        if kind in MEMSTALL_KINDS:
            self.stall_begin(cg)
        elif kind == "inflight_wait" and page.swap_slot is not None:
            # Thrashing wait (kernel folio_wait_bit memstall): the page
            # is mid-swap-in on another thread's fault.  A minor-fault
            # wait (no swap copy) is not a memstall.
            self._thrashing.add(self.engine.current_thread)
            self.stall_begin(cg)

    def _on_stall_end(self, kind, cg, page) -> None:
        if kind in MEMSTALL_KINDS:
            self.stall_end(cg)
        elif kind == "inflight_wait":
            thread = self.engine.current_thread
            if thread in self._thrashing:
                self._thrashing.discard(thread)
                self.stall_end(cg)

    def _on_evict_done(self, pages, latency_ns, wrote_back) -> None:
        # Workingset shadow stamps at the instant the policy stores its
        # shadows (kernel workingset_eviction).
        for page in pages:
            self.note_eviction(page)

    # -- stall accounting -------------------------------------------------

    def stall_begin(self, cg) -> None:
        """Current thread enters a memory stall.  Reentrant per thread
        (``in_memstall`` is a depth counter), though the instrumented
        sites are sequential and never actually nest."""
        engine = self.engine
        now = engine._now
        thread = engine.current_thread
        thread.in_memstall += 1
        if thread.in_memstall == 1:
            sg = self.system
            sg._accrue(now)
            sg.nr_stalled += 1
        if cg is not None:
            group = self._by_cg.get(id(cg))
            if group is not None:
                group._accrue(now)
                if group.nr_stalled == 0 and group.record_intervals:
                    group._stall_start = now
                group.nr_stalled += 1

    def stall_end(self, cg) -> None:
        engine = self.engine
        now = engine._now
        thread = engine.current_thread
        thread.in_memstall -= 1
        if thread.in_memstall == 0:
            sg = self.system
            sg._accrue(now)
            sg.nr_stalled -= 1
        if cg is not None:
            group = self._by_cg.get(id(cg))
            if group is not None:
                group._accrue(now)
                group.nr_stalled -= 1
                if group.nr_stalled == 0 and group.record_intervals:
                    intervals = group.stall_intervals
                    start = group._stall_start
                    # Stall segments within one fault are contiguous
                    # (zero-duration gaps), so extending the last
                    # interval keeps the list coalesced without a
                    # per-request merge pass.
                    if intervals and start <= intervals[-1][1]:
                        if now > intervals[-1][1]:
                            intervals[-1][1] = now
                    elif now > start:
                        intervals.append([start, now])

    # -- CPU productivity -------------------------------------------------

    def cpu_begin(self, thread, n_runnable: int = 0) -> None:
        """*thread* submitted a CPU job (the ``cpu_dispatch`` event).
        Jobs of memstalled threads are unproductive (kernel
        ``NR_MEMSTALL_RUNNING``); everything else keeps the system out
        of *full*.  ``in_memstall`` cannot change while the job is in
        flight: the thread's generator is suspended at its Compute.
        Accrue only when a stall is live — folding an unstalled gap
        adds nothing, and the next ``stall_begin`` accrues before
        flipping the state."""
        if thread.in_memstall:
            return
        sg = self.system
        if sg.nr_stalled > 0:
            sg._accrue(self.engine._now)
        sg.nr_productive += 1

    def cpu_end(self, threads, n_runnable: int = 0) -> None:
        """CPU jobs of *threads* completed (the ``cpu_done`` event,
        emitted before any of them resumes)."""
        sg = self.system
        for thread in threads:
            if thread.in_memstall:
                continue
            if sg.nr_stalled > 0:
                sg._accrue(self.engine._now)
            sg.nr_productive -= 1

    # -- workingset -------------------------------------------------------

    def note_eviction(self, page) -> None:
        """A page lost its frame with a policy shadow left behind.
        Stamps the tracker's own shadow record with the owning group's
        eviction clock (``nonresident_age``) and the workingset flag."""
        cg = page.memcg
        group = self._by_cg.get(id(cg)) if cg is not None else None
        if group is None:
            group = self.system
        group.nonresident_age += 1
        vpn = page.vpn
        flagged = vpn in self._ws_flag
        if flagged:
            self._ws_flag.discard(vpn)
        self._ws_shadow[vpn] = (group, group.nonresident_age, flagged)

    def note_refault(self, page) -> None:
        """A previously evicted page faulted back in."""
        record = self._ws_shadow.pop(page.vpn, None)
        if record is None:
            return
        group, age, was_workingset = record
        sg = self.system
        group.ws_refault += 1
        if group is not sg:
            sg.ws_refault += 1
        distance = group.nonresident_age - age
        if was_workingset or distance <= self._workingset_size(group):
            self._ws_flag.add(page.vpn)
            group.ws_activate += 1
            if group is not sg:
                sg.ws_activate += 1
            if was_workingset:
                group.ws_restore += 1
                if group is not sg:
                    sg.ws_restore += 1

    def _workingset_size(self, group: PsiGroup) -> int:
        """Resident pages charged to the group — the ``lruvec`` size
        analog a refault distance is compared against."""
        if group.cg is not None:
            return group.cg.usage_pages
        system = self._memory_system
        return system.frames.n_used if system is not None else 0

    # -- reclaim steal attribution (global reclaim in memcg/policy.py) ----

    def note_steal(self, requester_index: int, victim_index: int,
                   pages: int) -> None:
        key = (requester_index, victim_index)
        self.steals[key] = self.steals.get(key, 0) + pages

    def instigators_for(self, victim_index: int) -> Dict[int, int]:
        """requester_index -> pages stolen *from* this victim."""
        return {
            requester: pages
            for (requester, victim), pages in sorted(self.steals.items())
            if victim == victim_index and requester != victim_index
        }

    # -- sampling ---------------------------------------------------------

    def decays(self) -> Tuple[float, ...]:
        period_s = self.config.sample_interval_ns / 1e9
        return tuple(
            math.exp(-period_s / window)
            for window in self.config.avg_windows_s
        )

    def run_sampler(self):
        """Daemon generator: the PSI analog of the vmstat sampler.
        Pure ``Sleep`` + reads, so it is order-neutral and keeps
        PSI-on simulation results identical to PSI-off."""
        interval = self.config.sample_interval_ns
        decays = self.decays()
        engine = self.engine
        while self.n_samples < self.config.max_samples:
            yield Sleep(interval)
            self.sample(engine._now, interval, decays)

    def sample(self, now: int, period_ns: int,
               decays: Tuple[float, ...]) -> None:
        """One EWMA tick over every group, emitting ``psi_sample`` (and
        armed ``psi_trigger``) bus events when something subscribes."""
        self.n_samples += 1
        sg = self.system
        sg._accrue(now)
        d_some, d_full = sg.update_averages(period_ns, decays)
        self.samples.append((
            now, sg.some_total_ns, sg.full_total_ns,
            sg.avg_some[0], sg.avg_full[0],
        ))
        self._emit(sg, d_some, d_full)
        for group in self.groups:
            group._accrue(now)
            d_some, d_full = group.update_averages(period_ns, decays)
            self._emit(group, d_some, d_full)

    def _emit(self, group: PsiGroup, d_some: int, d_full: int) -> None:
        if (hook := observe.psi_sample) is not None:
            hook(
                group.gid,
                int(group.avg_some[0] * 100.0),
                int(group.avg_full[0] * 100.0),
            )
        if (hook := observe.psi_trigger) is not None:
            trig_some = self.config.trigger_some_us
            trig_full = self.config.trigger_full_us
            if trig_some is not None and d_some // 1000 >= trig_some:
                hook(group.gid, 0, d_some // 1000)
            if trig_full is not None and d_full // 1000 >= trig_full:
                hook(group.gid, 1, d_full // 1000)

    def finalize(self, now: int) -> None:
        """Fold stall time through trial end into every group."""
        self.system._accrue(now)
        for group in self.groups:
            group._accrue(now)

    # -- read-side snapshots ----------------------------------------------

    def system_totals(self) -> Tuple[int, int, int, int, int]:
        """Live system-group totals for the vmstat column set:
        (some_ns, full_ns, ws_refault, ws_activate, ws_restore)."""
        sg = self.system
        sg._accrue(self.engine._now)
        return (
            sg.some_total_ns,
            sg.full_total_ns,
            sg.ws_refault,
            sg.ws_activate,
            sg.ws_restore,
        )

    def group_for(self, cg) -> Optional[PsiGroup]:
        return self._by_cg.get(id(cg))


def merge_intervals(intervals: List[List[int]]) -> List[List[int]]:
    """Sort raw ``[start, end]`` pairs and coalesce overlaps."""
    merged: List[List[int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return merged


def interval_overlap_ns(a: List[List[int]], b: List[List[int]]) -> int:
    """Total overlap between two sorted, disjoint interval lists."""
    total = 0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = a[i][0] if a[i][0] > b[j][0] else b[j][0]
        hi = a[i][1] if a[i][1] < b[j][1] else b[j][1]
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total
