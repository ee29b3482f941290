"""Kernel-style tracepoints: the trace plane's record vocabulary.

Linux exposes its reclaim machinery through *static tracepoints*
(``trace_mm_vmscan_direct_reclaim_begin``, ``trace_mm_vmscan_lru_isolate``
and friends).  The simulator emits its events once, on the observer
bus (:mod:`repro.observe`); this module maps bus events onto the
tracepoint records the trace plane stores, exports and analyzes.

A *probe* is a plain callable taking up to three integer arguments
whose meaning is tracepoint-specific (:data:`TRACEPOINTS` maps each
name to its argument labels).  :func:`handlers` turns a set of probes
into the bus subscriptions that feed them::

    from repro import observe
    from repro.trace import tracepoints

    sub = observe.Subscription(
        tracepoints.handlers({"mm_vmscan_evict": probe})
    )
    sub.attach()

Probes follow the bus subscriber contract: passive, no RNG draws,
never raise — which keeps traced runs bit-identical to untraced ones.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigError

#: Every tracepoint, with the meaning of its (a, b, c) integer payload.
#: The order here fixes the numeric event ids stored in ring buffers.
TRACEPOINTS: Dict[str, Tuple[str, str, str]] = {
    # -- fault path ----------------------------------------------------
    "mm_fault_minor": ("vpn", "latency_ns", "write"),
    "mm_fault_major": ("vpn", "latency_ns", "write"),
    "mm_vmscan_refault": ("vpn", "inter_refault_ns", "refault_count"),
    # -- reclaim -------------------------------------------------------
    "mm_vmscan_scan": ("vpn", "young", "list_id"),
    "mm_vmscan_evict": ("vpn", "latency_ns", "wrote_back"),
    "mm_vmscan_direct_stall": ("reclaimed", "latency_ns", "retry"),
    "mm_watermark": ("level", "free_frames", "capacity"),
    "mm_pte_flat_rebuild": ("n_pages", "n_runs", "unused"),
    # -- swap ----------------------------------------------------------
    "swap_io_done": ("vpn", "latency_ns", "is_write"),
    "swap_slot_state": ("slots_used", "n_slots", "unused"),
    # -- MG-LRU --------------------------------------------------------
    "mglru_age": ("max_seq", "latency_ns", "regions_scanned"),
    "mglru_gen_step": ("min_seq", "max_seq", "unused"),
    "mglru_tier_promote": ("vpn", "tier", "unused"),
    # -- scheduler -----------------------------------------------------
    "sched_runnable": ("n_runnable", "unused", "unused"),
    # -- PSI (appended: EVENT_IDS are order-dependent) -------------------
    "psi_sample": ("group", "some_avg10_pct_x100", "full_avg10_pct_x100"),
    "psi_trigger": ("group", "is_full", "stall_us"),
}

#: Numeric event ids for ring-buffer storage (0 is reserved: empty slot).
EVENT_IDS: Dict[str, int] = {
    name: i + 1 for i, name in enumerate(TRACEPOINTS)
}
#: Reverse map, id → tracepoint name.
EVENT_NAMES: Dict[int, str] = {i: name for name, i in EVENT_IDS.items()}

Probe = Callable[..., None]
Handler = Callable[..., None]


def _fault_done(p: Mapping[str, Probe]) -> Optional[Handler]:
    major = p.get("mm_fault_major")
    minor = p.get("mm_fault_minor")
    if major is None and minor is None:
        return None

    def on_fault_done(page, latency_ns, is_major, write):
        probe = major if is_major else minor
        if probe is not None:
            probe(page.vpn, latency_ns, int(write))

    return on_fault_done


def _reclaim_scan(probe: Probe) -> Handler:
    def on_scan(pages, young, list_id):
        if young is not None:
            for page, y in zip(pages, young):
                probe(page.vpn, int(y), list_id)

    return on_scan


def _evict_done(probe: Probe) -> Handler:
    def on_evict(pages, latency_ns, wrote_back):
        for page in pages:
            probe(page.vpn, latency_ns, wrote_back)

    return on_evict


def _swap_io_batch(probe: Probe) -> Handler:
    def on_swap_batch(pages, latencies_ns):
        for page, latency in zip(pages, latencies_ns):
            probe(page.vpn, latency, 1)

    return on_swap_batch


def _frames_changed(probe: Probe) -> Handler:
    # Emits on watermark-level changes only (0 above low, 1 at/below
    # low, 2 at/below min); a new allocator starts at level 0.
    last = [None, 0]

    def on_frames(allocator, n_free):
        if n_free <= allocator.min_watermark:
            level = 2
        else:
            level = 1 if n_free <= allocator.low_watermark else 0
        if allocator is not last[0]:
            last[0] = allocator
            last[1] = 0
        if level != last[1]:
            last[1] = level
            probe(level, n_free, allocator.capacity)

    return on_frames


def _direct(probe: Probe) -> Handler:
    """Bus payloads that already are the tracepoint's (a, b, c)."""
    return probe


def _runnable(probe: Probe) -> Handler:
    return lambda threads, n_runnable: probe(n_runnable)


#: bus event -> (tracepoint, adapter from its probe to a bus handler).
_SINGLE: List[Tuple[str, str, Callable[[Probe], Handler]]] = [
    ("refault", "mm_vmscan_refault", lambda p: (
        lambda page, inter_ns: p(page.vpn, inter_ns, page.refault_count)
    )),
    ("reclaim_scan", "mm_vmscan_scan", _reclaim_scan),
    ("evict_done", "mm_vmscan_evict", _evict_done),
    ("reclaim_run", "mm_vmscan_direct_stall", _direct),
    ("frames_changed", "mm_watermark", _frames_changed),
    ("pte_flat_rebuild", "mm_pte_flat_rebuild", _direct),
    ("swap_io", "swap_io_done", lambda p: (
        lambda page, latency_ns, is_write: p(page.vpn, latency_ns, is_write)
    )),
    ("swap_io_batch", "swap_io_done", _swap_io_batch),
    ("swap_slots", "swap_slot_state", _direct),
    ("aging_walk", "mglru_age", _direct),
    ("gen_step", "mglru_gen_step", lambda p: (
        lambda min_seq, max_seq, created: p(min_seq, max_seq)
    )),
    ("tier_promote", "mglru_tier_promote", lambda p: (
        lambda page: p(page.vpn, page.tier)
    )),
    ("cpu_dispatch", "sched_runnable", _runnable),
    ("cpu_done", "sched_runnable", _runnable),
    ("psi_sample", "psi_sample", _direct),
    ("psi_trigger", "psi_trigger", _direct),
]


def handlers(probes: Mapping[str, Probe]) -> List[Tuple[str, Handler]]:
    """The ``(bus event, handler)`` pairs that feed *probes*, a map
    from tracepoint name to probe; unknown names raise
    :class:`~repro.errors.ConfigError`."""
    for name in probes:
        if name not in TRACEPOINTS:
            raise ConfigError(
                f"unknown tracepoint {name!r}; known: {', '.join(TRACEPOINTS)}"
            )
    out: List[Tuple[str, Handler]] = []
    on_fault = _fault_done(probes)
    if on_fault is not None:
        out.append(("fault_done", on_fault))
    for event, name, adapt in _SINGLE:
        probe = probes.get(name)
        if probe is not None:
            out.append((event, adapt(probe)))
    return out
