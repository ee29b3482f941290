"""The observer attach point: one event table, one slot per event.

The simulator emits each observable event once, where it happens,
through a process-global slot named after the event.  A slot is
``None`` while nothing subscribes, so a disabled event costs one
attribute load and an ``is not None`` test::

    from repro import observe
    ...
    if (hook := observe.swap_io) is not None:
        hook(page, latency_ns, 0)

The observability planes — trace, metrics, PSI and spans — subscribe
handlers from outside the kernel code and derive their own state from
the payloads; several handlers on one event run in attach order.

**Subscriber contract.**  Passive: a handler records into its own
state and never mutates simulator state, draws random numbers or
raises (a plane's sampler daemons only ``Sleep``).  Subscribers attach
before a trial's engine runs and detach when the trial ends, also when
it fails; one trial is observed per process at a time.  End events of
brackets are never emitted from a ``finally``, so a generator the
garbage collector closes after its trial cannot reach the subscribers
of a later one.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError

#: Every event with its payload labels, in emission-site order.
EVENTS: Dict[str, Tuple[str, ...]] = {
    # -- fault path ------------------------------------------------------
    # handle_fault entry and exit, including blocked-behind-inflight
    # waits and the retry recursion.
    "fault_begin": ("page",),
    "fault_end": ("page",),
    # The claiming thread mapped the page; latency from its claim.
    "fault_done": ("page", "latency_ns", "major", "write"),
    # A major fault found the shadow its page's eviction left behind.
    "refault": ("page", "inter_refault_ns"),
    # A thread enters / leaves a wait or work bracket of one kind:
    # the spans segment kinds, plus ``alloc_stall`` (the allocation
    # stall around direct reclaim) and ``memcg_charge`` (charge-time
    # cgroup reclaim).
    "stall_begin": ("kind", "memcg", "page"),
    "stall_end": ("kind", "memcg", "page"),
    # -- reclaim ---------------------------------------------------------
    "reclaim_run": ("reclaimed", "latency_ns", "retries"),
    "reclaim_steal": ("requester_index", "victim_index", "pages"),
    # ``young`` is None for policies that never read the accessed bit.
    "reclaim_scan": ("pages", "young", "list_id"),
    "rmap_walk": ("costs_ns",),
    "evict_block": ("pages",),
    "evict_done": ("pages", "latency_ns", "wrote_back"),
    "frames_changed": ("allocator", "n_free"),
    "pte_flat_rebuild": ("n_pages", "n_runs"),
    # -- swap ------------------------------------------------------------
    # A device accepted an I/O (or a batch): its exact split of the
    # caller's coming wait.  The completions follow.
    "swap_io_issue": ("queue_ns", "service_ns"),
    "swap_io": ("page", "latency_ns", "is_write"),
    "swap_io_batch": ("pages", "latencies_ns"),
    "swap_slots": ("slots_used", "n_slots"),
    # -- MG-LRU ----------------------------------------------------------
    "gen_step": ("min_seq", "max_seq", "created"),
    "aging_walk": ("max_seq", "latency_ns", "regions_scanned"),
    "tier_promote": ("page",),
    # -- CPU, engine, threads --------------------------------------------
    "cpu_dispatch": ("thread", "n_runnable"),
    "cpu_done": ("threads", "n_runnable"),
    "engine_events": ("n_imm", "n_heap"),
    "thread_done": ("thread",),
    # -- fleet serving lane ----------------------------------------------
    "fleet_batch": ("n_requests", "n_residue"),
    # -- PSI plane outputs -----------------------------------------------
    "psi_sample": ("group", "some_avg10_pct_x100", "full_avg10_pct_x100"),
    "psi_trigger": ("group", "is_full", "stall_us"),
    # A reader passes a list; an attached PSI tracker appends itself.
    "psi_read": ("out",),
}

Handler = Callable[..., None]

#: Attached handlers per event, in attach order.
_handlers: Dict[str, List[Handler]] = {name: [] for name in EVENTS}

# One module-level slot per event, None while nothing subscribes
# (assigned from the table so it stays the single source of truth).
for _name in EVENTS:
    globals()[_name] = None
del _name


class _Multicast:
    """Call every handler of one event, in attach order."""

    __slots__ = ("handlers",)

    def __init__(self, handlers: List[Handler]) -> None:
        self.handlers = tuple(handlers)

    def __call__(self, *args) -> None:
        for handler in self.handlers:
            handler(*args)


def _check(event: str) -> None:
    if event not in EVENTS:
        raise ConfigError(
            f"unknown observer event {event!r}; known: {', '.join(EVENTS)}"
        )


def _refresh(event: str) -> None:
    handlers = _handlers[event]
    slot: Optional[Handler]
    if not handlers:
        slot = None
    elif len(handlers) == 1:
        slot = handlers[0]
    else:
        slot = _Multicast(handlers)
    globals()[event] = slot


def attach(event: str, handler: Handler) -> None:
    """Subscribe *handler* to *event* (enables the emission site)."""
    _check(event)
    _handlers[event].append(handler)
    _refresh(event)


def detach(event: str, handler: Handler) -> None:
    """Unsubscribe one handler (no-op if it is not attached)."""
    _check(event)
    try:
        _handlers[event].remove(handler)
    except ValueError:
        return
    _refresh(event)


def detach_all() -> None:
    """Unsubscribe every handler from every event (test teardown)."""
    for event in EVENTS:
        _handlers[event].clear()
        globals()[event] = None


def active() -> Tuple[str, ...]:
    """Names of the events that have at least one subscriber."""
    return tuple(event for event in EVENTS if _handlers[event])


class Subscription:
    """One plane's ``(event, handler)`` pairs, attached and detached
    together; both directions are idempotent."""

    def __init__(self, handlers: Iterable[Tuple[str, Handler]]) -> None:
        self.handlers = list(handlers)
        for event, _ in self.handlers:
            _check(event)  # up front, so attach() never half-attaches
        self.attached = False

    def attach(self) -> None:
        if self.attached:
            return
        for event, handler in self.handlers:
            attach(event, handler)
        self.attached = True

    def detach(self) -> None:
        if not self.attached:
            return
        for event, handler in self.handlers:
            detach(event, handler)
        self.attached = False
