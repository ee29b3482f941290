"""Per-trial trace wiring: probes, ring buffer, vmstat daemon, capture.

A :class:`TraceSession` is created for one trial from a
:class:`~repro.trace.config.TraceConfig` and the trial's
:class:`~repro.mm.system.MemorySystem`.  It

- subscribes one ring-buffer-recording probe per selected tracepoint
  to the observer bus (:meth:`start`), stamping events with the
  engine clock,
- spawns the vmstat sampler as a daemon thread, and
- at teardown (:meth:`finalize`) detaches from the bus and freezes the
  buffers into a picklable :class:`TraceCapture` that travels back from
  ``REPRO_JOBS`` worker processes inside the trial result.

Probes only read the simulated clock and write into preallocated numpy
columns; they never touch simulator state or RNG streams, so a traced
trial is bit-identical to an untraced one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro import observe
from repro.trace import tracepoints
from repro.trace.config import TraceConfig
from repro.trace.ringbuf import TraceRingBuffer
from repro.trace.vmstat import VmStatSampler, VmStatSeries


@dataclass
class TraceCapture:
    """Everything captured for one trial (picklable)."""

    config: TraceConfig
    #: Structured event records (``repro.trace.ringbuf.EVENT_DTYPE``),
    #: oldest → newest; the *newest* window if the ring wrapped.
    events: np.ndarray
    #: Lifetime emitted events (``total_events - len(events)`` dropped).
    total_events: int
    #: Events overwritten by ring wrap-around.
    dropped_events: int
    vmstat: VmStatSeries
    #: Trial identity plus the cost/device constants analyses need
    #: (workload, policy, seed, runtime_ns, pte_scan_ns, ...).
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def n_events(self) -> int:
        """Events retained in the capture."""
        return int(self.events.shape[0])

    def events_named(self, name: str) -> np.ndarray:
        """The subset of records for one tracepoint name."""
        ev_id = tracepoints.EVENT_IDS[name]
        return self.events[self.events["ev"] == ev_id]


class TraceSession:
    """Owns one trial's probes and buffers from start to finalize."""

    def __init__(self, config: TraceConfig, system: Any) -> None:
        self.config = config
        self.system = system
        self.ring = TraceRingBuffer(config.ringbuf_capacity)
        self.sampler = VmStatSampler(
            system, config.vmstat_interval_ns, config.vmstat_max_samples
        )
        engine = system.engine
        append = self.ring.append
        probes: Dict[str, Any] = {}
        for name in config.event_names():
            ev_id = tracepoints.EVENT_IDS[name]

            def probe(
                a: int = 0,
                b: int = 0,
                c: int = 0,
                _append=append,
                _engine=engine,
                _ev=ev_id,
            ) -> None:
                # engine._now: the public ``now`` property costs a
                # descriptor call per event; probes are package-internal.
                _append(_engine._now, _ev, a, b, c)

            probes[name] = probe
        self._subscription = observe.Subscription(
            tracepoints.handlers(probes)
        )
        self._started = False
        self._finalized = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Attach probes, take the t=0 baseline row, spawn the sampler."""
        if self._started:
            return
        self._subscription.attach()
        self._started = True
        self.sampler.sample()
        self.system.engine.spawn(
            self.sampler.run(), name="vmstat-sampler", daemon=True
        )

    def detach(self) -> None:
        """Detach every probe (idempotent; safe on error paths)."""
        self._subscription.detach()

    def finalize(
        self,
        runtime_ns: int = 0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> TraceCapture:
        """Detach, take the trial-end snapshot, freeze the capture.

        The final vmstat row is sampled here — after the run, after any
        post-run counter fixups the caller performs — which is what
        guarantees it equals the trial's aggregate counters.
        """
        self.detach()
        if not self._finalized:
            self.sampler.sample()
            self._finalized = True
        full_meta: Dict[str, Any] = {"runtime_ns": runtime_ns}
        if meta:
            full_meta.update(meta)
        return TraceCapture(
            config=self.config,
            events=self.ring.records(),
            total_events=self.ring.total,
            dropped_events=self.ring.dropped,
            vmstat=self.sampler.series(),
            meta=full_meta,
        )
