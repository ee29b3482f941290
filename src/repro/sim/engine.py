"""The discrete-event engine: an event queue and a simulated clock.

The engine is deliberately small.  It understands callbacks scheduled at
future instants and generator-based threads (:class:`~repro.sim.process.
SimThread`); everything else — CPU contention, device queues, memory
management — is built on top of those two primitives.

Simulated time is integer nanoseconds, starting at zero.  Events scheduled
for the same instant fire in the order they were scheduled (a monotonically
increasing sequence number breaks ties), which keeps runs deterministic.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Iterator, Optional

from repro import observe
from repro.errors import DeadlockError, SimulationError
from repro.sim.process import SimThread


def _call0(fn: Callable[[], None]) -> None:
    """Adapter: run a no-argument callback through the 1-arg queue slot."""
    fn()


class Engine:
    """Event loop with a simulated nanosecond clock.

    Typical use::

        engine = Engine()
        thread = engine.spawn(my_generator(), name="worker")
        engine.run()
        assert thread.finished

    Queue entries are ``(when, seq, fn, arg)`` and fire as ``fn(arg)``:
    carrying the argument in the tuple lets the hot paths (thread steps,
    CPU timers) schedule bound methods directly instead of building a
    closure per event.

    Zero-delay fast path: an event scheduled with ``delay_ns == 0``
    belongs to the current instant, so it skips the heap and lands in
    the ``_imm`` deque, tagged with the same monotone sequence number a
    heap push would have received.  The deque is FIFO — already seq
    order — and the run loop compares its head's seq against any heap
    entry for the *same* instant, so execution order is provably
    identical to the heap-only path while fault completions, resource
    grants, waker kicks and thread spawns skip a heappush+heappop
    round-trip.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[int, int, Callable[[Any], None], Any]] = []
        #: Zero-delay events for the current instant, in schedule order:
        #: ``(seq, fn, arg)``, seq shared with the heap's numbering.
        self._imm: deque[tuple[int, Callable[[Any], None], Any]] = deque()
        self._now = 0
        self._seq = 0
        #: Events pushed onto the heap (the rest of ``_seq`` went to
        #: ``_imm``); with the queue lengths this yields the per-queue
        #: dispatch counts of a run without counting in the loop.
        self._n_heap_pushes = 0
        self._threads: list[SimThread] = []
        #: The thread whose generator is currently executing (set at the
        #: top of :meth:`SimThread._step`).  Observability-only — PSI
        #: stall accounting reads it to attribute stalls to the calling
        #: thread; nothing in the simulation proper depends on it.
        self.current_thread: Optional[SimThread] = None
        self._running = False
        #: Live non-daemon threads (kept incrementally; checked per event).
        self._n_live_foreground = 0

    # ------------------------------------------------------------------
    # Clock and scheduling
    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    def schedule(self, delay_ns: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay_ns`` nanoseconds of simulated time."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns} ns in the past")
        self._seq += 1
        if delay_ns == 0:
            self._imm.append((self._seq, _call0, fn))
            return
        self._n_heap_pushes += 1
        heapq.heappush(self._queue, (self._now + delay_ns, self._seq, _call0, fn))

    def schedule1(
        self, delay_ns: int, fn: Callable[[Any], None], arg: Any
    ) -> None:
        """Run ``fn(arg)`` after ``delay_ns`` ns (closure-free hot path)."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns} ns in the past")
        self._seq += 1
        if delay_ns == 0:
            # Always deque-eligible: the entry carries the seq a heap
            # push would have used, and the run loop arbitrates against
            # same-instant heap entries by that seq.
            self._imm.append((self._seq, fn, arg))
            return
        self._n_heap_pushes += 1
        heapq.heappush(self._queue, (self._now + delay_ns, self._seq, fn, arg))

    def _inline_ok(self) -> bool:
        """True when a zero-delay continuation may run *immediately*
        (inside the current event) instead of via the queue: nothing else
        is pending at this instant, so no event could be reordered."""
        return not self._imm and (
            not self._queue or self._queue[0][0] > self._now
        )

    def schedule_at(self, when_ns: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at absolute simulated time ``when_ns``."""
        self.schedule(when_ns - self._now, fn)

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------

    def spawn(
        self,
        generator: Iterator[Any],
        name: str = "thread",
        daemon: bool = False,
    ) -> SimThread:
        """Create a :class:`SimThread` from *generator* and start it now.

        ``daemon`` threads do not keep :meth:`run` alive: the run ends when
        every non-daemon thread has finished even if daemons are blocked
        (mirroring kernel worker threads that never exit).
        """
        thread = SimThread(self, generator, name=name, daemon=daemon)
        self._threads.append(thread)
        if not daemon:
            self._n_live_foreground += 1
        # Start on the next event-loop turn so spawn order == start order.
        self.schedule1(0, thread._step, None)
        return thread

    def _thread_finished(self, thread: SimThread) -> None:
        """Called by SimThread when its generator returns."""
        if not thread.daemon:
            self._n_live_foreground -= 1

    @property
    def threads(self) -> tuple[SimThread, ...]:
        """All threads ever spawned on this engine."""
        return tuple(self._threads)

    def _live_foreground_threads(self) -> list[SimThread]:
        return [t for t in self._threads if not t.daemon and not t.finished]

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, until_ns: Optional[int] = None) -> int:
        """Process events until all foreground threads finish.

        Stops early at ``until_ns`` if given.  Returns the simulated time
        at which the run stopped.  Raises :class:`DeadlockError` if the
        queue drains while a foreground thread is still blocked.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        heappop = heapq.heappop
        queue = self._queue
        imm = self._imm
        imm_popleft = imm.popleft
        # Sentinel keeps the per-event bound test a plain int compare.
        until = (1 << 62) if until_ns is None else until_ns
        start = (self._seq, self._n_heap_pushes, len(queue), len(imm))
        try:
            while True:
                # Zero-delay events belong to the current instant; the
                # heap may also hold entries for this instant, so the
                # shared seq numbering decides which fires first.
                if imm:
                    if queue and queue[0][0] == self._now and queue[0][1] < imm[0][0]:
                        _when, _seq, fn, arg = heappop(queue)
                        fn(arg)
                    else:
                        _seq, fn, arg = imm_popleft()
                        fn(arg)
                elif queue:
                    if queue[0][0] > until:
                        self._now = until
                        return self._now
                    when, _seq, fn, arg = heappop(queue)
                    if when < self._now:
                        raise SimulationError(
                            "event queue went backwards in time"
                        )
                    self._now = when
                    fn(arg)
                else:
                    break
                if self._n_live_foreground == 0:
                    return self._now
            blocked = self._live_foreground_threads()
            if blocked:
                names = ", ".join(t.name for t in blocked)
                raise DeadlockError(
                    f"event queue drained with blocked threads: {names}"
                )
            return self._now
        finally:
            self._running = False
            if (hook := observe.engine_events) is not None:
                # Dispatched by this run, per queue: pushed during the
                # run plus pending at its start, less still pending.
                seq0, pushes0, heap0, imm0 = start
                n_heap = self._n_heap_pushes - pushes0 + heap0 - len(queue)
                n_all = (
                    self._seq - seq0 + heap0 + imm0 - len(queue) - len(imm)
                )
                if n_all:
                    hook(n_all - n_heap, n_heap)

    def run_for(self, duration_ns: int) -> int:
        """Run for at most ``duration_ns`` more simulated nanoseconds."""
        return self.run(until_ns=self._now + duration_ns)
