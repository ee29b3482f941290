"""Outside-in wall-clock layer tracer.

:class:`LayerTracer` wraps the public entry points of each simulator
layer by patching class and module attributes before a system is
built, so bound methods captured at construction time pick up the
wrappers too.  Every call, and every resumption of a returned
generator, is a span on one span stack; a span's *self time* is its
duration minus the time its wrapped children cover.  Nothing inside
``src/`` changes, and the wrappers only read the clock, so a traced
trial is bit-identical to an untraced one (the benchmark checks this
with digests).

The folded output uses the ``stack value`` format of the
``repro.spans`` sim-time profiler, with frames named
``<layer>:<Class.method>`` and values in microseconds of self time.
"""

from __future__ import annotations

import contextlib
import functools
import pathlib
from collections import defaultdict
from time import perf_counter_ns
from types import GeneratorType
from typing import Any, Dict, Iterator, List, Tuple

#: Layers in report order.
LAYERS = (
    "workloads",
    "sim",
    "mm.access",
    "mm.fault",
    "mm.evict",
    "policies.hit",
    "policies.reclaim",
    "swapdev",
    "memcg",
    "fleet",
    "core",
)

#: Frames counted as simulated events (``schedule_at`` delegates to
#: ``schedule``, so it is not counted twice).
EVENT_FRAMES = ("Engine.schedule", "Engine.schedule1")


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def layer_targets() -> List[Tuple[str, Any, str]]:
    """``(layer, owner, attribute)`` for every wrapped entry point.

    Owners are classes (every class in a hierarchy that defines the
    attribute itself) or modules.
    """
    import repro.core.experiment as experiment
    import repro.core.seedmajor as seedmajor
    import repro.fleet.trial as fleet_trial
    import repro.workloads.datasets as datasets
    from repro.memcg.cgroup import MemCgroup
    from repro.memcg.policy import MemcgPolicy
    from repro.mm.page_table import PageTable
    from repro.mm.system import MemorySystem
    from repro.policies.base import ReplacementPolicy
    from repro.sim.cpu import CPU
    from repro.sim.engine import Engine
    from repro.swapdev.base import SwapDevice
    from repro.workloads.base import Workload
    from repro.workloads.kvstore import KVStore
    from repro.workloads.zipf import ZipfSampler

    def methods(layer, roots, names, skip=()):
        return [
            (layer, cls, name)
            for root in roots
            for cls in _subclasses(root)
            if cls not in skip
            for name in names
            if name in cls.__dict__
            and not getattr(cls.__dict__[name], "__isabstractmethod__", False)
        ]

    return [
        *methods(
            "workloads", [Workload],
            ("thread_body", "prepare", "seed_major_plan"),
        ),
        *methods("workloads", [ZipfSampler], ("sample",)),
        *methods("workloads", [KVStore], ("index_pages", "item_pages")),
        *methods(
            "sim", [Engine], ("run", "schedule", "schedule1", "schedule_at")
        ),
        *methods("sim", [CPU], ("submit",)),
        *methods("mm.access", [MemorySystem], ("access_run", "access")),
        # The YCSB and fleet scalar hit paths translate inline.
        *methods("mm.access", [PageTable], ("lookup",)),
        *methods("mm.fault", [MemorySystem], ("handle_fault",)),
        *methods("mm.evict", [MemorySystem], ("evict_page", "evict_pages")),
        *methods(
            "policies.hit", [ReplacementPolicy],
            ("on_batch_access", "on_batch_access_stacked", "on_access"),
        ),
        *methods(
            "policies.reclaim", [ReplacementPolicy],
            ("reclaim", "run_aging_walk"), skip=(MemcgPolicy,),
        ),
        *methods(
            "swapdev", [SwapDevice],
            ("read", "write", "write_batch", "discard"),
        ),
        *methods(
            "memcg", [MemCgroup], ("charge", "uncharge", "reclaim_to_limit")
        ),
        ("memcg", MemcgPolicy, "reclaim"),
        ("fleet", fleet_trial, "run_fleet_trial"),
        ("fleet", fleet_trial, "_tenant_body"),
        ("fleet", fleet_trial, "_tenant_body_fast"),
        ("core", experiment, "run_trial"),
        ("core", seedmajor, "plan_cell"),
        ("core", datasets, "get_dataset"),
    ]


def _frame_name(owner: Any, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class LayerTracer:
    """Span stack, per-frame self time and call counts, folded stacks.

    Use :meth:`installed` around the traced work; the accumulators keep
    summing across installs.
    """

    def __init__(self) -> None:
        self.frame_layer: Dict[str, str] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Memory systems started while installed (for their counters).
        self.systems: List[Any] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.folded: Dict[str, int] = defaultdict(int)
        #: Wall time covered by outermost spans.
        self.covered_ns = 0
        # Stack entries: [frame, path, start_ns, child_ns].
        self._stack: List[List[Any]] = []

    # -- spans --------------------------------------------------------

    def _push(self, frame: str) -> List[Any]:
        stack = self._stack
        path = stack[-1][1] + ";" + frame if stack else frame
        entry = [frame, path, 0, 0]
        stack.append(entry)
        self.calls[frame] += 1
        entry[2] = perf_counter_ns()
        return entry

    def _pop(self, entry: List[Any]) -> None:
        elapsed = perf_counter_ns() - entry[2]
        stack = self._stack
        stack.pop()
        own = elapsed - entry[3]
        self.self_ns[entry[0]] += own
        self.folded[entry[1]] += own
        if stack:
            stack[-1][3] += elapsed
        else:
            self.covered_ns += elapsed

    def _timed_gen(self, frame: str, gen: Any) -> Iterator[Any]:
        """Drive *gen*, timing each resumption as a span of *frame*;
        forwards ``send``, ``throw`` and ``close`` (PEP 380 semantics)."""
        value = None
        exc = None
        while True:
            entry = self._push(frame)
            try:
                if exc is None:
                    out = gen.send(value)
                else:
                    pending, exc = exc, None
                    out = gen.throw(pending)
            except StopIteration as stop:
                return stop.value
            finally:
                self._pop(entry)
            try:
                value = yield out
            except GeneratorExit:
                entry = self._push(frame)
                try:
                    gen.close()
                finally:
                    self._pop(entry)
                raise
            except BaseException as thrown:
                exc = thrown
                value = None

    def wrap(self, frame: str, fn: Any) -> Any:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            entry = tracer._push(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(entry)
            if type(result) is GeneratorType:
                return tracer._timed_gen(frame, result)
            return result

        return wrapper

    # -- install ------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.mm.system import MemorySystem

        for layer, owner, attr in layer_targets():
            frame = _frame_name(owner, attr)
            self.frame_layer[frame] = layer
            self._patch(owner, attr, self.wrap(frame, owner.__dict__[attr]))
        # Untimed: remember each memory system to read its counters.
        start = MemorySystem.__dict__["start"]

        def capture_start(system: Any) -> None:
            self.systems.append(system)
            start(system)

        self._patch(MemorySystem, "start", capture_start)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------

    def _by_layer(self, per_frame: Dict[str, int]) -> Dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for frame, value in per_frame.items():
            out[self.frame_layer[frame]] += value
        return out

    def layer_self_ns(self) -> Dict[str, int]:
        return self._by_layer(self.self_ns)

    def layer_calls(self) -> Dict[str, int]:
        return self._by_layer(self.calls)

    def events(self) -> int:
        return sum(self.calls.get(frame, 0) for frame in EVENT_FRAMES)

    def folded_lines(self) -> List[str]:
        """``stack value`` lines, value = self time in whole µs, sorted
        by stack (deterministic and diffable, like the sim-time
        profiler's output)."""
        lines = []
        for path, ns in sorted(self.folded.items()):
            us = ns // 1000
            if us > 0:
                stack = ";".join(
                    f"{self.frame_layer[f]}:{f}" for f in path.split(";")
                )
                lines.append(f"{stack} {us}")
        return lines

    def write_folded(self, path: pathlib.Path) -> int:
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = self.folded_lines()
        path.write_text("".join(line + "\n" for line in lines))
        return len(lines)
