"""Shared-memory transport for immutable workload datasets.

With ``REPRO_JOBS`` workers, every worker process used to rebuild the
same PageRank graph and TPC-H columns from the fixed dataset seed.  The
:class:`ShmServer` lets the parent :class:`~repro.core.experiment.
ExperimentRunner` build each dataset once, pack its arrays into one
``multiprocessing.shared_memory`` segment, and ship a picklable
:class:`ShmDatasetHandle` (segment name + array layout) to the workers,
which attach the segment and slice *read-only* numpy views out of it —
zero copies, zero rebuild time.

Ownership model (the refcounted cleanup the pool shutdown relies on):

- the parent owns every segment: :meth:`ShmServer.shutdown` (called from
  ``ExperimentRunner.close()``) closes and unlinks them all, and an
  ``atexit`` hook covers interrupted runs;
- workers only ever attach.  Attachments are cached per segment and
  reference-counted.  Attaching registers the segment with the stdlib
  ``resource_tracker``, which unlinks what is still registered when it
  exits.  A worker that runs its own tracker unregisters each
  attachment, or its tracker would unlink the parent's segment when
  the worker exits.  A forked worker shares the parent's tracker
  instead, where unregistering would drop the *parent's* registration
  (the tracker then prints a ``KeyError`` traceback when the parent
  unlinks), so it leaves the registration alone.

Dataset arrays are immutable by contract (they model the paper's fixed
input data), which is what makes sharing one mapping across processes
sound; every view handed out has ``writeable=False``.
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Tuple

import numpy as np

#: Array start offsets are aligned within the segment (cache-line).
_ALIGN = 64


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


@dataclass(frozen=True)
class ShmDatasetHandle:
    """Picklable description of one dataset segment.

    ``layout`` maps each array name to ``(dtype string, shape, byte
    offset)`` inside the segment.
    """

    segment: str
    layout: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]


def export_dataset(
    arrays: Dict[str, np.ndarray], name_hint: str = "repro"
) -> Tuple[shared_memory.SharedMemory, ShmDatasetHandle]:
    """Copy *arrays* into a fresh shared-memory segment.

    Returns the live segment (caller owns close/unlink) and its handle.
    """
    layout = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        layout.append((name, arr.dtype.str, tuple(arr.shape), offset))
        offset = _aligned(offset + arr.nbytes)
    segment = shared_memory.SharedMemory(create=True, size=max(1, offset))
    for (name, dtype, shape, off), arr in zip(layout, arrays.values()):
        view = np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=off)
        view[...] = arr
    return segment, ShmDatasetHandle(segment.name, tuple(layout))


#: Worker-side attachment cache: segment name → (segment, views).  The
#: cache both refcounts (one attach per segment per process) and keeps
#: the mapping alive as long as any dataset view may be in use.
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, Dict[str, np.ndarray]]] = {}
#: Whether this process's resource tracker was started by an attach (in
#: this process or a forked ancestor) rather than by the exporter.  It
#: is process-wide because the tracker is; a forked child inherits both.
_OWN_TRACKER = False


def attach_dataset(handle: ShmDatasetHandle) -> Dict[str, np.ndarray]:
    """Attach *handle*'s segment and return read-only array views.

    Raises ``FileNotFoundError`` if the parent already unlinked the
    segment — callers treat that as a miss and rebuild locally.
    """
    global _OWN_TRACKER
    cached = _ATTACHED.get(handle.segment)
    if cached is not None:
        return cached[1]
    # With no tracker running yet, this attach starts one of our own.
    starts_tracker = getattr(
        resource_tracker._resource_tracker, "_fd", None
    ) is None
    segment = shared_memory.SharedMemory(name=handle.segment)
    _OWN_TRACKER = _OWN_TRACKER or starts_tracker
    if _OWN_TRACKER:
        # Attachments don't own the segment; the parent does.
        resource_tracker.unregister(segment._name, "shared_memory")
    views: Dict[str, np.ndarray] = {}
    for name, dtype, shape, off in handle.layout:
        view = np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=off)
        view.setflags(write=False)
        views[name] = view
    _ATTACHED[handle.segment] = (segment, views)
    return views


@atexit.register
def _close_attachments() -> None:  # pragma: no cover - process teardown
    for segment, _views in _ATTACHED.values():
        try:
            segment.close()
        except BufferError:
            # Live views still reference the mapping; the OS reclaims it
            # at process exit anyway.
            pass
        except Exception:
            pass
    _ATTACHED.clear()


class ShmServer:
    """Parent-side registry of exported dataset segments.

    One segment per dataset content key; :meth:`export` is idempotent so
    repeated grid cells reuse the existing segment.  :meth:`shutdown`
    releases everything; an ``atexit`` hook guarantees unlink even when
    a sweep is interrupted before the runner is closed.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._handles: Dict[str, ShmDatasetHandle] = {}
        self._atexit = atexit.register(self.shutdown)

    def export(
        self, key: str, arrays: Dict[str, np.ndarray]
    ) -> ShmDatasetHandle:
        """Export *arrays* under content *key* (no-op if already done)."""
        handle = self._handles.get(key)
        if handle is not None:
            return handle
        segment, handle = export_dataset(arrays)
        self._segments[key] = segment
        self._handles[key] = handle
        return handle

    @property
    def handles(self) -> Dict[str, ShmDatasetHandle]:
        """Current manifest: content key → segment handle."""
        return dict(self._handles)

    def shutdown(self) -> None:
        """Close and unlink every exported segment (idempotent)."""
        for segment in self._segments.values():
            try:
                segment.close()
            except Exception:
                pass
            try:
                segment.unlink()
            except Exception:
                pass
        self._segments.clear()
        self._handles.clear()
        try:
            atexit.unregister(self._atexit)
        except Exception:  # pragma: no cover - already torn down
            pass
